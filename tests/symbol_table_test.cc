// Tests for label interning (xml/symbol_table.h) and its integration with
// the parser, the writer and the transducer network.

#include "xml/symbol_table.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "rpeq/parser.h"
#include "spex/compiler.h"
#include "spex/engine.h"
#include "spex/network.h"
#include "test_util.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace spex {
namespace {

TEST(SymbolTableTest, InterningIsStable) {
  SymbolTable table;
  EXPECT_EQ(table.size(), 0u);

  Symbol a = table.Intern("alpha");
  Symbol b = table.Intern("beta");
  EXPECT_NE(a, kNoSymbol);
  EXPECT_NE(b, kNoSymbol);
  EXPECT_NE(a, b);

  // Re-interning the same strings returns the same symbols.
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.Intern("beta"), b);
  EXPECT_EQ(table.size(), 2u);

  EXPECT_EQ(table.Name(a), "alpha");
  EXPECT_EQ(table.Name(b), "beta");
  EXPECT_EQ(table.Name(kNoSymbol), "");

  EXPECT_EQ(table.Lookup("alpha"), a);
  EXPECT_EQ(table.Lookup("never-interned"), kNoSymbol);
}

TEST(SymbolTableTest, StableAcrossGrowth) {
  // Interning thousands of labels forces both the name vector and the index
  // map to reallocate several times; earlier symbols must keep resolving
  // (guards against the index holding views into moved-from storage).
  SymbolTable table;
  std::vector<std::pair<std::string, Symbol>> interned;
  for (int i = 0; i < 5000; ++i) {
    std::string name = "label_" + std::to_string(i);
    interned.emplace_back(name, table.Intern(name));
  }
  EXPECT_EQ(table.size(), 5000u);
  for (const auto& [name, sym] : interned) {
    EXPECT_EQ(table.Intern(name), sym);
    EXPECT_EQ(table.Lookup(name), sym);
    EXPECT_EQ(table.Name(sym), name);
  }
}

TEST(SymbolTableTest, ParserStampsSymbolsAndXmlRoundTrips) {
  const std::string xml = "<a><b>x</b><b>y</b><c></c></a>";
  SymbolTable table;
  XmlParserOptions options;
  options.symbols = &table;
  std::vector<StreamEvent> events;
  std::string error;
  ASSERT_TRUE(ParseXmlToEvents(xml, &events, &error, options)) << error;

  // Every element event carries the symbol of its label; start and end tags
  // of the same element agree.
  Symbol a = table.Lookup("a");
  Symbol b = table.Lookup("b");
  Symbol c = table.Lookup("c");
  EXPECT_NE(a, kNoSymbol);
  EXPECT_NE(b, kNoSymbol);
  EXPECT_NE(c, kNoSymbol);
  for (const StreamEvent& e : events) {
    if (e.kind == EventKind::kStartElement || e.kind == EventKind::kEndElement) {
      EXPECT_EQ(e.label, table.Lookup(e.name)) << e.name;
    } else {
      EXPECT_EQ(e.label, kNoSymbol);
    }
  }

  // Stamping does not disturb serialization: the writer reproduces the
  // document text from the stamped events.
  EXPECT_EQ(EventsToXml(events), xml);

  // The same events evaluate identically with and without stamped labels
  // (consumers fall back to string compares at label 0).
  ExprPtr query = MustParseRpeq("a.b");
  std::vector<StreamEvent> unstamped = events;
  for (StreamEvent& e : unstamped) e.label = kNoSymbol;
  EXPECT_EQ(EvaluateToStrings(*query, events),
            EvaluateToStrings(*query, unstamped));
}

TEST(SymbolTableTest, EngineInternsUnstampedEventsOnEntry) {
  // Hand-built events carry label 0; the engine interns them at OnEvent so
  // the network still sees symbols.
  ExprPtr query = MustParseRpeq("a.b");
  CollectingResultSink sink;
  SpexEngine engine(*query, &sink);
  std::vector<StreamEvent> events = MustParseEvents("<a><b>x</b></a>");
  for (const StreamEvent& e : events) engine.OnEvent(e);
  EXPECT_EQ(sink.results().size(), 1u);
  EXPECT_NE(engine.symbol_table()->Lookup("a"), kNoSymbol);
  EXPECT_NE(engine.symbol_table()->Lookup("b"), kNoSymbol);
}

TEST(SymbolTableTest, NetworkSurvivesMoveBetweenDeliveries) {
  // The network must stay deliverable after being moved (no component may
  // hold a stable back-pointer to the Network object, and the sweep's
  // pending buffers move with it).  Compile, move the network,
  // then run a document through the moved instance — including mid-document:
  // deliver half the events, move again, deliver the rest.
  ExprPtr query = MustParseRpeq("_*.b[c]");
  RunContext context;
  CollectingResultSink sink;
  CompiledNetwork compiled =
      CompileToNetwork(*query, &sink, &context);

  Network moved = std::move(compiled.network);
  std::vector<StreamEvent> events =
      MustParseEvents("<a><b><c/></b><b>no</b><d><b><c/></b></d></a>");
  size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    DeliverOne(&moved, compiled.input_node, 0, Message::Document(events[i]));
  }
  Network moved_again = std::move(moved);
  for (size_t i = half; i < events.size(); ++i) {
    DeliverOne(&moved_again, compiled.input_node, 0,
               Message::Document(events[i]));
  }
  EXPECT_EQ(sink.results().size(), 2u);
}

}  // namespace
}  // namespace spex
