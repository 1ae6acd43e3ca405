// SPEX evaluation engine: the public entry point of the library.
//
// Usage:
//   spex::ExprPtr query = spex::MustParseRpeq("_*.a[b].c");
//   spex::CollectingResultSink results;
//   spex::SpexEngine engine(*query, &results);
//   ... feed document messages (e.g. from spex::XmlParser) ...
//   engine is an EventSink, so:  XmlParser parser(&engine); parser.Parse(xml);
//
// The engine compiles the query once (linear time, Lemma V.1) and then
// processes each document message in a single pass through the transducer
// network, emitting result fragments progressively.

#ifndef SPEX_SPEX_ENGINE_H_
#define SPEX_SPEX_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "rpeq/ast.h"
#include "spex/compiler.h"
#include "spex/run_core.h"
#include "xml/stream_event.h"

namespace spex {

// The single-query front-end: compiles one query (IN -> C[query] -> OU) and
// hands the network to the run core (spex/run_core.h), which owns feeding,
// governance, sealing, observability and stats.  One result slot.
class SpexEngine : public RunCore {
 public:
  // Compiles `query` into a network delivering results to `sink`.  The sink
  // must outlive the engine; the compiled network keeps no reference to
  // `query`.
  SpexEngine(const Expr& query, ResultSink* sink, EngineOptions options = {});
  // As above from a pre-built immutable QueryTemplate (shared with other
  // sessions through runtime/query_cache.h).  The network is instantiated
  // fresh for this run — templates carry no run state and may be shared
  // across threads.
  SpexEngine(std::shared_ptr<const QueryTemplate> query_template,
             ResultSink* sink, EngineOptions options = {});
};

// ---------------------------------------------------------------------------
// One-shot conveniences.

// Evaluates `query` against a complete event stream; returns the serialized
// XML of every result fragment, in document order.
std::vector<std::string> EvaluateToStrings(const Expr& query,
                                           const std::vector<StreamEvent>& events,
                                           EngineOptions options = {});

// As above but returns raw event fragments.
std::vector<std::vector<StreamEvent>> EvaluateToFragments(
    const Expr& query, const std::vector<StreamEvent>& events,
    EngineOptions options = {});

// Evaluates and returns only the number of results (constant memory).
int64_t CountMatches(const Expr& query, const std::vector<StreamEvent>& events,
                     EngineOptions options = {});

// Parses `xml`, evaluates `query_text` (rpeq syntax) and returns serialized
// result fragments.  Aborts on parse errors — for examples and tests where
// inputs are known-good literals.
std::vector<std::string> EvaluateXml(const std::string& query_text,
                                     const std::string& xml);

}  // namespace spex

#endif  // SPEX_SPEX_ENGINE_H_
