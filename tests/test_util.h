// Shared helpers for the SPEX unit tests.

#ifndef SPEX_TESTS_TEST_UTIL_H_
#define SPEX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "spex/message.h"
#include "spex/network.h"
#include "spex/transducer.h"
#include "xml/stream_event.h"
#include "xml/xml_parser.h"

namespace spex {

// Records everything a transducer emits (see Feed).
class TestEmitter {
 public:
  void Record(int port, Message message) {
    messages_.emplace_back(port, std::move(message));
  }

  const std::vector<std::pair<int, Message>>& messages() const {
    return messages_;
  }
  void Clear() { messages_.clear(); }

  // Semicolon-joined rendering in the paper's notation, e.g.
  // "[true];<a>;{co0_0,false}".  For two-port transducers the port is
  // prefixed: "0:<a>;1:<a>".
  std::string Summary(bool with_ports = false) const {
    std::string out;
    for (const auto& [port, m] : messages_) {
      if (!out.empty()) out += ';';
      if (with_ports) out += std::to_string(port) + ":";
      out += m.ToString();
    }
    return out;
  }

 private:
  std::vector<std::pair<int, Message>> messages_;
};

// Splits a message sequence into what a sparse tape holds (DESIGN.md §11):
// the document messages, and the control messages, each stamped with the
// offset of the document message it precedes.
inline void SplitTape(std::vector<Message> messages,
                      std::vector<Message>* docs,
                      std::vector<Control>* controls) {
  for (Message& m : messages) {
    if (m.is_document()) {
      docs->push_back(std::move(m));
    } else {
      controls->push_back({docs->size(), std::move(m)});
    }
  }
}

// Records a node call's emissions in `out`: for each output port of `t`
// (port 0's before port 1's), the port's control messages re-interleaved
// with the sweep's document messages by round — the tape one-message
// processing writes.
inline void RecordEmitted(const Transducer& t, const std::vector<Message>& docs,
                          std::vector<Control> (&emitted)[2],
                          TestEmitter* out) {
  for (int p = 0; p < t.output_ports(); ++p) {
    size_t c = 0;
    for (size_t k = 0; k <= docs.size(); ++k) {
      for (; c < emitted[p].size() && emitted[p][c].at == k; ++c) {
        out->Record(p, std::move(emitted[p][c].message));
      }
      if (k < docs.size()) out->Record(p, docs[k]);
    }
    if (c != emitted[p].size()) {
      ADD_FAILURE() << t.name() << " port " << p
                    << ": control stamps out of tape order";
    }
  }
}

// Hands `message` to the one-input `t` as a one-message sweep — the
// transducer's entry point, exactly as a one-round network sweep calls it —
// and records the emissions in `out`.
inline void Feed(Transducer* t, Message message, TestEmitter* out) {
  std::vector<Message> in;
  in.push_back(std::move(message));
  std::vector<Message> docs;
  std::vector<Control> controls;
  SplitTape(std::move(in), &docs, &controls);
  std::vector<Control> emitted[2];
  BatchEmitter emitter(&emitted[0], &emitted[1]);
  t->OnSweep(docs, controls, {}, &emitter);
  RecordEmitted(*t, docs, emitted, out);
}

// Hands `left` and `right` to the two-input `t` (JO, IS) as one sweep's
// pending sequences of its two input tapes — which hold the same document
// messages — and records the emissions in `out`.
inline void FeedPair(Transducer* t, std::vector<Message> left,
                     std::vector<Message> right, TestEmitter* out) {
  std::vector<Message> docs;
  std::vector<Message> right_docs;
  std::vector<Control> controls[2];
  SplitTape(std::move(left), &docs, &controls[0]);
  SplitTape(std::move(right), &right_docs, &controls[1]);
  EXPECT_EQ(docs.size(), right_docs.size());
  for (size_t k = 0; k < docs.size() && k < right_docs.size(); ++k) {
    EXPECT_EQ(docs[k].ToString(), right_docs[k].ToString()) << "round " << k;
  }
  std::vector<Control> emitted[2];
  BatchEmitter emitter(&emitted[0], &emitted[1]);
  t->OnSweep(docs, controls[0], controls[1], &emitter);
  RecordEmitted(*t, docs, emitted, out);
}

// Injects `message` at `node`'s input `port` as a one-message sweep.
inline void DeliverOne(Network* network, int node, int port, Message message) {
  std::vector<Message> docs;
  std::vector<Control> controls;
  std::vector<Message> in;
  in.push_back(std::move(message));
  SplitTape(std::move(in), &docs, &controls);
  network->DeliverBatch(node, port, docs, &controls);
}

// Rule traces of every node of `network`, attached before the first event:
// the per-transducer view the paper's Figs. 4, 5 and 13 present.  The
// network must outlive this object's use, and this object the run.
class NetworkTraces {
 public:
  explicit NetworkTraces(Network* network)
      : network_(network), traces_(static_cast<size_t>(network->node_count())) {
    for (int i = 0; i < network->node_count(); ++i) {
      network->node(i)->set_trace(&traces_[static_cast<size_t>(i)]);
    }
  }

  // Trace of node `node`.
  const TransducerTrace& at(int node) const {
    return traces_[static_cast<size_t>(node)];
  }

  // Trace of the first transducer named `name` (e.g. "CH(a)"), or nullptr.
  const TransducerTrace* Find(const std::string& name) const {
    for (int i = 0; i < network_->node_count(); ++i) {
      if (network_->node(i)->name() == name) {
        return &traces_[static_cast<size_t>(i)];
      }
    }
    return nullptr;
  }

 private:
  const Network* network_;
  std::vector<TransducerTrace> traces_;
};

inline Message Open(const std::string& label) {
  return Message::Document(StreamEvent::StartElement(label));
}
inline Message Close(const std::string& label) {
  return Message::Document(StreamEvent::EndElement(label));
}
inline Message OpenDoc() {
  return Message::Document(StreamEvent::StartDocument());
}
inline Message CloseDoc() {
  return Message::Document(StreamEvent::EndDocument());
}
inline Message Activate(Formula f = Formula::True()) {
  return Message::Activation(std::move(f));
}

// Parses XML into a document-message vector, aborting on error.
inline std::vector<StreamEvent> MustParseEvents(const std::string& xml) {
  std::vector<StreamEvent> events;
  std::string error;
  if (!ParseXmlToEvents(xml, &events, &error)) {
    ADD_FAILURE() << "bad test XML: " << error;
  }
  return events;
}

// Minimal structural checker for the Graphviz DOT renderings the library
// produces (Network::ToDot writes one statement per line, so a line-based
// check suffices).  Verifies:
//  * the "digraph <name> {" wrapper with a closing "}",
//  * every statement line ends with ';',
//  * double quotes balance on every line (respecting backslash escapes;
//    labels must not leak raw '"' — that is what the escaping fixes),
//  * node statements declare "n<digits>", edge statements "nA -> nB"
//    reference only declared nodes.
// Returns true when well-formed; fills *error otherwise.
inline bool CheckDotStructure(const std::string& dot, std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  std::vector<std::string> lines;
  {
    std::string line;
    for (char c : dot) {
      if (c == '\n') {
        lines.push_back(line);
        line.clear();
      } else {
        line += c;
      }
    }
    if (!line.empty()) lines.push_back(line);
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.size() < 2) return fail("too short to be a digraph");
  if (lines.front().rfind("digraph ", 0) != 0 ||
      lines.front().find('{') == std::string::npos) {
    return fail("missing 'digraph <name> {' header: " + lines.front());
  }
  if (lines.back() != "}") return fail("missing closing '}'");

  // Parses "n<digits>" starting at `pos`; returns the id or -1.
  auto parse_node_ref = [](const std::string& line, size_t pos) {
    if (pos >= line.size() || line[pos] != 'n') return -1;
    size_t i = pos + 1;
    int id = -1;
    while (i < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[i]))) {
      id = (id < 0 ? 0 : id * 10) + (line[i] - '0');
      ++i;
    }
    return id;
  };

  std::set<int> declared;
  for (size_t k = 1; k + 1 < lines.size(); ++k) {
    const std::string& raw = lines[k];
    const size_t first = raw.find_first_not_of(' ');
    if (first == std::string::npos) continue;
    const std::string line = raw.substr(first);
    if (line.back() != ';') {
      return fail("statement does not end with ';': " + line);
    }
    int quotes = 0;
    bool in_string = false;
    for (size_t i = 0; i < line.size(); ++i) {
      if (in_string && line[i] == '\\') {
        ++i;  // escaped character inside a quoted string
        continue;
      }
      if (line[i] == '"') {
        ++quotes;
        in_string = !in_string;
      }
    }
    if (quotes % 2 != 0) return fail("unbalanced quotes: " + line);
    const size_t arrow = line.find(" -> ");
    if (arrow != std::string::npos) {
      const int from = parse_node_ref(line, 0);
      const int to = parse_node_ref(line, arrow + 4);
      if (from < 0 || to < 0) return fail("malformed edge: " + line);
      if (declared.count(from) == 0 || declared.count(to) == 0) {
        return fail("edge references undeclared node: " + line);
      }
    } else if (line[0] == 'n' && line.size() > 1 &&
               std::isdigit(static_cast<unsigned char>(line[1]))) {
      const int id = parse_node_ref(line, 0);
      if (id < 0) return fail("malformed node statement: " + line);
      declared.insert(id);
    }
    // Anything else (rankdir=, node [...] defaults) just needed the
    // terminator and quote checks above.
  }
  return true;
}

}  // namespace spex

#endif  // SPEX_TESTS_TEST_UTIL_H_
