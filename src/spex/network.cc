#include "spex/network.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "obs/profile.h"
#include "obs/trace.h"

namespace spex {

LabelSet LabelSet::Document() {
  LabelSet set;
  set.document = true;
  return set;
}

LabelSet LabelSet::All() {
  LabelSet set;
  set.any_element = true;
  set.document = true;
  return set;
}

LabelSet LabelSet::Element(const std::string& label, bool wildcard) {
  LabelSet set;
  if (wildcard) {
    set.any_element = true;
  } else {
    set.labels.push_back(label);
  }
  return set;
}

void LabelSet::Merge(const LabelSet& other) {
  document = document || other.document;
  any_element = any_element || other.any_element;
  if (any_element) {
    labels.clear();
    return;
  }
  for (const std::string& label : other.labels) {
    auto it = std::lower_bound(labels.begin(), labels.end(), label);
    if (it == labels.end() || *it != label) labels.insert(it, label);
  }
}

bool LabelSet::ContainsEnd(EventKind kind, std::string_view name) const {
  if (kind == EventKind::kEndDocument) return document;
  if (kind != EventKind::kEndElement) return false;
  return any_element ||
         std::binary_search(labels.begin(), labels.end(), name);
}

int Network::AddNode(std::unique_ptr<Transducer> transducer) {
  int id = static_cast<int>(nodes_.size());
  Node node;
  node.transducer = std::move(transducer);
  nodes_.push_back(std::move(node));
  return id;
}

int Network::NewTape() {
  int id = static_cast<int>(tapes_.size());
  tapes_.emplace_back();
  return id;
}

void Network::SetProducer(int tape, int node, int out_port) {
  assert(tape >= 0 && tape < tape_count());
  assert(out_port == 0 || out_port == 1);
  assert(tapes_[tape].producer_node == -1 && "tape already has a producer");
  tapes_[tape].producer_node = node;
  tapes_[tape].producer_port = out_port;
  nodes_[node].out_tapes[out_port] = tape;
}

void Network::SetConsumer(int tape, int node, int in_port) {
  assert(tape >= 0 && tape < tape_count());
  assert(in_port == 0 || in_port == 1);
  assert(tapes_[tape].consumer_node == -1 && "tape already has a consumer");
  tapes_[tape].consumer_node = node;
  tapes_[tape].consumer_port = in_port;
  nodes_[node].in_tapes[in_port] = tape;
}

void Network::SetTraceRecorder(obs::TraceRecorder* recorder) {
  trace_recorder_ = recorder;
  if (recorder != nullptr) span_name_id_ = recorder->InternName("deliver");
  instrumented_ = trace_recorder_ != nullptr || profiler_ != nullptr;
}

void Network::SetProfiler(obs::ProfileAccumulator* profiler) {
  profiler_ = profiler;
  instrumented_ = trace_recorder_ != nullptr || profiler_ != nullptr;
}

int64_t Network::ClockNs() const {
  return trace_recorder_ != nullptr ? trace_recorder_->NowNs()
                                    : profiler_->NowNs();
}

void Network::SetProvenance(int node, SourceSpan span, std::string fragment) {
  nodes_[node].provenance.span = span;
  nodes_[node].provenance.fragment = std::move(fragment);
}

void Network::AssignBuffers() {
  std::vector<int> released;  // colours free for reuse, most recent last
  int colours = 0;
  auto take = [&] {
    if (released.empty()) return colours++;
    const int colour = released.back();
    released.pop_back();
    return colour;
  };
  for (int id = 0; id < node_count(); ++id) {
    Node& node = nodes_[id];
    // An input port 0 that no earlier node writes is an injection point.
    if (node.in_buffers[0] == -1) node.in_buffers[0] = take();
    for (int port = 0; port < 2; ++port) {
      const int tape = node.out_tapes[port];
      if (tape == -1 || tapes_[tape].consumer_node == -1) continue;
      const Tape& t = tapes_[tape];
      // The compiler adds nodes in topological order, which is what lets
      // one ascending sweep drain every pending buffer.
      assert(t.consumer_node > id && "network not in topological order");
      node.out_buffers[port] = take();
      nodes_[t.consumer_node].in_buffers[t.consumer_port] =
          node.out_buffers[port];
    }
    // The intervals ending here are closed: release after the outputs took
    // their colours.
    for (int colour : node.in_buffers) {
      if (colour != -1) released.push_back(colour);
    }
  }
  buffers_.resize(static_cast<size_t>(colours));
}

void Network::DeliverBatch(int node, int in_port, Documents docs,
                           std::vector<Control>* controls) {
  SPEX_DCHECK_THREAD(affinity_, "spex::Network");
  if (buffers_.empty()) AssignBuffers();
  if (controls != nullptr) {
    std::vector<Control>* injected = Buffer(nodes_[node].in_buffers[in_port]);
    assert(injected != nullptr && injected->empty() &&
           "DeliverBatch must inject at an injection point");
    injected->swap(*controls);
  }
  const int n = node_count();
  for (int id = node; id < n; ++id) {
    Node& current = nodes_[id];
    std::vector<Control>* q = Buffer(current.in_buffers[0]);
    std::vector<Control>* q1 = Buffer(current.in_buffers[1]);
    if (docs.empty() && q->empty() && (q1 == nullptr || q1->empty())) {
      continue;
    }
    BatchEmitter emitter(Buffer(current.out_buffers[0]),
                         Buffer(current.out_buffers[1]));
    Transducer* t = current.transducer.get();
    // One clock pair per node call when instrumented, shared by the trace
    // span and the profiler (which only uses differences, so either origin
    // works).
    const int64_t start = instrumented_ ? ClockNs() : 0;
    const int64_t delivered_before = t->stats().messages_in;
    // Emissions only target higher node ids, through buffers no input of
    // this node uses, so neither input is reallocated while the call runs.
    t->OnSweep(docs, *q, q1 == nullptr ? Controls() : Controls(*q1),
               &emitter);
    if (instrumented_) [[unlikely]] {
      const int64_t end = ClockNs();
      if (trace_recorder_ != nullptr) {
        trace_recorder_->RecordSpan(id + 1, span_name_id_, start, end);
      }
      if (profiler_ != nullptr) {
        profiler_->Record(id, t->stats().messages_in - delivered_before,
                          end - start);
      }
    }
    q->clear();
    if (q1 != nullptr) q1->clear();
  }
}

Transducer* Network::FindByName(const std::string& name) {
  for (Node& n : nodes_) {
    if (n.transducer->name() == name) return n.transducer.get();
  }
  return nullptr;
}

namespace {

// Escapes a string for use inside a double-quoted DOT label: quotes and
// backslashes would otherwise terminate the attribute (e.g. CH("a\"b")),
// and raw newlines are not valid inside quoted strings.
std::string EscapeDotLabel(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string Network::ToDot(const obs::ProfileReport* report) const {
  std::string out =
      "digraph spex_network {\n  rankdir=LR;\n  node [shape=box, "
      "fontname=\"monospace\"];\n";
  double max_share = 0;
  int64_t max_edge_messages = 0;
  if (report != nullptr) {
    for (const obs::ProfileNode& n : report->nodes) {
      max_share = std::max(max_share, n.time_share);
    }
    for (const obs::ProfileEdge& e : report->edges) {
      max_edge_messages = std::max(max_edge_messages, e.messages);
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    std::string label = nodes_[i].transducer->name();
    std::string attrs;
    if (report != nullptr && i < report->nodes.size()) {
      const obs::ProfileNode& n = report->nodes[i];
      if (!n.fragment.empty()) {
        label += "\n" + n.fragment;
        if (n.span_begin != n.span_end) {
          label += " @[" + std::to_string(n.span_begin) + "," +
                   std::to_string(n.span_end) + ")";
        }
      }
      if (report->timed) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "\n%.1f%% self  %lld msgs",
                      n.time_share * 100.0,
                      static_cast<long long>(n.messages_in));
        label += buf;
        // Heat: saturation tracks the node's share of the hottest node; the
        // hue stays in the yellow-red band so `dot -Tsvg` reads as a flame
        // map.  Font size grows with share so hot nodes dominate visually.
        const double rel = max_share > 0 ? n.time_share / max_share : 0;
        std::snprintf(buf, sizeof buf,
                      ", style=filled, fillcolor=\"%.3f %.3f 1.000\"",
                      0.12 * (1.0 - rel), 0.15 + 0.85 * rel);
        attrs += buf;
        std::snprintf(buf, sizeof buf, ", fontsize=%d",
                      10 + static_cast<int>(10.0 * rel));
        attrs += buf;
      }
    }
    out += "  n" + std::to_string(i) + " [label=\"" + EscapeDotLabel(label) +
           "\"" + attrs + "];\n";
  }
  for (size_t t = 0; t < tapes_.size(); ++t) {
    const Tape& tape = tapes_[t];
    if (tape.producer_node == -1 || tape.consumer_node == -1) continue;
    std::string label = "t" + std::to_string(t);
    std::string attrs;
    if (report != nullptr && report->timed) {
      const obs::ProfileEdge* edge = nullptr;
      for (const obs::ProfileEdge& e : report->edges) {
        if (e.tape == static_cast<int>(t)) {
          edge = &e;
          break;
        }
      }
      if (edge != nullptr) {
        label += "\n" + std::to_string(edge->messages) + " msgs";
        const double rel =
            max_edge_messages > 0
                ? static_cast<double>(edge->messages) /
                      static_cast<double>(max_edge_messages)
                : 0;
        char buf[48];
        std::snprintf(buf, sizeof buf, ", penwidth=%.2f", 1.0 + 4.0 * rel);
        attrs += buf;
      }
    }
    out += "  n" + std::to_string(tape.producer_node) + " -> n" +
           std::to_string(tape.consumer_node) + " [label=\"" +
           EscapeDotLabel(label) + "\"" + attrs + "];\n";
  }
  out += "}\n";
  return out;
}

std::string Network::Describe() const {
  std::string out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    out += std::to_string(i) + ": " + n.transducer->name() + "  in:[";
    for (int p = 0; p < 2; ++p) {
      if (n.in_tapes[p] != -1) {
        if (out.back() != '[') out += ',';
        out += std::to_string(n.in_tapes[p]);
      }
    }
    out += "] out:[";
    for (int p = 0; p < 2; ++p) {
      if (n.out_tapes[p] != -1) {
        if (out.back() != '[') out += ',';
        out += std::to_string(n.out_tapes[p]);
      }
    }
    out += "]\n";
  }
  return out;
}

}  // namespace spex
