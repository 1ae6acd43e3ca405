#include "spex/observe.h"

#include <cmath>
#include <cstdio>

#include "spex/network.h"
#include "spex/output_transducer.h"
#include "spex/transducer.h"

namespace spex {

std::string Watermark::ToString() const {
  // A degenerate rate window (first tick polled immediately, or a clock
  // with coarse resolution) can leave events_per_sec inf/nan; print 0
  // rather than garbage.
  const double rate = std::isfinite(events_per_sec) ? events_per_sec : 0.0;
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "events=%lld bytes=%lld elapsed=%.2fs rate=%.0fev/s results=%lld "
      "pending_fragments=%lld buffered_events=%lld buffered_peak=%lld "
      "formula_nodes=%lld live_vars=%lld",
      static_cast<long long>(events), static_cast<long long>(bytes),
      elapsed_sec, rate, static_cast<long long>(results),
      static_cast<long long>(pending_fragments),
      static_cast<long long>(buffered_events),
      static_cast<long long>(buffered_events_peak),
      static_cast<long long>(live_formula_nodes),
      static_cast<long long>(live_condition_vars));
  return buf;
}

void RegisterNetworkCollectors(obs::MetricRegistry* registry,
                               Network* network) {
  registry->AddCallbackGauge(
      "spex_network_transducers", {},
      [network] { return static_cast<int64_t>(network->node_count()); });
  for (int i = 0; i < network->node_count(); ++i) {
    Transducer* node = network->node(i);
    const obs::Labels labels = {{"node", std::to_string(i)},
                                {"transducer", node->name()}};
    registry->AddCallbackGauge("spex_transducer_messages_in", labels,
                               [node] { return node->stats().messages_in; });
    registry->AddCallbackGauge("spex_transducer_messages_out", labels,
                               [node] { return node->stats().messages_out; });
    registry->AddCallbackGauge(
        "spex_transducer_depth_stack_peak", labels,
        [node] { return node->stats().depth_stack_peak; });
    registry->AddCallbackGauge(
        "spex_transducer_condition_stack_peak", labels,
        [node] { return node->stats().condition_stack_peak; });
    registry->AddCallbackGauge(
        "spex_transducer_formula_nodes_peak", labels,
        [node] { return node->stats().formula_nodes_peak; });
  }
}

void RegisterOutputCollectors(obs::MetricRegistry* registry,
                              OutputTransducer* output, obs::Labels labels) {
  registry->AddCallbackGauge(
      "spex_output_candidates_created", labels,
      [output] { return output->output_stats().candidates_created; });
  registry->AddCallbackGauge(
      "spex_output_candidates_dropped", labels,
      [output] { return output->output_stats().candidates_dropped; });
  registry->AddCallbackGauge(
      "spex_output_candidates_emitted", labels,
      [output] { return output->output_stats().candidates_emitted; });
  registry->AddCallbackGauge(
      "spex_output_streamed_events", labels,
      [output] { return output->output_stats().streamed_events; });
  registry->AddCallbackGauge("spex_output_buffered_events", labels,
                             [output] { return output->buffered_events(); });
  registry->AddCallbackGauge("spex_output_buffered_bytes", labels,
                             [output] { return output->buffered_bytes(); });
  registry->AddCallbackGauge(
      "spex_output_buffered_events_peak", labels,
      [output] { return output->output_stats().buffered_events_peak; });
  registry->AddCallbackGauge(
      "spex_output_open_candidates_peak", labels,
      [output] { return output->output_stats().open_candidates_peak; });
  registry->AddCallbackGauge(
      "spex_output_pending_candidates", std::move(labels),
      [output] { return output->pending_candidates(); });
}

void RegisterContextCollectors(obs::MetricRegistry* registry,
                               RunContext* context, int64_t allocs_baseline) {
  registry->AddCallbackGauge("spex_assignment_live_vars", {}, [context] {
    return static_cast<int64_t>(context->assignment.size());
  });
  registry->AddCallbackGauge("spex_formula_live_nodes", {},
                             [] { return Formula::GetPoolStats().live; });
  registry->AddCallbackGauge(
      "spex_formula_pool_high_water", {},
      [] { return Formula::GetPoolStats().live_high_water; });
  // The pool is thread-local and shared by every engine on the thread, so
  // expose a per-run delta.
  registry->AddCallbackGauge(
      "spex_formula_pool_allocs", {}, [allocs_baseline] {
        return Formula::GetPoolStats().allocated_total - allocs_baseline;
      });
}

std::string PredictCostClass(std::string_view transducer_name) {
  // §V per-message bounds by transducer family, on sparse tapes (DESIGN.md
  // §11): the forwarders work per control message and pay nothing for a
  // document message; the structural transducers walk every document
  // message at O(1) each with an O(d) depth stack.  Formula manipulators
  // pay time linear in the (factored) formula size — FO inside a `>>`
  // qualifier body keeps every enclosing instance it armed symbolic until
  // `</$>`, so its formula grows with them; OU may buffer undecided
  // candidates, and skips a sweep whole while it has none.
  const std::string_view base =
      transducer_name.substr(0, transducer_name.find('('));
  if (base == "IN") return "source, O(1)/control, documents free";
  if (base == "SP" || base == "JO") return "O(1)/control, documents free";
  if (base == "UN") return "or-merge O(|f|)/control, documents free";
  if (base == "IS") return "and-merge O(|f|)/control, documents free";
  if (base == "VF") return "filter O(|f|)/control, documents free";
  if (base == "VD") return "isolate O(|f|)/control, documents free";
  if (base == "CH" || base == "CL") return "O(1)/document, stack O(d)";
  if (base == "VC") return "O(1)/document, stack O(d), one var per match";
  if (base == "FO") return "O(1)/document, stack O(d), formula O(|f|)";
  if (base == "PR") return "O(1)/document, stack O(d), speculative O(|f|)";
  if (base == "OU") return "buffers undecided candidates, idle sweeps skipped";
  return "unclassified";
}

obs::ProfileReport BuildProfileReport(const Network& network,
                                      std::string query, int64_t events,
                                      const obs::ProfileAccumulator* profiler,
                                      int64_t formula_pool_high_water,
                                      int64_t formula_pool_allocs) {
  obs::ProfileReport report;
  report.query = std::move(query);
  report.events = events;
  report.formula_pool_high_water = formula_pool_high_water;
  report.formula_pool_allocs = formula_pool_allocs;
  report.timed = profiler != nullptr;
  report.total_self_ns = profiler != nullptr ? profiler->total_self_ns() : 0;
  report.nodes.reserve(static_cast<size_t>(network.node_count()));
  for (int i = 0; i < network.node_count(); ++i) {
    const Transducer* t = network.node(i);
    obs::ProfileNode n;
    n.id = i;
    n.name = t->name();
    const NodeProvenance& prov = network.provenance(i);
    n.fragment = prov.fragment;
    n.span_begin = prov.span.begin;
    n.span_end = prov.span.end;
    n.cost_class = PredictCostClass(n.name);
    n.messages_in = t->stats().messages_in;
    n.messages_out = t->stats().messages_out;
    n.depth_stack_peak = t->stats().depth_stack_peak;
    n.condition_stack_peak = t->stats().condition_stack_peak;
    n.formula_nodes_peak = t->stats().formula_nodes_peak;
    if (const auto* ou = dynamic_cast<const OutputTransducer*>(t)) {
      n.buffered_events_peak = ou->output_stats().buffered_events_peak;
    }
    if (profiler != nullptr) {
      const obs::ProfileAccumulator::NodeCost& cost =
          profiler->nodes()[static_cast<size_t>(i)];
      n.deliveries = cost.deliveries;
      n.self_ns = cost.self_ns;
      n.total_ns = cost.self_ns;
      if (report.total_self_ns > 0) {
        n.time_share = static_cast<double>(cost.self_ns) /
                       static_cast<double>(report.total_self_ns);
      }
    }
    report.total_messages += n.messages_in;
    report.nodes.push_back(std::move(n));
  }
  for (int t = 0; t < network.tape_count(); ++t) {
    const Network::TapeInfo info = network.tape_info(t);
    if (info.producer_node == -1 || info.consumer_node == -1) continue;
    obs::ProfileEdge edge;
    edge.tape = t;
    edge.from = info.producer_node;
    edge.to = info.consumer_node;
    // Every producer writes each message to all of its wired ports (only SP
    // has two, and it duplicates), so the tape's traffic is the producer's
    // messages_out split evenly — exact, with no hot-path tape counters.
    const int degree = network.out_degree(info.producer_node);
    const int64_t out = network.node(info.producer_node)->stats().messages_out;
    edge.messages = degree > 0 ? out / degree : 0;
    report.edges.push_back(edge);
  }
  return report;
}

}  // namespace spex
