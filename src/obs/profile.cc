#include "obs/profile.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "obs/metrics.h"

namespace spex {
namespace obs {

namespace {

// Row order of the table renderers: hottest first when timed, network order
// otherwise (a static EXPLAIN has no times to sort by).
std::vector<const ProfileNode*> SortedRows(const ProfileReport& report) {
  std::vector<const ProfileNode*> rows;
  rows.reserve(report.nodes.size());
  for (const ProfileNode& n : report.nodes) rows.push_back(&n);
  if (report.timed) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const ProfileNode* a, const ProfileNode* b) {
                       return a->self_ns > b->self_ns;
                     });
  }
  return rows;
}

std::string Provenance(const ProfileNode& n) {
  std::string out = "`" + n.fragment + "`";
  if (n.span_begin != n.span_end) {
    out += " @[" + std::to_string(n.span_begin) + "," +
           std::to_string(n.span_end) + ")";
  }
  return out;
}

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  *out += buf;
}

}  // namespace

std::string ProfileReport::ToTable() const {
  std::string out;
  AppendF(&out,
          "PROFILE query=%s events=%lld messages=%lld self_time=%.3fms "
          "formula_pool_hw=%lld pool_allocs=%lld\n",
          query.c_str(), static_cast<long long>(events),
          static_cast<long long>(total_messages),
          static_cast<double>(total_self_ns) / 1e6,
          static_cast<long long>(formula_pool_high_water),
          static_cast<long long>(formula_pool_allocs));
  AppendF(&out, "%4s %-10s %10s %6s %10s %10s %7s %6s %6s %7s  %s\n", "id",
          "transducer", "self[us]", "share", "msgs_in", "msgs_out", "deliv",
          "depth^", "cond^", "fnodes^", "provenance");
  for (const ProfileNode* n : SortedRows(*this)) {
    AppendF(&out,
            "%4d %-10s %10.1f %5.1f%% %10lld %10lld %7lld %6lld %6lld "
            "%7lld  %s\n",
            n->id, n->name.c_str(), static_cast<double>(n->self_ns) / 1e3,
            n->time_share * 100.0, static_cast<long long>(n->messages_in),
            static_cast<long long>(n->messages_out),
            static_cast<long long>(n->deliveries),
            static_cast<long long>(n->depth_stack_peak),
            static_cast<long long>(n->condition_stack_peak),
            static_cast<long long>(n->formula_nodes_peak),
            Provenance(*n).c_str());
  }
  double share_sum = 0;
  int64_t in_sum = 0, out_sum = 0, deliveries = 0;
  for (const ProfileNode& n : nodes) {
    share_sum += n.time_share;
    in_sum += n.messages_in;
    out_sum += n.messages_out;
    deliveries += n.deliveries;
  }
  AppendF(&out, "%4s %-10s %10.1f %5.1f%% %10lld %10lld %7lld\n", "", "TOTAL",
          static_cast<double>(total_self_ns) / 1e3, share_sum * 100.0,
          static_cast<long long>(in_sum), static_cast<long long>(out_sum),
          static_cast<long long>(deliveries));
  return out;
}

std::string ProfileReport::ToExplainText() const {
  std::string out;
  AppendF(&out, "EXPLAIN query=%s transducers=%zu\n", query.c_str(),
          nodes.size());
  AppendF(&out, "%4s %-10s %-34s %s\n", "id", "transducer", "provenance",
          "predicted cost (per message / space, §V)");
  for (const ProfileNode& n : nodes) {
    AppendF(&out, "%4d %-10s %-34s %s\n", n.id, n.name.c_str(),
            Provenance(n).c_str(), n.cost_class.c_str());
  }
  AppendF(&out, "edges:\n");
  for (const ProfileEdge& e : edges) {
    AppendF(&out, "  t%-3d n%d -> n%d\n", e.tape, e.from, e.to);
  }
  return out;
}

std::string ProfileReport::ToJson() const {
  std::string out = "{\"query\": \"" + EscapeJson(query) + "\"";
  AppendF(&out,
          ", \"events\": %lld, \"total_messages\": %lld, "
          "\"total_self_ns\": %lld, \"formula_pool_high_water\": %lld, "
          "\"formula_pool_allocs\": %lld, \"timed\": %s, \"nodes\": [",
          static_cast<long long>(events),
          static_cast<long long>(total_messages),
          static_cast<long long>(total_self_ns),
          static_cast<long long>(formula_pool_high_water),
          static_cast<long long>(formula_pool_allocs),
          timed ? "true" : "false");
  bool first = true;
  for (const ProfileNode& n : nodes) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"id\": " + std::to_string(n.id) + ", \"name\": \"" +
           EscapeJson(n.name) + "\", \"fragment\": \"" +
           EscapeJson(n.fragment) + "\"";
    AppendF(&out,
            ", \"span\": [%u, %u], \"cost_class\": \"%s\", "
            "\"deliveries\": %lld, \"messages_in\": %lld, "
            "\"messages_out\": %lld, \"self_ns\": %lld, \"total_ns\": %lld, "
            "\"time_share\": %.6f, \"depth_stack_peak\": %lld, "
            "\"condition_stack_peak\": %lld, \"formula_nodes_peak\": %lld, "
            "\"buffered_events_peak\": %lld}",
            n.span_begin, n.span_end, EscapeJson(n.cost_class).c_str(),
            static_cast<long long>(n.deliveries),
            static_cast<long long>(n.messages_in),
            static_cast<long long>(n.messages_out),
            static_cast<long long>(n.self_ns),
            static_cast<long long>(n.total_ns), n.time_share,
            static_cast<long long>(n.depth_stack_peak),
            static_cast<long long>(n.condition_stack_peak),
            static_cast<long long>(n.formula_nodes_peak),
            static_cast<long long>(n.buffered_events_peak));
  }
  out += "\n], \"edges\": [";
  first = true;
  for (const ProfileEdge& e : edges) {
    if (!first) out += ",";
    first = false;
    AppendF(&out,
            "\n  {\"tape\": %d, \"from\": %d, \"to\": %d, \"messages\": %lld}",
            e.tape, e.from, e.to, static_cast<long long>(e.messages));
  }
  out += "\n]}\n";
  return out;
}

}  // namespace obs
}  // namespace spex
