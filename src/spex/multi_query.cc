#include "spex/multi_query.h"

#include <algorithm>
#include <cassert>

#include "rpeq/parser.h"

namespace spex {

namespace {

// FNV-1a 64-bit over the sorted canonical texts, one '\n' terminator per
// entry so {"a","bc"} and {"ab","c"} cannot collide by concatenation.
std::string DigestOfSorted(const std::vector<std::string>& sorted_texts) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const std::string& text : sorted_texts) {
    for (char c : text) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

}  // namespace

MultiQueryEngine::MultiQueryEngine(EngineOptions options)
    : RunCore(std::move(options)) {
  streams_.emplace_back();  // root stream: the IN tape
}

MultiQueryEngine::MultiQueryEngine(const MultiQueryTemplate& mq_template,
                                   const std::vector<ResultSink*>& slot_sinks,
                                   EngineOptions options)
    : MultiQueryEngine(std::move(options)) {
  assert(slot_sinks.size() == static_cast<size_t>(mq_template.slot_count()) &&
         "one sink per template slot");
  for (int slot = 0; slot < mq_template.slot_count(); ++slot) {
    StatusOr<int> id = AddQuery(mq_template.slot_expr(slot), slot_sinks[slot]);
    assert(id.ok() && id.value() == slot);
    (void)id;
  }
  // The template trial-compiled the population once; inherit the degrees so
  // per-session instantiation never re-runs N scratch compiles.
  naive_degree_ = mq_template.naive_degree();
  Finalize();
}

void MultiQueryEngine::FlattenSteps(const Expr& e, std::vector<Step>* out) {
  switch (e.kind) {
    case ExprKind::kConcat:
      FlattenSteps(*e.left, out);
      FlattenSteps(*e.right, out);
      break;
    case ExprKind::kQualified:
      // base[q] decomposes into base's steps followed by a `[q]` qualifier
      // step, so populations sharing a base *and* a qualifier sandwich
      // (`a[b].c` / `a[b].d`) share both compiled pieces.
      FlattenSteps(*e.left, out);
      out->push_back({e.right.get(), true});
      break;
    default:
      out->push_back({&e, false});
      break;
  }
}

StatusOr<int> MultiQueryEngine::AddQuery(const Expr& query, ResultSink* sink) {
  if (finalized_) {
    return Status::FailedPrecondition(
        "AddQuery after Finalize(): the shared network is already compiled");
  }
  std::string error;
  if (!ValidateQuery(query, &error)) {
    return Status::MalformedInput("invalid query: " + error);
  }
  int id = static_cast<int>(queries_.size());
  RegisteredQuery rq;
  rq.query = query.Clone();
  rq.sink = sink;
  queries_.push_back(std::move(rq));

  // Hash-cons the query's step chain into the stream graph: an existing
  // (parent stream, canonical step) pair is reused, anything else opens a
  // new stream under its parent.
  std::vector<Step> steps;
  FlattenSteps(*queries_.back().query, &steps);
  int current = 0;  // root stream
  for (const Step& step : steps) {
    std::string key = step.qualifier ? "[" + step.expr->ToString() + "]"
                                     : step.expr->ToString();
    auto it = memo_.find({current, key});
    if (it == memo_.end()) {
      int stream_id = static_cast<int>(streams_.size());
      StreamNode node;
      node.step = step.expr->Clone();
      node.is_qualifier = step.qualifier;
      streams_.push_back(std::move(node));
      streams_[current].children.push_back(stream_id);
      it = memo_.emplace(std::make_pair(current, std::move(key)), stream_id)
               .first;
    }
    current = it->second;
  }
  streams_[current].query_ends.push_back(id);
  naive_degree_ = -1;  // population changed; recompute on demand
  return id;
}

StatusOr<int> MultiQueryEngine::AddQuery(const std::string& query_text,
                                         ResultSink* sink) {
  ParseResult parsed = ParseRpeq(query_text);
  if (!parsed.ok()) {
    return Status::MalformedInput("query '" + query_text +
                                  "': " + parsed.error);
  }
  return AddQuery(*parsed.expr, sink);
}

int MultiQueryEngine::naive_degree() const {
  if (naive_degree_ >= 0) return naive_degree_;
  // The degree the population would have as separate networks: a scratch
  // trial compile per query, off the hot path (first call only).
  int total = 0;
  for (const RegisteredQuery& rq : queries_) {
    RunContext scratch;
    CountingResultSink scratch_sink;
    CompiledNetwork net = CompileToNetwork(*rq.query, &scratch_sink, &scratch);
    total += net.network.node_count();
  }
  naive_degree_ = total;
  return naive_degree_;
}

void MultiQueryEngine::Finalize() {
  assert(!finalized_);
  finalized_ = true;
  Network network;
  NetworkBuilder builder(&network, &context());
  std::vector<OutputTransducer*> outputs(queries_.size(), nullptr);
  // tape[s]: the output tape of stream s.  Ascending stream-id order is a
  // valid insertion order for Network::AddNode (a child stream's id is
  // always greater than its parent's, and the child's step nodes are added
  // while visiting the parent — reading tapes that already exist).
  std::vector<int> tape(streams_.size(), -1);
  tape[0] = builder.AddInput();
  for (size_t s = 0; s < streams_.size(); ++s) {
    StreamNode& node = streams_[s];
    // Consumers of this stream's tape: one OU per ending query plus one per
    // child step.  Fan out with a chain of splits (none for one consumer).
    const int consumers = static_cast<int>(node.query_ends.size()) +
                          static_cast<int>(node.children.size());
    std::vector<int> tapes;
    int current = tape[s];
    for (int i = 0; i + 1 < consumers; ++i) {
      auto [t1, t2] = builder.AddSplit(current);
      tapes.push_back(t1);
      current = t2;
    }
    if (consumers > 0) tapes.push_back(current);
    size_t next = 0;
    for (int query_id : node.query_ends) {
      outputs[query_id] =
          builder.AddOutput(tapes[next++], queries_[query_id].sink,
                            queries_[query_id].query.get());
    }
    for (int child_id : node.children) {
      StreamNode& child = streams_[child_id];
      tape[child_id] =
          child.is_qualifier
              ? builder.CompileQualifier(*child.step, tapes[next++])
              : builder.CompileExpr(*child.step, tapes[next++]);
    }
  }
  Start(std::move(network), builder.input_node(), std::move(outputs),
        "multi[" + std::to_string(queries_.size()) + "]");
}

// ---------------------------------------------------------------------------
// MultiQueryTemplate

namespace {

// Parses + validates every text; fills canonical texts (per input) or
// returns the first failure.
Status CanonicalizeAll(const std::vector<std::string>& query_texts,
                       std::vector<ExprPtr>* exprs,
                       std::vector<std::string>* canonical) {
  exprs->reserve(query_texts.size());
  canonical->reserve(query_texts.size());
  for (size_t i = 0; i < query_texts.size(); ++i) {
    ParseResult parsed = ParseRpeq(query_texts[i]);
    if (!parsed.ok()) {
      return Status::MalformedInput("query " + std::to_string(i) + " '" +
                                    query_texts[i] + "': " + parsed.error);
    }
    std::string error;
    if (!ValidateQuery(*parsed.expr, &error)) {
      return Status::MalformedInput("query " + std::to_string(i) + " '" +
                                    query_texts[i] + "': " + error);
    }
    canonical->push_back(parsed.expr->ToString());
    exprs->push_back(std::move(parsed.expr));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::string> MultiQueryTemplate::CanonicalDigest(
    const std::vector<std::string>& query_texts) {
  std::vector<ExprPtr> exprs;
  std::vector<std::string> canonical;
  Status status = CanonicalizeAll(query_texts, &exprs, &canonical);
  if (!status.ok()) return status;
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());
  return DigestOfSorted(canonical);
}

StatusOr<std::shared_ptr<const MultiQueryTemplate>> MultiQueryTemplate::Build(
    const std::vector<std::string>& query_texts) {
  std::vector<ExprPtr> exprs;
  std::vector<std::string> canonical;
  Status status = CanonicalizeAll(query_texts, &exprs, &canonical);
  if (!status.ok()) return status;

  auto tpl = std::shared_ptr<MultiQueryTemplate>(new MultiQueryTemplate());
  // Slots: the sorted canonical set.  Sorting makes the slot order (and the
  // compiled node order, and the digest) a function of the *set* alone —
  // registration order and spelling variants fold away.
  tpl->slot_texts_ = canonical;
  std::sort(tpl->slot_texts_.begin(), tpl->slot_texts_.end());
  tpl->slot_texts_.erase(
      std::unique(tpl->slot_texts_.begin(), tpl->slot_texts_.end()),
      tpl->slot_texts_.end());
  tpl->digest_ = DigestOfSorted(tpl->slot_texts_);
  tpl->label_ = "multi:" + tpl->digest_ + "[" +
                std::to_string(tpl->slot_texts_.size()) + "]";
  tpl->slot_exprs_.resize(tpl->slot_texts_.size());
  tpl->input_to_slot_.resize(query_texts.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    const auto it = std::lower_bound(tpl->slot_texts_.begin(),
                                     tpl->slot_texts_.end(), canonical[i]);
    const int slot = static_cast<int>(it - tpl->slot_texts_.begin());
    tpl->input_to_slot_[i] = slot;
    if (tpl->slot_exprs_[slot] == nullptr) {
      tpl->slot_exprs_[slot] = std::move(exprs[i]);
    }
  }

  // Trial compile for the sharing degrees, once per template: a scratch
  // engine over the slots, exactly what instantiation will build.
  {
    MultiQueryEngine scratch;
    std::vector<std::unique_ptr<CountingResultSink>> sinks;
    for (int slot = 0; slot < tpl->slot_count(); ++slot) {
      sinks.push_back(std::make_unique<CountingResultSink>());
      StatusOr<int> id =
          scratch.AddQuery(*tpl->slot_exprs_[slot], sinks.back().get());
      assert(id.ok());
      (void)id;
    }
    tpl->naive_degree_ = scratch.naive_degree();
    scratch.Finalize();
    tpl->shared_degree_ = scratch.shared_degree();
  }
  return std::shared_ptr<const MultiQueryTemplate>(std::move(tpl));
}

std::unique_ptr<RunCore> MultiQueryTemplate::Instantiate(
    const std::vector<ResultSink*>& slot_sinks, EngineOptions options) const {
  return std::make_unique<MultiQueryEngine>(*this, slot_sinks,
                                            std::move(options));
}

}  // namespace spex
