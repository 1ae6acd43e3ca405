// Multi-query evaluation with common-subexpression sharing — the paper's §IX
// outlook ("A single transducer network can be used for processing several
// queries having common subparts.  Such a multi-query processor could be a
// corner stone of efficient XSLT and XQuery implementations") and the
// YFilter-style sharing discussed in §VIII, generalized from prefix tries to
// a merged DAG (DESIGN.md §14).
//
// Queries are decomposed into their step chains — top-level concatenation
// steps *and* qualifier sandwiches (`a[b].c` is the three steps `a`, `[b]`,
// `c`) — and hash-consed into a stream graph keyed by (input stream,
// canonical step text).  Any two queries whose chains share a canonical
// step-path share its compiled sub-network: identical CH/CL chains, closure
// loops and whole qualifier sandwiches anywhere in the population are
// compiled exactly once, with splits fanning each shared stream out to its
// consumers and a per-query OU collector at every chain end.
//
//   MultiQueryEngine mq;
//   int a = mq.AddQuery("_*.item[urgent].headline", &sink_a).value();
//   int b = mq.AddQuery("_*.item[urgent].body", &sink_b).value();
//   // a and b share the `_*` spine AND the `[urgent]` sandwich.
//   mq.Finalize();
//   ... feed StreamEvents ...
//
// MultiQueryTemplate is the population-level analogue of QueryTemplate
// (DESIGN.md §9): the immutable, shareable artifact of admitting a whole
// query set, keyed by a digest of the sorted canonical texts so
// CompiledQueryCache can share it across sessions (see
// runtime/query_cache.h::GetMulti).

#ifndef SPEX_SPEX_MULTI_QUERY_H_
#define SPEX_SPEX_MULTI_QUERY_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "rpeq/ast.h"
#include "spex/compiler.h"
#include "spex/engine.h"

namespace spex {

class MultiQueryTemplate;

// The population front-end: hash-conses the registered queries into one
// shared network and hands it to the run core (spex/run_core.h) with one
// output collector per query — slot i is query id i.  Feeding, governance,
// sealing, observability and stats are the core's, exactly as for
// SpexEngine.
class MultiQueryEngine : public RunCore {
 public:
  explicit MultiQueryEngine(EngineOptions options = {});
  // Instantiates a pre-built population template (shared across sessions
  // through runtime/query_cache.h).  `slot_sinks` must have one sink per
  // template slot (sorted-canonical order; query id i == slot i).  The
  // engine arrives finalized: feed events immediately.
  MultiQueryEngine(const MultiQueryTemplate& mq_template,
                   const std::vector<ResultSink*>& slot_sinks,
                   EngineOptions options = {});
  MultiQueryEngine(std::shared_ptr<const MultiQueryTemplate> mq_template,
                   const std::vector<ResultSink*>& slot_sinks,
                   EngineOptions options = {})
      : MultiQueryEngine(*mq_template, slot_sinks, std::move(options)) {}

  // Registers a query (cloned); returns its id.  kMalformedInput when the
  // query fails ValidateQuery; kFailedPrecondition after Finalize().
  StatusOr<int> AddQuery(const Expr& query, ResultSink* sink);
  // As above from rpeq text; parse errors are kMalformedInput, never abort.
  StatusOr<int> AddQuery(const std::string& query_text, ResultSink* sink);

  // Compiles the shared network and starts the run.  No more queries can be
  // added afterwards; feed events only after this.
  void Finalize();
  bool finalized() const { return finalized_; }

  int query_count() const { return static_cast<int>(queries_.size()); }

  // Degree of the shared network vs. the sum of the degrees the queries
  // would have as separate networks — the §IX sharing win.  naive_degree()
  // trial-compiles each query on first call (cached; engines built from a
  // MultiQueryTemplate inherit the template's precomputed value).
  int shared_degree() const { return network().node_count(); }
  int naive_degree() const;

 private:
  // One decomposition step of a query chain: a plain sub-expression, or a
  // qualifier body (compiled as the VC..JO sandwich of C[[q]]).
  struct Step {
    const Expr* expr = nullptr;
    bool qualifier = false;
  };

  // One hash-consed logical stream of the merged DAG: the output of `step`
  // applied to its parent stream.  Streams are created in registration
  // order, so a child's id is always greater than its parent's — ascending
  // id order is a valid (topological) compile order.
  struct StreamNode {
    ExprPtr step;                // owned clone; null for the root stream
    bool is_qualifier = false;   // compile via CompileQualifier
    std::vector<int> children;   // child stream ids, creation order
    std::vector<int> query_ends; // queries whose chain ends here
  };

  struct RegisteredQuery {
    ExprPtr query;
    ResultSink* sink = nullptr;
  };

  // Flattens a query into its step chain: concat steps left-to-right, a
  // qualified base into base-steps followed by a `[body]` qualifier step.
  static void FlattenSteps(const Expr& e, std::vector<Step>* out);

  // streams_[0] is the root (the IN tape); memo_ hash-conses children by
  // (parent stream id, canonical step text).
  std::vector<StreamNode> streams_;
  std::map<std::pair<int, std::string>, int> memo_;
  std::vector<RegisteredQuery> queries_;
  mutable int naive_degree_ = -1;  // lazily computed (see naive_degree())
  bool finalized_ = false;
};

// ---------------------------------------------------------------------------
// Population template (concurrent runtime, DESIGN.md §9/§14).
//
// The immutable, shareable artifact of admitting a whole query population:
// every member parsed, validated and canonicalized once, deduplicated into
// sorted canonical "slots", and trial-compiled for the sharing degrees.  A
// template holds no run state, so one instance may be shared, via
// shared_ptr, across any number of threads; runtime/query_cache.h caches it
// under digest() so equal populations (any order, any spelling) build once.
class MultiQueryTemplate : public SlotTemplate {
 public:
  // Parses, validates and canonicalizes every query.  kMalformedInput names
  // the first offending query.  Duplicate canonical texts collapse into one
  // slot (their matches are identical by definition).
  static StatusOr<std::shared_ptr<const MultiQueryTemplate>> Build(
      const std::vector<std::string>& query_texts);

  // The cache key of `query_texts` — the digest Build would give them —
  // without the trial compile.  Sorted-canonical-set FNV-1a, so spelling
  // variants and registration order fold onto one key.
  static StatusOr<std::string> CanonicalDigest(
      const std::vector<std::string>& query_texts);

  // Number of queries handed to Build (before dedup).
  int input_count() const { return static_cast<int>(input_to_slot_.size()); }
  // Distinct canonical queries, in sorted canonical order.
  int slot_count() const override {
    return static_cast<int>(slot_texts_.size());
  }
  // Which slot Build's i-th input query landed in.
  int slot_of(int input_index) const { return input_to_slot_[input_index]; }
  const Expr& slot_expr(int slot) const { return *slot_exprs_[slot]; }
  const std::string& slot_text(int slot) const override {
    return slot_texts_[slot];
  }
  // "multi:<digest>[<slots>]".
  const std::string& label() const override { return label_; }
  // A MultiQueryEngine over the slots (one sink per slot).
  std::unique_ptr<RunCore> Instantiate(
      const std::vector<ResultSink*>& slot_sinks,
      EngineOptions options) const override;

  // FNV-1a 64-bit hex digest over the sorted canonical texts.
  const std::string& digest() const { return digest_; }

  // Sharing degrees of the population, from a trial compile at Build time
  // (Engines built from this template inherit them — no per-session trial).
  int shared_degree() const { return shared_degree_; }
  int naive_degree() const { return naive_degree_; }

 private:
  MultiQueryTemplate() = default;

  std::vector<ExprPtr> slot_exprs_;       // sorted canonical order
  std::vector<std::string> slot_texts_;   // sorted canonical texts
  std::vector<int> input_to_slot_;
  std::string digest_;
  std::string label_;
  int shared_degree_ = 0;
  int naive_degree_ = 0;
};

}  // namespace spex

#endif  // SPEX_SPEX_MULTI_QUERY_H_
