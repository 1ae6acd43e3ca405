// Translation of rpeq expressions into SPEX networks (paper §III.9,
// denotational semantics C of Fig. 11).  The translation is compositional
// and runs in time linear in the size of the expression (Lemma V.1); the
// resulting network degree is likewise linear.

#ifndef SPEX_SPEX_COMPILER_H_
#define SPEX_SPEX_COMPILER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rpeq/ast.h"
#include "spex/network.h"
#include "spex/output_transducer.h"

namespace spex {

// Incremental network construction: implements the function C of Fig. 11
// plus the plumbing (IN source, OU sinks, splits) needed by the plain-rpeq
// front end and the conjunctive-query translation T of Fig. 16.
class NetworkBuilder {
 public:
  // Both pointers must outlive the builder and the built network.
  NetworkBuilder(Network* network, RunContext* context);

  // Adds the input transducer; returns its output tape.  `prov`, when
  // given, becomes the node's query provenance (typically the whole query).
  int AddInput(const Expr* prov = nullptr);
  int input_node() const { return input_node_; }

  // C[expr]: extends the network reading from `in_tape`; returns the tape
  // carrying the construct's output.  Every node added is stamped with the
  // provenance of the sub-expression it implements (Expr::span).
  int CompileExpr(const Expr& expr, int in_tape);

  // C[[q]]: wraps `q` as a qualifier (VC ; SP ; C[q] ; VF+ ; VD ; JO).
  int CompileQualifier(const Expr& q, int in_tape);

  // Adds a split reading `in_tape`; returns its two output tapes.
  std::pair<int, int> AddSplit(int in_tape, const Expr* prov = nullptr);

  // Attaches an output transducer (sink) to `in_tape`.
  OutputTransducer* AddOutput(int in_tape, ResultSink* sink,
                              const Expr* prov = nullptr);

 private:
  // Adds `t` reading `in_tape`; its output tape can activate the label set
  // `activates` (an index into sets_).
  int AddUnary(std::unique_ptr<Transducer> t, int in_tape, int activates,
               const Expr* prov);
  int AddJoin(int left, int right, const Expr* prov);
  // Stamps `prov`'s span and concrete syntax on the most recently added
  // node (no-op when prov is null, e.g. hand-built multi-query plumbing).
  void NoteProvenance(int node, const Expr* prov);

  // The start tags an activation on a tape can precede — every producer
  // activates only elements its step selects, right before their start
  // tags — are tracked per tape as an index into sets_, where equal sets
  // share an entry: the base selection a qualifier compiled on the tape
  // opens its instance scopes at.
  enum : int { kNoLabels = 0, kAnyElement = 1, kDocumentRoot = 2 };
  int ElementSet(const std::string& label, bool wildcard);
  int UnionSet(int a, int b);
  void SetActivates(int tape, int set);
  int Activates(int tape) const {
    return activates_[static_cast<size_t>(tape)];
  }

  Network* network_;
  RunContext* context_;
  int input_node_ = -1;
  uint32_t next_qualifier_id_ = 0;
  // Ids of the qualifiers whose body is being compiled, innermost last.
  std::vector<uint32_t> enclosing_qualifiers_;
  std::vector<LabelSet> sets_;
  std::vector<int> element_sets_;  // by label Symbol, -1 = none yet
  std::vector<int> activates_;     // by tape id
};

// A compiled query: the network plus handles to its source and sink.
struct CompiledNetwork {
  Network network;
  int input_node = -1;                 // the IN transducer (inject here)
  OutputTransducer* output = nullptr;  // owned by `network`
};

// ---------------------------------------------------------------------------
// Template / instance split (concurrent runtime, DESIGN.md §9).

class RunCore;

// The slot view of an immutable, shareable compiled-query artifact: all the
// engine pool, the query cache and the wire server need of one.  A single
// query (QueryTemplate) is one slot; a population (MultiQueryTemplate,
// spex/multi_query.h) has one slot per distinct canonical query.  Templates
// hold no run state, so one instance may be shared, via shared_ptr, across
// any number of threads; runtime/query_cache.h is the canonical owner.
class SlotTemplate {
 public:
  SlotTemplate() = default;
  SlotTemplate(const SlotTemplate&) = delete;
  SlotTemplate& operator=(const SlotTemplate&) = delete;
  virtual ~SlotTemplate() = default;

  virtual int slot_count() const = 0;
  // Canonical text of slot `slot` — the query registry's key.
  virtual const std::string& slot_text(int slot) const = 0;
  // Session label: the canonical text of a single query,
  // "multi:<digest>[<slots>]" for a population.
  virtual const std::string& label() const = 0;
  // A fresh run delivering slot s's results to slot_sinks[s] (one sink per
  // slot; the sinks must outlive the run).  Only re-runs the linear-time
  // translation of Lemma V.1 against a fresh per-run context — cheap enough
  // to do per session, which keeps every run's transducer state, symbol
  // table and formula arena private to the worker thread that owns the
  // session (see base/thread_check.h).  Safe to call concurrently.
  virtual std::unique_ptr<RunCore> Instantiate(
      const std::vector<ResultSink*>& slot_sinks,
      EngineOptions options) const = 0;
};

// The admission artifact of one query: the snapshotted expression, its
// canonical text, validation already done, and the degree of the network it
// instantiates (a SpexEngine; defined in engine.cc).
class QueryTemplate : public SlotTemplate {
 public:
  // Validates and snapshots `query` (deep copy).  Returns null and fills
  // *error when the query violates the compile-time restrictions of the
  // extended language (see ValidateQuery).
  static std::shared_ptr<const QueryTemplate> Build(const Expr& query,
                                                    std::string* error);

  const Expr& expr() const { return *expr_; }
  // Round-trip concrete syntax — the cache's canonical key: any two query
  // strings parsing to structurally equal ASTs share it.
  const std::string& canonical_text() const { return canonical_text_; }
  // Degree of the instantiated network (Def. 3 degree + IN/OU), from a
  // trial compile at Build time; a plan property useful for cache
  // introspection and admission control before any run exists.
  int network_degree() const { return network_degree_; }

  int slot_count() const override { return 1; }
  const std::string& slot_text(int) const override { return canonical_text_; }
  const std::string& label() const override { return canonical_text_; }
  std::unique_ptr<RunCore> Instantiate(
      const std::vector<ResultSink*>& slot_sinks,
      EngineOptions options) const override;

 private:
  QueryTemplate() = default;

  ExprPtr expr_;
  std::string canonical_text_;
  int network_degree_ = 0;
};

// Builds the SPEX network IN -> C[expr] -> OU.  `context` provides the
// variable allocator, options and the global assignment; it must outlive the
// returned network.  Results are delivered to `sink`.
CompiledNetwork CompileToNetwork(const Expr& expr, ResultSink* sink,
                                 RunContext* context);

// Checks the compile-time restrictions of the extended language: inside a
// qualifier body, a preceding step (`<<label`) may only appear in tail
// position and may not itself carry qualifiers (the body match must be the
// structural fact "some matching element closed before the context", which
// is what the evidence-mode preceding transducer provides).  Returns true
// if `expr` compiles; otherwise fills *error.
bool ValidateQuery(const Expr& expr, std::string* error);

}  // namespace spex

#endif  // SPEX_SPEX_COMPILER_H_
