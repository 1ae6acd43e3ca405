// Condition formulas (paper Def. 2 and §V).
//
// A condition formula is built from condition variables (one per qualifier
// *instance*) with conjunction and disjunction.  Activation messages carry
// formulas; the output transducer decides a candidate once its formula is
// determined under the (monotone) assignment built from condition
// determination messages {c,v}.
//
// Formulas are immutable DAGs with structure sharing: the closure transducer
// builds `f1 OR f2` where f1 and f2 share almost all structure (Fig. 3 rule
// 12), so sharing keeps the per-entry cost O(1) — this is exactly the
// factored representation of Remark V.1.  A flattened DNF size (the paper's
// sigma under full expansion) can be computed for the ablation experiment E7.
//
// Memory discipline (see DESIGN.md "Hot path & memory discipline"): nodes
// are allocated from a thread-local pool (chunked, with a free list) and
// carry an intrusive non-atomic refcount, so copying a Formula is two plain
// stores and building And/Or never touches the global allocator in steady
// state.  Evaluate/NodeCount/Variables walk the DAG with an epoch mark baked
// into each node instead of per-call hash sets.  The pool is thread-local:
// a Formula must not be shared across threads (the engine is single-threaded
// per run by design, §III "one message in the network at a time").

#ifndef SPEX_SPEX_FORMULA_H_
#define SPEX_SPEX_FORMULA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace spex {

// Identifies a condition variable: the qualifier it instantiates (high bits)
// and a per-run counter (low bits).
using VarId = uint64_t;

constexpr int kVarQualifierShift = 40;

constexpr VarId MakeVarId(uint32_t qualifier_id, uint64_t counter) {
  return (static_cast<VarId>(qualifier_id) << kVarQualifierShift) | counter;
}
constexpr uint32_t VarQualifier(VarId id) {
  return static_cast<uint32_t>(id >> kVarQualifierShift);
}
constexpr uint64_t VarCounter(VarId id) {
  return id & ((VarId{1} << kVarQualifierShift) - 1);
}

// Human-readable name, e.g. "co2_5" = 5th instance of qualifier 2.
std::string VarName(VarId id);

// Truth value under a partial assignment.
enum class Truth : uint8_t { kFalse, kTrue, kUnknown };

// Monotone partial assignment of condition variables: the first
// determination of a variable binds it; later ones are ignored (this
// resolves the VD {c,true} vs. VC-scope-exit {c,false} ordering, §III.10).
//
// Round stamps (DESIGN.md §11): a sweep may carry several rounds, so a
// transducer can run ahead of the ones downstream of it.  Every binding a
// transducer makes is stamped with its round (the 1-based index of the
// document message it is processing), and every read names the reader's
// round: a binding stamped later is invisible, so each reader sees the
// assignment one-round delivery would show it.  Bindings made outside a
// run (scratch assignments, stand-alone tests) carry kAnyRound and reads
// default to kLatest, i.e. plain monotone-assignment semantics.
//
// Implemented as a linear-probing flat table rather than unordered_map: the
// qualifier transducers bind/erase a variable per instance and build scratch
// assignments per activation, and a node-based map costs an allocation per
// insert on that path.  Clear() keeps the slot storage, tombstone purges
// rebuild into a retained ping-pong buffer, so in steady state Set/Erase
// never touch the global allocator.
class Assignment {
 public:
  // Stamp visible to every read.
  static constexpr int64_t kAnyRound = 0;
  // Read round that sees every binding.
  static constexpr int64_t kLatest = INT64_MAX;

  // Returns true if the variable was newly bound, false if already bound.
  bool Set(VarId var, bool value, int64_t round = kAnyRound);
  // The binding as of round `as_of`: kUnknown when unbound or stamped later.
  Truth Get(VarId var, int64_t as_of = kLatest) const;
  // Drops a variable's binding.  Used by the engine's end-of-round garbage
  // collection once an instance's scope has closed and no formula can
  // reference it any more (unbounded streams would otherwise leak).
  void Erase(VarId var);
  size_t size() const { return size_; }
  void Clear();
  bool empty() const { return size_ == 0; }

 private:
  enum : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
  struct Slot {
    VarId key = 0;
    int64_t round = kAnyRound;
    uint8_t state = kEmpty;
    bool value = false;
  };
  // Rebuilds the table, doubling the capacity when genuinely full (vs. just
  // tombstone-laden) and reusing `scratch_` as the target buffer.
  void Rehash();

  std::vector<Slot> slots_;    // power-of-two size (empty until first Set)
  std::vector<Slot> scratch_;  // retained rehash target (ping-pong)
  size_t size_ = 0;            // slots in state kFull
  size_t used_ = 0;            // slots in state kFull or kTombstone
};

namespace internal {

// One DAG node.  Lives in the thread-local pool (formula.cc); the struct is
// defined here only so Formula's copy/destroy fast paths inline — a Message
// is destroyed at every tape hop, and an out-of-line destructor call per hop
// dominated profiles.
struct FormulaNode {
  enum class Op : uint8_t { kVar, kAnd, kOr };

  Op op = Op::kVar;
  // Evaluate() memo, valid only while `mark` equals the walk's epoch.
  mutable Truth cached = Truth::kUnknown;
  // Intrusive refcount.  Non-atomic: formulas live in a thread-local pool
  // and must not cross threads (engine runs are single-threaded).
  mutable uint32_t refs = 0;
  VarId var = 0;
  const FormulaNode* left = nullptr;
  const FormulaNode* right = nullptr;
  // Epoch stamp: DAG walks (Evaluate, NodeCount, Variables, change
  // pre-checks) mark visited nodes with a fresh epoch instead of building a
  // per-call hash set, so the hot read paths never allocate.
  mutable uint64_t mark = 0;
#ifndef NDEBUG
  // Debug-only owner stamp: the thread-local pool that allocated this node.
  // Releasing (or combining) a node through another thread's pool would
  // corrupt both free lists; formula.cc aborts instead (SPEX_DCHECK_THREAD
  // discipline — see base/thread_check.h).
  const void* owner_pool = nullptr;
#endif
};

// Returns `node` (whose refcount has just reached zero) and every child it
// held the last reference to back to the thread-local pool.
void ReleaseFormulaNode(const FormulaNode* node);

}  // namespace internal

// An immutable boolean formula over condition variables.  Cheap to copy
// (intrusive refcount bump).  `true` and `false` are represented without
// nodes.
class Formula {
 public:
  // Constructs the constant `true` (the formula the input transducer sends).
  Formula() = default;

  Formula(const Formula& other) noexcept
      : node_(other.node_), const_value_(other.const_value_) {
    if (node_ != nullptr) ++node_->refs;
  }
  Formula& operator=(const Formula& other) {
    if (this != &other) {
      if (other.node_ != nullptr) ++other.node_->refs;
      Drop();
      node_ = other.node_;
      const_value_ = other.const_value_;
    }
    return *this;
  }
  Formula(Formula&& other) noexcept
      : node_(std::exchange(other.node_, nullptr)),
        const_value_(std::exchange(other.const_value_, true)) {}
  Formula& operator=(Formula&& other) noexcept {
    if (this != &other) {
      Drop();
      node_ = std::exchange(other.node_, nullptr);
      const_value_ = std::exchange(other.const_value_, true);
    }
    return *this;
  }
  ~Formula() { Drop(); }

  static Formula True();
  static Formula False();
  static Formula Var(VarId var);
  // Connectives, with constant folding and trivial-duplicate elimination
  // (the normalization of §III.4: `f OR f` collapses to `f`).
  static Formula And(const Formula& a, const Formula& b);
  static Formula Or(const Formula& a, const Formula& b);

  bool is_constant() const { return node_ == nullptr; }
  bool is_true() const { return node_ == nullptr && const_value_; }
  bool is_false() const { return node_ == nullptr && !const_value_; }

  // Three-valued evaluation under a partial assignment, as of round `as_of`
  // (see Assignment).
  Truth Evaluate(const Assignment& assignment,
                 int64_t as_of = Assignment::kLatest) const;

  // Rewrites the formula under the assignment, folding determined variables
  // away (the paper's update(c, v, beta) applied to the whole stack entry).
  // The variables of the qualifiers listed in `kept`, if given, stay
  // symbolic whatever their binding, and are not read.
  Formula Simplify(const Assignment& assignment,
                   int64_t as_of = Assignment::kLatest,
                   const std::vector<uint32_t>* kept = nullptr) const;

  // Like Simplify, but substitutes only variables determined *false* (prunes
  // dead disjuncts).  Variables determined true are kept symbolic: network
  // transducers must preserve them, because the variable filter / variable
  // determinant pair uses their presence to attribute a qualifier-body match
  // to the right instances (see qualifier_transducers.h).
  Formula PruneFalse(const Assignment& assignment,
                     int64_t as_of = Assignment::kLatest) const;

  // All distinct variables, in first-occurrence order.
  std::vector<VarId> Variables() const;
  // Distinct variables belonging to qualifier `qualifier_id`.
  std::vector<VarId> VariablesOfQualifier(uint32_t qualifier_id) const;
  // Allocation-free forms of the above: append to `out` (entries already in
  // `out` are treated as seen and not re-added), letting hot callers reuse a
  // scratch vector instead of materializing a fresh one per activation.
  void AppendVariables(std::vector<VarId>* out) const;
  void AppendVariablesOfQualifier(uint32_t qualifier_id,
                                  std::vector<VarId>* out) const;

  // Number of distinct DAG nodes (the factored size of Remark V.1).
  int64_t NodeCount() const;

  // Number of literal references after full DNF expansion, the paper's
  // sigma(phi) under the O(d^n) analysis of §V.  Expansion is capped at
  // `cap` literals; returns cap+1 if the cap would be exceeded.
  int64_t DnfLiteralCount(int64_t cap = 1 << 20) const;

  // Structural pointer-equality fast path (used for dedup).
  bool SameAs(const Formula& other) const {
    return node_ == other.node_ && const_value_ == other.const_value_;
  }

  // Renders e.g. "(co0_1|co0_2)&co1_0", "true".
  std::string ToString() const;

  // Nodes currently alive in this thread's formula pool.  A leak guard for
  // tests: after every engine on the thread is destroyed this returns 0.
  static int64_t LiveNodeCount();

  // Memo slots this thread's Simplify/PruneFalse rewrites have reset so far
  // — a work counter for tests: each rewrite resets the slots it filled,
  // never the memo's retained capacity.
  static int64_t SimplifyMemoSlotsCleared();

  // Accounting over this thread's formula pool (shared by all engines on
  // the thread): pool occupancy, its high-water mark, and total node
  // allocations ever made (the churn rate the observability registry
  // exposes as a per-run delta).
  struct PoolStats {
    int64_t live = 0;
    int64_t live_high_water = 0;
    int64_t allocated_total = 0;
  };
  static PoolStats GetPoolStats();

 private:
  // Takes ownership of one reference on `node`.
  explicit Formula(const internal::FormulaNode* node) : node_(node) {}
  explicit Formula(bool constant) : const_value_(constant) {}

  void Drop() {
    if (node_ != nullptr && --node_->refs == 0) {
      internal::ReleaseFormulaNode(node_);
    }
  }

  const internal::FormulaNode* node_ = nullptr;
  bool const_value_ = true;  // meaningful only when node_ == nullptr
};

// Allocates fresh condition-variable ids, one counter per qualifier.
class VariableAllocator {
 public:
  VarId Next(uint32_t qualifier_id) {
    uint64_t& counter = counters_[qualifier_id];
    return MakeVarId(qualifier_id, counter++);
  }
  void Reset() { counters_.clear(); }

 private:
  std::unordered_map<uint32_t, uint64_t> counters_;
};

}  // namespace spex

#endif  // SPEX_SPEX_FORMULA_H_
