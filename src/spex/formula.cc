#include "spex/formula.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <vector>

namespace spex {

using internal::FormulaNode;

namespace {

// Thread-local node pool: chunked storage plus a free list threaded through
// the `left` pointers of dead nodes.  Memory usage is bounded by the peak
// number of simultaneously live nodes (RunStats.max_formula_nodes tracks the
// per-message peak); chunks are never returned until thread exit, which is
// exactly the end-of-round reclamation discipline the engine wants — freeing
// a formula is O(dead nodes) pointer pushes, building one is O(1) pops.
class FormulaPool {
 public:
  FormulaNode* New() {
    ++allocated_total_;
    if (++live_ > live_high_water_) live_high_water_ = live_;
    if (free_list_ != nullptr) {
      FormulaNode* n = free_list_;
      free_list_ = const_cast<FormulaNode*>(n->left);
      n->op = FormulaNode::Op::kVar;
      n->refs = 1;
      n->var = 0;
      n->left = nullptr;
      n->right = nullptr;
#ifndef NDEBUG
      n->owner_pool = this;
#endif
      return n;
    }
    if (chunks_.empty() || next_in_chunk_ == kChunkNodes) {
      chunks_.push_back(std::make_unique<FormulaNode[]>(kChunkNodes));
      next_in_chunk_ = 0;
    }
    FormulaNode* n = &chunks_.back()[next_in_chunk_++];
    n->refs = 1;
#ifndef NDEBUG
    n->owner_pool = this;
#endif
    return n;
  }

  void Free(FormulaNode* n) {
    n->left = free_list_;
    free_list_ = n;
    --live_;
  }

  uint64_t NextEpoch() { return ++epoch_; }
  int64_t live() const { return live_; }
  int64_t live_high_water() const { return live_high_water_; }
  int64_t allocated_total() const { return allocated_total_; }
  std::vector<const FormulaNode*>& scratch() { return scratch_; }

 private:
  static constexpr size_t kChunkNodes = 1024;

  std::vector<std::unique_ptr<FormulaNode[]>> chunks_;
  size_t next_in_chunk_ = 0;
  FormulaNode* free_list_ = nullptr;
  int64_t live_ = 0;
  int64_t live_high_water_ = 0;
  int64_t allocated_total_ = 0;
  uint64_t epoch_ = 0;
  // Reused stack for iterative release (deep OR chains would overflow the
  // call stack if freed recursively).
  std::vector<const FormulaNode*> scratch_;
};

FormulaPool& Pool() {
  static thread_local FormulaPool pool;
  return pool;
}

inline void RefNode(const FormulaNode* n) {
  if (n != nullptr) ++n->refs;
}

// Debug-mode arena-affinity guard (SPEX_DCHECK_THREAD discipline, see
// base/thread_check.h): a node touched through a pool other than the one
// that allocated it means a Formula crossed threads — freeing or combining
// it here would thread another pool's node onto this pool's free list.
#ifndef NDEBUG
inline void CheckNodeOwnedByThisThread(const FormulaNode* n) {
  if (n != nullptr && n->owner_pool != &Pool()) {
    std::fprintf(stderr,
                 "SPEX_DCHECK_THREAD: spex::Formula node used from a thread "
                 "other than the one whose arena allocated it\n");
    std::abort();
  }
}
#else
inline void CheckNodeOwnedByThisThread(const FormulaNode*) {}
#endif

}  // namespace

namespace internal {

void ReleaseFormulaNode(const FormulaNode* node) {
  CheckNodeOwnedByThisThread(node);
  FormulaPool& pool = Pool();
  std::vector<const FormulaNode*>& stack = pool.scratch();
  stack.push_back(node);
  while (!stack.empty()) {
    const FormulaNode* dead = stack.back();
    stack.pop_back();
    if (dead->op != FormulaNode::Op::kVar) {
      if (--dead->left->refs == 0) stack.push_back(dead->left);
      if (--dead->right->refs == 0) stack.push_back(dead->right);
    }
    pool.Free(const_cast<FormulaNode*>(dead));
  }
}

}  // namespace internal

std::string VarName(VarId id) {
  return "co" + std::to_string(VarQualifier(id)) + "_" +
         std::to_string(VarCounter(id));
}

namespace {

// splitmix64 finalizer: VarIds are (qualifier << 40 | counter) with tiny
// counters, so identity hashing would pile every variable into a few
// buckets.
inline uint64_t HashVarId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

bool Assignment::Set(VarId var, bool value, int64_t round) {
  if ((used_ + 1) * 8 > slots_.size() * 7) Rehash();
  const size_t mask = slots_.size() - 1;
  size_t insert_at = slots_.size();  // sentinel: not found yet
  for (size_t i = HashVarId(var) & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.state == kFull) {
      if (s.key == var) return false;  // monotone: first binding wins
    } else if (s.state == kTombstone) {
      if (insert_at == slots_.size()) insert_at = i;  // reusable hole
    } else {  // kEmpty: the probe chain ends, the key is absent
      if (insert_at == slots_.size()) {
        insert_at = i;
        ++used_;  // claiming a fresh slot (reused tombstones stay counted)
      }
      break;
    }
  }
  Slot& s = slots_[insert_at];
  s.key = var;
  s.round = round;
  s.state = kFull;
  s.value = value;
  ++size_;
  return true;
}

Truth Assignment::Get(VarId var, int64_t as_of) const {
  if (size_ == 0) return Truth::kUnknown;
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashVarId(var) & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.state == kEmpty) return Truth::kUnknown;
    if (s.state == kFull && s.key == var) {
      if (s.round > as_of) return Truth::kUnknown;  // bound in a later round
      return s.value ? Truth::kTrue : Truth::kFalse;
    }
  }
}

void Assignment::Erase(VarId var) {
  if (size_ == 0) return;
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashVarId(var) & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.state == kEmpty) return;
    if (s.state == kFull && s.key == var) {
      s.state = kTombstone;  // keeps probe chains intact
      --size_;
      return;
    }
  }
}

void Assignment::Clear() {
  for (Slot& s : slots_) s.state = kEmpty;
  size_ = 0;
  used_ = 0;
}

void Assignment::Rehash() {
  size_t new_cap = slots_.empty() ? 16 : slots_.size();
  // Only grow when live entries (not tombstones) crowd the table; a
  // tombstone-laden table is rebuilt at the same capacity.
  if ((size_ + 1) * 4 > new_cap * 3) new_cap *= 2;
  scratch_.clear();
  scratch_.resize(new_cap);  // allocates only when growing past capacity
  const size_t mask = new_cap - 1;
  for (const Slot& s : slots_) {
    if (s.state != kFull) continue;
    size_t i = HashVarId(s.key) & mask;
    while (scratch_[i].state == kFull) i = (i + 1) & mask;
    scratch_[i] = s;
  }
  slots_.swap(scratch_);
  used_ = size_;
}

Formula Formula::True() { return Formula(true); }
Formula Formula::False() { return Formula(false); }

Formula Formula::Var(VarId var) {
  FormulaNode* node = Pool().New();
  node->op = FormulaNode::Op::kVar;
  node->var = var;
  return Formula(node);
}

Formula Formula::And(const Formula& a, const Formula& b) {
  if (a.is_false() || b.is_false()) return False();
  if (a.is_true()) return b;
  if (b.is_true()) return a;
  if (a.node_ == b.node_) return a;
  CheckNodeOwnedByThisThread(a.node_);
  CheckNodeOwnedByThisThread(b.node_);
  FormulaNode* node = Pool().New();
  node->op = FormulaNode::Op::kAnd;
  node->left = a.node_;
  node->right = b.node_;
  RefNode(a.node_);
  RefNode(b.node_);
  return Formula(node);
}

Formula Formula::Or(const Formula& a, const Formula& b) {
  if (a.is_true() || b.is_true()) return True();
  if (a.is_false()) return b;
  if (b.is_false()) return a;
  if (a.node_ == b.node_) return a;
  CheckNodeOwnedByThisThread(a.node_);
  CheckNodeOwnedByThisThread(b.node_);
  FormulaNode* node = Pool().New();
  node->op = FormulaNode::Op::kOr;
  node->left = a.node_;
  node->right = b.node_;
  RefNode(a.node_);
  RefNode(b.node_);
  return Formula(node);
}

int64_t Formula::LiveNodeCount() { return Pool().live(); }

Formula::PoolStats Formula::GetPoolStats() {
  const FormulaPool& pool = Pool();
  return {pool.live(), pool.live_high_water(), pool.allocated_total()};
}

namespace {

Truth EvaluateRec(const FormulaNode* n, const Assignment& assignment,
                  int64_t as_of, uint64_t epoch) {
  if (n->mark == epoch) return n->cached;
  Truth result = Truth::kUnknown;
  switch (n->op) {
    case FormulaNode::Op::kVar:
      result = assignment.Get(n->var, as_of);
      break;
    case FormulaNode::Op::kAnd: {
      Truth l = EvaluateRec(n->left, assignment, as_of, epoch);
      if (l == Truth::kFalse) {
        result = Truth::kFalse;
      } else {
        Truth r = EvaluateRec(n->right, assignment, as_of, epoch);
        if (r == Truth::kFalse) {
          result = Truth::kFalse;
        } else if (l == Truth::kTrue && r == Truth::kTrue) {
          result = Truth::kTrue;
        } else {
          result = Truth::kUnknown;
        }
      }
      break;
    }
    case FormulaNode::Op::kOr: {
      Truth l = EvaluateRec(n->left, assignment, as_of, epoch);
      if (l == Truth::kTrue) {
        result = Truth::kTrue;
      } else {
        Truth r = EvaluateRec(n->right, assignment, as_of, epoch);
        if (r == Truth::kTrue) {
          result = Truth::kTrue;
        } else if (l == Truth::kFalse && r == Truth::kFalse) {
          result = Truth::kFalse;
        } else {
          result = Truth::kUnknown;
        }
      }
      break;
    }
  }
  n->mark = epoch;
  n->cached = result;
  return result;
}

// What a rewrite substitutes for a variable: its binding as of `as_of` —
// except that PruneFalse keeps variables bound true symbolic, and that the
// variables of the `kept` qualifiers stay symbolic whatever their binding
// (they are not even read).
struct Substitution {
  const Assignment& assignment;
  int64_t as_of;
  bool prune_false_only;
  const std::vector<uint32_t>* kept;

  Truth Of(VarId var) const {
    if (kept != nullptr && std::find(kept->begin(), kept->end(),
                                     VarQualifier(var)) != kept->end()) {
      return Truth::kUnknown;
    }
    const Truth t = assignment.Get(var, as_of);
    return prune_false_only && t == Truth::kTrue ? Truth::kUnknown : t;
  }
};

// True if rewriting under `sub` would change the formula: some reachable
// variable is substituted.  Marks visited nodes so shared subtrees are
// checked once.
bool AnyBoundRec(const FormulaNode* n, const Substitution& sub,
                 uint64_t epoch) {
  if (n->mark == epoch) return false;
  n->mark = epoch;
  if (n->op == FormulaNode::Op::kVar) return sub.Of(n->var) != Truth::kUnknown;
  return AnyBoundRec(n->left, sub, epoch) || AnyBoundRec(n->right, sub, epoch);
}

// Reusable pointer-keyed memo for SimplifyRec.  A fresh unordered_map per
// Simplify call costs a bucket array plus a node per entry — per activation
// on the qualifier path.  This flat table is thread-local and cleared (with
// capacity retained) after each rewrite, so steady-state simplification
// never touches the global allocator; the stored Formula copies only bump
// pool refcounts and are dropped by Clear(), keeping the pool leak guard
// (Formula::LiveNodeCount) exact between calls.  The capacity never shrinks,
// so Clear resets only the slots filled since the last Clear: one large
// formula must not make every later call on the thread pay for its table.
class SimplifyMemo {
 public:
  Formula* Find(const FormulaNode* key) {
    if (filled_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = HashVarId(reinterpret_cast<uintptr_t>(key)) & mask;;
         i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == nullptr) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  void Insert(const FormulaNode* key, const Formula& value) {
    if ((filled_.size() + 1) * 4 > slots_.size() * 3) Grow();
    const size_t i = Place(key);
    slots_[i].value = value;
  }
  void Clear() {
    for (size_t i : filled_) {
      slots_[i].key = nullptr;
      slots_[i].value = Formula();  // drop the pool reference
    }
    slots_cleared_ += static_cast<int64_t>(filled_.size());
    filled_.clear();
  }
  int64_t slots_cleared() const { return slots_cleared_; }

 private:
  struct Slot {
    const FormulaNode* key = nullptr;
    Formula value;
  };
  // Claims the empty slot `key` probes to and records it as filled.
  size_t Place(const FormulaNode* key) {
    const size_t mask = slots_.size() - 1;
    size_t i = HashVarId(reinterpret_cast<uintptr_t>(key)) & mask;
    while (slots_[i].key != nullptr) i = (i + 1) & mask;
    slots_[i].key = key;
    filled_.push_back(i);
    return i;
  }
  void Grow() {
    const size_t new_cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(new_cap);
    std::vector<size_t> old_filled;
    old_filled.swap(filled_);
    for (size_t i : old_filled) {
      slots_[Place(old[i].key)].value = std::move(old[i].value);
    }
  }
  std::vector<Slot> slots_;
  std::vector<size_t> filled_;  // slot indices in use, insertion order
  int64_t slots_cleared_ = 0;
};

// Clears the memo when the rewrite unwinds (including early returns), so no
// pool references outlive the Simplify call that created them.
struct MemoScope {
  SimplifyMemo* memo;
  ~MemoScope() { memo->Clear(); }
};

SimplifyMemo* ThreadSimplifyMemo() {
  static thread_local SimplifyMemo memo;
  return &memo;
}

Formula SimplifyRec(const FormulaNode* n, const Substitution& sub,
                    SimplifyMemo* memo) {
  if (Formula* hit = memo->Find(n)) return *hit;
  Formula result;
  switch (n->op) {
    case FormulaNode::Op::kVar:
      switch (sub.Of(n->var)) {
        case Truth::kTrue:
          result = Formula::True();
          break;
        case Truth::kFalse:
          result = Formula::False();
          break;
        case Truth::kUnknown:
          result = Formula::Var(n->var);
          break;
      }
      break;
    case FormulaNode::Op::kAnd:
      result = Formula::And(SimplifyRec(n->left, sub, memo),
                            SimplifyRec(n->right, sub, memo));
      break;
    case FormulaNode::Op::kOr:
      result = Formula::Or(SimplifyRec(n->left, sub, memo),
                           SimplifyRec(n->right, sub, memo));
      break;
  }
  memo->Insert(n, result);
  return result;
}

// The body of Simplify and PruneFalse: `f`, whose root is `node`, rewritten
// under `sub`.
Formula Rewrite(const Formula& f, const FormulaNode* node,
                const Substitution& sub) {
  if (node == nullptr || sub.assignment.empty() ||
      !AnyBoundRec(node, sub, Pool().NextEpoch())) {
    return f;  // nothing to substitute: share the existing DAG
  }
  SimplifyMemo* memo = ThreadSimplifyMemo();
  MemoScope scope{memo};
  return SimplifyRec(node, sub, memo);
}

void CollectVarsRec(const FormulaNode* n, uint64_t epoch,
                    std::vector<VarId>* out) {
  if (n->mark == epoch) return;
  n->mark = epoch;
  if (n->op == FormulaNode::Op::kVar) {
    // First-occurrence order with linear dedup: formulas reference few
    // distinct variables, so a scan beats a heap-allocated set.
    if (std::find(out->begin(), out->end(), n->var) == out->end()) {
      out->push_back(n->var);
    }
    return;
  }
  CollectVarsRec(n->left, epoch, out);
  CollectVarsRec(n->right, epoch, out);
}

int64_t CountNodesRec(const FormulaNode* n, uint64_t epoch) {
  if (n->mark == epoch) return 0;
  n->mark = epoch;
  int64_t count = 1;
  if (n->op != FormulaNode::Op::kVar) {
    count += CountNodesRec(n->left, epoch);
    count += CountNodesRec(n->right, epoch);
  }
  return count;
}

// Returns the number of literal references of the full DNF expansion, capped.
// For a variable it is 1.  For OR it is the sum.  For AND of expansions with
// t1/t2 terms and l1/l2 literals it is t1*l2 + t2*l1 (each pair of terms
// concatenates).  We track (terms, literals) pairs, saturating at the cap.
struct DnfSize {
  int64_t terms = 0;
  int64_t literals = 0;
};

DnfSize DnfRec(const FormulaNode* n, int64_t cap,
               std::unordered_map<const FormulaNode*, DnfSize>* memo) {
  auto it = memo->find(n);
  if (it != memo->end()) return it->second;
  DnfSize out;
  switch (n->op) {
    case FormulaNode::Op::kVar:
      out = {1, 1};
      break;
    case FormulaNode::Op::kOr: {
      DnfSize l = DnfRec(n->left, cap, memo);
      DnfSize r = DnfRec(n->right, cap, memo);
      out.terms = std::min<int64_t>(cap + 1, l.terms + r.terms);
      out.literals = std::min<int64_t>(cap + 1, l.literals + r.literals);
      break;
    }
    case FormulaNode::Op::kAnd: {
      DnfSize l = DnfRec(n->left, cap, memo);
      DnfSize r = DnfRec(n->right, cap, memo);
      // saturating multiply-accumulate
      auto sat_mul = [cap](int64_t a, int64_t b) {
        if (a == 0 || b == 0) return int64_t{0};
        if (a > (cap + 1) / b) return cap + 1;
        return a * b;
      };
      out.terms = std::min<int64_t>(cap + 1, sat_mul(l.terms, r.terms));
      out.literals = std::min<int64_t>(
          cap + 1, std::min<int64_t>(cap + 1, sat_mul(l.terms, r.literals)) +
                       std::min<int64_t>(cap + 1, sat_mul(r.terms, l.literals)));
      break;
    }
  }
  memo->emplace(n, out);
  return out;
}

void ToStringRec(const FormulaNode* n, FormulaNode::Op parent,
                 std::string* out) {
  switch (n->op) {
    case FormulaNode::Op::kVar:
      *out += VarName(n->var);
      break;
    case FormulaNode::Op::kAnd:
      ToStringRec(n->left, FormulaNode::Op::kAnd, out);
      *out += "&";
      ToStringRec(n->right, FormulaNode::Op::kAnd, out);
      break;
    case FormulaNode::Op::kOr: {
      bool parens = parent == FormulaNode::Op::kAnd;
      if (parens) *out += "(";
      ToStringRec(n->left, FormulaNode::Op::kOr, out);
      *out += "|";
      ToStringRec(n->right, FormulaNode::Op::kOr, out);
      if (parens) *out += ")";
      break;
    }
  }
}

}  // namespace

Truth Formula::Evaluate(const Assignment& assignment, int64_t as_of) const {
  if (node_ == nullptr) return const_value_ ? Truth::kTrue : Truth::kFalse;
  return EvaluateRec(node_, assignment, as_of, Pool().NextEpoch());
}

int64_t Formula::SimplifyMemoSlotsCleared() {
  return ThreadSimplifyMemo()->slots_cleared();
}

Formula Formula::Simplify(const Assignment& assignment, int64_t as_of,
                          const std::vector<uint32_t>* kept) const {
  return Rewrite(*this, node_,
                 {assignment, as_of, /*prune_false_only=*/false, kept});
}

Formula Formula::PruneFalse(const Assignment& assignment,
                            int64_t as_of) const {
  return Rewrite(*this, node_,
                 {assignment, as_of, /*prune_false_only=*/true,
                  /*kept=*/nullptr});
}

void Formula::AppendVariables(std::vector<VarId>* out) const {
  if (node_ == nullptr) return;
  CollectVarsRec(node_, Pool().NextEpoch(), out);
}

void Formula::AppendVariablesOfQualifier(uint32_t qualifier_id,
                                         std::vector<VarId>* out) const {
  const size_t base = out->size();
  AppendVariables(out);
  out->erase(std::remove_if(out->begin() + static_cast<ptrdiff_t>(base),
                            out->end(),
                            [qualifier_id](VarId v) {
                              return VarQualifier(v) != qualifier_id;
                            }),
             out->end());
}

std::vector<VarId> Formula::Variables() const {
  std::vector<VarId> out;
  AppendVariables(&out);
  return out;
}

std::vector<VarId> Formula::VariablesOfQualifier(uint32_t qualifier_id) const {
  std::vector<VarId> out;
  AppendVariablesOfQualifier(qualifier_id, &out);
  return out;
}

int64_t Formula::NodeCount() const {
  if (node_ == nullptr) return 0;
  return CountNodesRec(node_, Pool().NextEpoch());
}

int64_t Formula::DnfLiteralCount(int64_t cap) const {
  if (node_ == nullptr) return 0;
  std::unordered_map<const FormulaNode*, DnfSize> memo;
  return DnfRec(node_, cap, &memo).literals;
}

std::string Formula::ToString() const {
  if (is_true()) return "true";
  if (is_false()) return "false";
  std::string out;
  ToStringRec(node_, FormulaNode::Op::kOr, &out);
  return out;
}

}  // namespace spex
