#include "spex/compiler.h"

#include <algorithm>

#include "spex/child_transducer.h"
#include "spex/closure_transducer.h"
#include "spex/input_transducer.h"
#include "spex/intersect_transducer.h"
#include "spex/order_transducers.h"
#include "spex/qualifier_transducers.h"
#include "spex/split_join_transducers.h"
#include "spex/union_transducer.h"

namespace spex {

NetworkBuilder::NetworkBuilder(Network* network, RunContext* context)
    : network_(network),
      context_(context),
      sets_{LabelSet(), LabelSet::Element("", /*wildcard=*/true),
            LabelSet::Document()} {}

void NetworkBuilder::NoteProvenance(int node, const Expr* prov) {
  if (prov != nullptr) {
    network_->SetProvenance(node, prov->span, prov->ToString());
  }
}

int NetworkBuilder::ElementSet(const std::string& label, bool wildcard) {
  if (wildcard) return kAnyElement;
  const Symbol symbol = context_->symbol_table()->Intern(label);
  if (symbol >= element_sets_.size()) element_sets_.resize(symbol + 1, -1);
  int& set = element_sets_[symbol];
  if (set == -1) {
    set = static_cast<int>(sets_.size());
    sets_.push_back(LabelSet::Element(label, /*wildcard=*/false));
  }
  return set;
}

int NetworkBuilder::UnionSet(int a, int b) {
  if (a == b || b == kNoLabels) return a;
  if (a == kNoLabels) return b;
  LabelSet merged = sets_[static_cast<size_t>(a)];
  merged.Merge(sets_[static_cast<size_t>(b)]);
  auto it = std::find(sets_.begin(), sets_.end(), merged);
  if (it != sets_.end()) return static_cast<int>(it - sets_.begin());
  sets_.push_back(std::move(merged));
  return static_cast<int>(sets_.size()) - 1;
}

void NetworkBuilder::SetActivates(int tape, int set) {
  if (static_cast<size_t>(tape) >= activates_.size()) {
    activates_.resize(static_cast<size_t>(tape) + 1, kNoLabels);
  }
  activates_[static_cast<size_t>(tape)] = set;
}

int NetworkBuilder::AddInput(const Expr* prov) {
  input_node_ = network_->AddNode(std::make_unique<InputTransducer>());
  NoteProvenance(input_node_, prov);
  int t0 = network_->NewTape();
  network_->SetProducer(t0, input_node_, 0);
  SetActivates(t0, kDocumentRoot);  // IN activates <$>
  return t0;
}

int NetworkBuilder::AddUnary(std::unique_ptr<Transducer> t, int in_tape,
                             int activates, const Expr* prov) {
  int node = network_->AddNode(std::move(t));
  NoteProvenance(node, prov);
  network_->SetConsumer(in_tape, node, 0);
  int out = network_->NewTape();
  network_->SetProducer(out, node, 0);
  SetActivates(out, activates);
  return out;
}

std::pair<int, int> NetworkBuilder::AddSplit(int in_tape, const Expr* prov) {
  int node = network_->AddNode(std::make_unique<SplitTransducer>());
  NoteProvenance(node, prov);
  network_->SetConsumer(in_tape, node, 0);
  int t1 = network_->NewTape();
  int t2 = network_->NewTape();
  network_->SetProducer(t1, node, 0);
  network_->SetProducer(t2, node, 1);
  SetActivates(t1, Activates(in_tape));
  SetActivates(t2, Activates(in_tape));
  return {t1, t2};
}

int NetworkBuilder::AddJoin(int left, int right, const Expr* prov) {
  int node = network_->AddNode(std::make_unique<JoinTransducer>());
  NoteProvenance(node, prov);
  network_->SetConsumer(left, node, 0);
  network_->SetConsumer(right, node, 1);
  int out = network_->NewTape();
  network_->SetProducer(out, node, 0);
  SetActivates(out, UnionSet(Activates(left), Activates(right)));
  return out;
}

OutputTransducer* NetworkBuilder::AddOutput(int in_tape, ResultSink* sink,
                                            const Expr* prov) {
  auto ou = std::make_unique<OutputTransducer>(sink, context_);
  OutputTransducer* raw = ou.get();
  int node = network_->AddNode(std::move(ou));
  NoteProvenance(node, prov);
  network_->SetConsumer(in_tape, node, 0);
  return raw;
}

int NetworkBuilder::CompileExpr(const Expr& e, int in_tape) {
  switch (e.kind) {
    case ExprKind::kEmpty:
      // eps: the identity — the construct's input tape is its output.
      return in_tape;

    case ExprKind::kLabel:
      // C[label] = CH(label)
      return AddUnary(
          std::make_unique<ChildTransducer>(e.label, e.is_wildcard, context_),
          in_tape, ElementSet(e.label, e.is_wildcard), &e);

    case ExprKind::kClosure: {
      if (e.is_positive) {
        // C[label+] = CL(label)
        return AddUnary(std::make_unique<ClosureTransducer>(
                            e.label, e.is_wildcard, context_),
                        in_tape, ElementSet(e.label, e.is_wildcard),
                        &e);
      }
      // C[label*] = SP ; C[label+] ; JO   (label* == (label+ | eps))
      auto [t1, t2] = AddSplit(in_tape, &e);
      int body = AddUnary(std::make_unique<ClosureTransducer>(
                              e.label, e.is_wildcard, context_),
                          t1, ElementSet(e.label, e.is_wildcard), &e);
      return AddJoin(t2, body, &e);
    }

    case ExprKind::kOptional: {
      // C[rpeq?] = SP ; C[rpeq] ; JO
      auto [t1, t2] = AddSplit(in_tape, &e);
      int body = CompileExpr(*e.left, t1);
      return AddJoin(t2, body, &e);
    }

    case ExprKind::kUnion: {
      // C[(r1|r2)] = SP ; C[r1] ; C[r2] ; JO ; UN
      auto [t1, t2] = AddSplit(in_tape, &e);
      int left = CompileExpr(*e.left, t1);
      int right = CompileExpr(*e.right, t2);
      int joined = AddJoin(left, right, &e);
      return AddUnary(std::make_unique<UnionTransducer>(), joined,
                      Activates(joined), &e);
    }

    case ExprKind::kIntersect: {
      // C[(r1&r2)] = SP ; C[r1] ; C[r2] ; IS — node-identity join (§I).
      auto [t1, t2] = AddSplit(in_tape, &e);
      int left = CompileExpr(*e.left, t1);
      int right = CompileExpr(*e.right, t2);
      int node = network_->AddNode(std::make_unique<IntersectTransducer>());
      NoteProvenance(node, &e);
      network_->SetConsumer(left, node, 0);
      network_->SetConsumer(right, node, 1);
      int out = network_->NewTape();
      network_->SetProducer(out, node, 0);
      // IS activates only what both branches do; their union bounds that.
      SetActivates(out, UnionSet(Activates(left), Activates(right)));
      return out;
    }

    case ExprKind::kConcat:
      // C[(r1.r2)] = C[r2] o C[r1]
      return CompileExpr(*e.right, CompileExpr(*e.left, in_tape));

    case ExprKind::kQualified: {
      // C[r1[r2]] = C[[r2]] o C[r1]
      int base = CompileExpr(*e.left, in_tape);
      return CompileQualifier(*e.right, base);
    }

    case ExprKind::kFollowing:
      // >>label : FO(label) — streamed directly (paper §I extension).
      return AddUnary(std::make_unique<FollowingTransducer>(
                          e.label, e.is_wildcard, context_,
                          enclosing_qualifiers_),
                      in_tape, ElementSet(e.label, e.is_wildcard), &e);

    case ExprKind::kPreceding: {
      // <<label : PR(label) — speculative matching with future-condition
      // variables (own qualifier-id namespace); evidence mode inside
      // qualifier bodies (see ValidateQuery), where PR re-emits the
      // context's activation instead.
      const bool evidence = !enclosing_qualifiers_.empty();
      int activates = ElementSet(e.label, e.is_wildcard);
      if (evidence) activates = UnionSet(activates, Activates(in_tape));
      return AddUnary(
          std::make_unique<PrecedingTransducer>(e.label, e.is_wildcard,
                                                next_qualifier_id_++, context_,
                                                evidence),
          in_tape, activates, &e);
    }
  }
  return in_tape;  // unreachable
}

int NetworkBuilder::CompileQualifier(const Expr& q, int in_tape) {
  // C[[q]] = VC(q) ; SP ; C[q] ; VF(q+) ; VD ; JO  (Fig. 11, last rule)
  // The qualifier machinery (VC/SP/VF/VD/JO) carries the body's provenance:
  // it exists to evaluate exactly that sub-expression.
  const uint32_t qid = next_qualifier_id_++;
  // A body containing a following axis can be satisfied after the
  // instance's scope closed: defer the scope-exit invalidation to </$>.
  const bool defer = q.ContainsKind(ExprKind::kFollowing);
  // VC reads its variables where it invalidates them: at the end tags of
  // the elements the base selects, or at </$> when deferred.  No sweep may
  // carry a start tag and such an end tag after it (DESIGN.md §11).
  const LabelSet& scope_exits =
      sets_[static_cast<size_t>(defer ? kDocumentRoot : Activates(in_tape))];
  network_->AddSweepCuts(scope_exits);
  int after_vc = AddUnary(std::make_unique<VariableCreatorTransducer>(
                              qid, context_, defer, scope_exits),
                          in_tape, Activates(in_tape), &q);
  auto [t1, t2] = AddSplit(after_vc, &q);
  enclosing_qualifiers_.push_back(qid);
  int body = CompileExpr(q, t2);
  enclosing_qualifiers_.pop_back();
  int filtered =
      AddUnary(std::make_unique<VariableFilterTransducer>(qid,
                                                          /*positive=*/true,
                                                          context_),
               body, Activates(body), &q);
  // VD consumes the body's activations: it activates nothing.
  int determined = AddUnary(
      std::make_unique<VariableDeterminantTransducer>(qid, context_),
      filtered, kNoLabels, &q);
  return AddJoin(t1, determined, &q);
}

namespace {

bool ValidateRec(const Expr& e, bool in_body, bool is_tail,
                 std::string* error) {
  switch (e.kind) {
    case ExprKind::kPreceding:
      if (in_body && !is_tail) {
        if (error != nullptr) {
          *error =
              "a preceding step (<<" + std::string(e.is_wildcard ? "_"
                                                                 : e.label) +
              ") inside a qualifier body must be the body's last step";
        }
        return false;
      }
      return true;
    case ExprKind::kConcat:
      return ValidateRec(*e.left, in_body, false, error) &&
             ValidateRec(*e.right, in_body, is_tail, error);
    case ExprKind::kUnion:
      return ValidateRec(*e.left, in_body, is_tail, error) &&
             ValidateRec(*e.right, in_body, is_tail, error);
    case ExprKind::kIntersect:
      // Inside a qualifier body, preceding steps run in evidence mode,
      // which certifies EXISTENCE of a preceding match but not WHICH node
      // matched — combining that with a node-identity join would wrongly
      // pair the evidence with the other branch's node.
      if (in_body && (e.left->ContainsKind(ExprKind::kPreceding) ||
                      e.right->ContainsKind(ExprKind::kPreceding))) {
        if (error != nullptr) {
          *error =
              "a preceding step cannot appear under '&' inside a qualifier "
              "body (the body match's node identity would be lost)";
        }
        return false;
      }
      return ValidateRec(*e.left, in_body, is_tail, error) &&
             ValidateRec(*e.right, in_body, is_tail, error);
    case ExprKind::kOptional:
      return ValidateRec(*e.left, in_body, is_tail, error);
    case ExprKind::kQualified:
      if (in_body && e.left->ContainsKind(ExprKind::kPreceding)) {
        if (error != nullptr) {
          *error =
              "a preceding step inside a qualifier body cannot itself carry "
              "qualifiers";
        }
        return false;
      }
      return ValidateRec(*e.left, in_body, is_tail, error) &&
             ValidateRec(*e.right, /*in_body=*/true, /*is_tail=*/true, error);
    default:
      return true;
  }
}

}  // namespace

bool ValidateQuery(const Expr& expr, std::string* error) {
  return ValidateRec(expr, /*in_body=*/false, /*is_tail=*/true, error);
}

CompiledNetwork CompileToNetwork(const Expr& expr, ResultSink* sink,
                                 RunContext* context) {
  CompiledNetwork out;
  NetworkBuilder builder(&out.network, context);
  // IN and OU implement the query as a whole; everything in between carries
  // the span of the sub-expression it was compiled from.
  int t0 = builder.AddInput(&expr);
  out.input_node = builder.input_node();
  int body_out = builder.CompileExpr(expr, t0);
  out.output = builder.AddOutput(body_out, sink, &expr);
  return out;
}

std::shared_ptr<const QueryTemplate> QueryTemplate::Build(const Expr& query,
                                                          std::string* error) {
  std::string local_error;
  if (!ValidateQuery(query, &local_error)) {
    if (error != nullptr) *error = local_error;
    return nullptr;
  }
  std::shared_ptr<QueryTemplate> t(new QueryTemplate());
  t->expr_ = query.Clone();
  t->canonical_text_ = t->expr_->ToString();
  // Trial instantiation: compilation is linear (Lemma V.1), so pricing the
  // degree here costs about as much as the first real session will.
  RunContext context;
  CountingResultSink sink;
  CompiledNetwork net = CompileToNetwork(*t->expr_, &sink, &context);
  t->network_degree_ = net.network.node_count();
  return t;
}

}  // namespace spex
