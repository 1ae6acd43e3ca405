#include "baseline/dom_evaluator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>

namespace spex {

namespace {

constexpr int32_t kVirtualRoot = -1;

void SortUnique(std::vector<int32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

class Evaluator {
 public:
  explicit Evaluator(const Document& doc) : doc_(doc) {
    // subtree_last_[n] = largest node id inside n's subtree (ids are
    // assigned in document pre-order, so a subtree is a contiguous range).
    subtree_last_.resize(static_cast<size_t>(doc.size()));
    for (int32_t i = doc.size() - 1; i >= 0; --i) {
      if (subtree_last_[static_cast<size_t>(i)] < i) {
        subtree_last_[static_cast<size_t>(i)] = i;
      }
      int32_t parent = doc.node(i).parent;
      if (parent >= 0 &&
          subtree_last_[static_cast<size_t>(parent)] <
              subtree_last_[static_cast<size_t>(i)]) {
        subtree_last_[static_cast<size_t>(parent)] =
            subtree_last_[static_cast<size_t>(i)];
      }
    }
  }

  std::vector<int32_t> Eval(const Expr& e,
                            const std::vector<int32_t>& context) {
    switch (e.kind) {
      case ExprKind::kEmpty:
        return context;
      case ExprKind::kLabel:
        return MatchingChildren(context, e);
      case ExprKind::kClosure: {
        std::vector<int32_t> result;
        std::vector<int32_t> frontier = MatchingChildren(context, e);
        while (!frontier.empty()) {
          result.insert(result.end(), frontier.begin(), frontier.end());
          frontier = MatchingChildren(frontier, e);
        }
        SortUnique(&result);
        if (!e.is_positive) {  // Kleene: label* == (label+ | eps)
          std::vector<int32_t> with_context = context;
          with_context.insert(with_context.end(), result.begin(),
                              result.end());
          SortUnique(&with_context);
          return with_context;
        }
        return result;
      }
      case ExprKind::kUnion: {
        std::vector<int32_t> left = Eval(*e.left, context);
        std::vector<int32_t> right = Eval(*e.right, context);
        left.insert(left.end(), right.begin(), right.end());
        SortUnique(&left);
        return left;
      }
      case ExprKind::kIntersect: {
        std::vector<int32_t> left = Eval(*e.left, context);
        std::vector<int32_t> right = Eval(*e.right, context);
        std::vector<int32_t> out;
        std::set_intersection(left.begin(), left.end(), right.begin(),
                              right.end(), std::back_inserter(out));
        return out;
      }
      case ExprKind::kConcat:
        return Eval(*e.right, Eval(*e.left, context));
      case ExprKind::kOptional: {
        std::vector<int32_t> result = Eval(*e.left, context);
        result.insert(result.end(), context.begin(), context.end());
        SortUnique(&result);
        return result;
      }
      case ExprKind::kQualified: {
        std::vector<int32_t> base = Eval(*e.left, context);
        std::vector<int32_t> result;
        for (int32_t n : base) {
          if (NonEmpty(*e.right, {n})) result.push_back(n);
        }
        return result;
      }
      case ExprKind::kFollowing: {
        // Elements starting after some context node's subtree ends.
        int32_t min_end = doc_.size();  // nothing follows the virtual root
        for (int32_t id : context) {
          if (id == kVirtualRoot) continue;
          min_end = std::min(min_end, subtree_last_[static_cast<size_t>(id)]);
        }
        std::vector<int32_t> out;
        for (int32_t n = min_end + 1; n < doc_.size(); ++n) {
          const DomNode& node = doc_.node(n);
          if (node.kind == DomNode::Kind::kElement && LabelMatches(node, e)) {
            out.push_back(n);
          }
        }
        return out;
      }
      case ExprKind::kPreceding: {
        // Elements whose subtree closes before some context node starts.
        int32_t max_start = -1;  // nothing precedes the virtual root
        for (int32_t id : context) {
          if (id == kVirtualRoot) continue;
          max_start = std::max(max_start, id);
        }
        std::vector<int32_t> out;
        for (int32_t n = 0; n < max_start; ++n) {
          const DomNode& node = doc_.node(n);
          if (node.kind == DomNode::Kind::kElement && LabelMatches(node, e) &&
              subtree_last_[static_cast<size_t>(n)] < max_start) {
            out.push_back(n);
          }
        }
        return out;
      }
    }
    return {};
  }

  // True iff Eval(e, context) is non-empty: a qualifier body needs only
  // that.  The order axes answer it from a per-label index instead of a
  // scan of the document's suffix or prefix; concatenation, union and
  // qualification recurse; every other kind evaluates.
  bool NonEmpty(const Expr& e, const std::vector<int32_t>& context) {
    switch (e.kind) {
      case ExprKind::kConcat:
        return NonEmpty(*e.right, Eval(*e.left, context));
      case ExprKind::kUnion:
        return NonEmpty(*e.left, context) || NonEmpty(*e.right, context);
      case ExprKind::kQualified: {
        for (int32_t n : Eval(*e.left, context)) {
          if (NonEmpty(*e.right, {n})) return true;
        }
        return false;
      }
      case ExprKind::kFollowing: {
        // Some matching element starts after the earliest context end.
        int32_t min_end = doc_.size();
        for (int32_t id : context) {
          if (id == kVirtualRoot) continue;
          min_end = std::min(min_end, subtree_last_[static_cast<size_t>(id)]);
        }
        const LabelIndex& index = IndexFor(e);
        return !index.ids.empty() && index.ids.back() > min_end;
      }
      case ExprKind::kPreceding: {
        // Some matching element before the latest context start also
        // closes before it: the smallest subtree end among the matching
        // ids below max_start.
        int32_t max_start = -1;
        for (int32_t id : context) {
          if (id == kVirtualRoot) continue;
          max_start = std::max(max_start, id);
        }
        const LabelIndex& index = IndexFor(e);
        const size_t below = static_cast<size_t>(
            std::lower_bound(index.ids.begin(), index.ids.end(), max_start) -
            index.ids.begin());
        return below > 0 && index.min_last[below - 1] < max_start;
      }
      default:
        return !Eval(e, context).empty();
    }
  }

 private:
  // The elements an order-axis step matches, in document order, with the
  // prefix minima of their subtree ends.
  struct LabelIndex {
    std::vector<int32_t> ids;
    std::vector<int32_t> min_last;  // min subtree_last_ over ids[0..i]
  };

  // The index of `e`'s label (every element for a wildcard), built on
  // first use.
  const LabelIndex& IndexFor(const Expr& e) {
    const std::string key = e.is_wildcard ? std::string() : "=" + e.label;
    auto [it, inserted] = label_index_.try_emplace(key);
    LabelIndex& index = it->second;
    if (inserted) {
      for (int32_t n = 0; n < doc_.size(); ++n) {
        const DomNode& node = doc_.node(n);
        if (node.kind != DomNode::Kind::kElement || !LabelMatches(node, e)) {
          continue;
        }
        const int32_t last = subtree_last_[static_cast<size_t>(n)];
        index.min_last.push_back(
            index.ids.empty() ? last : std::min(index.min_last.back(), last));
        index.ids.push_back(n);
      }
    }
    return index;
  }

  // Element children of every context node whose label matches `e`.
  std::vector<int32_t> MatchingChildren(const std::vector<int32_t>& context,
                                        const Expr& e) {
    std::vector<int32_t> out;
    for (int32_t id : context) {
      if (id == kVirtualRoot) {
        if (!doc_.empty() && LabelMatches(doc_.node(0), e)) out.push_back(0);
        continue;
      }
      for (int32_t c = doc_.node(id).first_child; c != -1;
           c = doc_.node(c).next_sibling) {
        const DomNode& n = doc_.node(c);
        if (n.kind == DomNode::Kind::kElement && LabelMatches(n, e)) {
          out.push_back(c);
        }
      }
    }
    SortUnique(&out);
    return out;
  }

  static bool LabelMatches(const DomNode& n, const Expr& e) {
    return e.is_wildcard || n.label == e.label;
  }

  const Document& doc_;
  std::vector<int32_t> subtree_last_;
  // By label ("=" + label; "" for the wildcard), see IndexFor.
  std::unordered_map<std::string, LabelIndex> label_index_;
};

}  // namespace

std::vector<int32_t> EvaluateOnDocument(const Expr& query,
                                        const Document& doc) {
  Evaluator evaluator(doc);
  std::vector<int32_t> context = {kVirtualRoot};
  std::vector<int32_t> result = evaluator.Eval(query, context);
  // The virtual root can be selected by eps-producing queries (e.g. `_*`);
  // it is not an element, so drop it from the result.
  result.erase(std::remove(result.begin(), result.end(), kVirtualRoot),
               result.end());
  return result;
}

std::vector<std::string> DomEvaluateToStrings(const Expr& query,
                                              const Document& doc) {
  std::vector<std::string> out;
  for (int32_t id : EvaluateOnDocument(query, doc)) {
    out.push_back(doc.SubtreeToXml(id));
  }
  return out;
}

std::vector<std::string> DomEvaluateToStrings(const Expr& query,
                                              const std::string& xml) {
  Document doc;
  std::string error;
  if (!ParseXmlToDocument(xml, &doc, &error)) {
    std::fprintf(stderr, "DomEvaluateToStrings: %s\n", error.c_str());
    std::abort();
  }
  return DomEvaluateToStrings(query, doc);
}

int64_t DomEvaluateEventStream(const Expr& query,
                               const std::vector<StreamEvent>& events) {
  Document doc;
  std::string error;
  if (!EventsToDocument(events, &doc, &error)) {
    std::fprintf(stderr, "DomEvaluateEventStream: %s\n", error.c_str());
    std::abort();
  }
  return static_cast<int64_t>(EvaluateOnDocument(query, doc).size());
}

}  // namespace spex
