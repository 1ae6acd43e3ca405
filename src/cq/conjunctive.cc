#include "cq/conjunctive.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>

#include "rpeq/parser.h"

namespace spex {

std::string ConjunctiveQuery::ToString() const {
  std::string out = name + "(";
  for (size_t i = 0; i < head.size(); ++i) {
    if (i > 0) out += ",";
    out += head[i];
  }
  out += ") :- ";
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms[i].source + "(" + atoms[i].path->ToString() + ") " +
           atoms[i].target;
  }
  return out;
}

namespace {

// Minimal scanner for the CQ surface syntax.
class CqScanner {
 public:
  explicit CqScanner(std::string_view input) : input_(input) {}

  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool EatStr(std::string_view s) {
    SkipSpace();
    if (input_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  std::string ReadName() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_')) {
      ++pos_;
    }
    return std::string(input_.substr(start, pos_ - start));
  }

  // Reads a balanced-parentheses region starting after '('; returns the
  // contents up to the matching ')', which is consumed.
  bool ReadParenthesized(std::string* out) {
    if (!Eat('(')) return false;
    int depth = 1;
    size_t start = pos_;
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (c == '(') ++depth;
      if (c == ')') {
        --depth;
        if (depth == 0) {
          *out = std::string(input_.substr(start, pos_ - start));
          ++pos_;
          return true;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= input_.size();
  }

  size_t pos() const { return pos_; }

 private:
  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

CqParseResult ParseConjunctiveQuery(std::string_view input) {
  CqParseResult result;
  CqScanner s(input);
  auto query = std::make_unique<ConjunctiveQuery>();

  query->name = s.ReadName();
  if (query->name.empty()) {
    result.error = "expected query name";
    return result;
  }
  if (!s.Eat('(')) {
    result.error = "expected '(' after query name";
    return result;
  }
  for (;;) {
    std::string var = s.ReadName();
    if (var.empty()) {
      result.error = "expected head variable";
      return result;
    }
    query->head.push_back(var);
    if (s.Eat(',')) continue;
    break;
  }
  if (!s.Eat(')')) {
    result.error = "expected ')' after head variables";
    return result;
  }
  if (!s.EatStr(":-")) {
    result.error = "expected ':-'";
    return result;
  }
  for (;;) {
    ConjunctiveAtom atom;
    atom.source = s.ReadName();
    if (atom.source.empty()) {
      result.error = "expected atom source variable";
      return result;
    }
    std::string path_text;
    if (!s.ReadParenthesized(&path_text)) {
      result.error = "expected '(rpeq)' in atom";
      return result;
    }
    ParseResult pr = ParseRpeq(path_text);
    if (!pr.ok()) {
      result.error = "bad path in atom: " + pr.error;
      return result;
    }
    atom.path = std::move(pr.expr);
    atom.target = s.ReadName();
    if (atom.target.empty()) {
      result.error = "expected atom target variable";
      return result;
    }
    query->atoms.push_back(std::move(atom));
    if (s.Eat(',')) continue;
    break;
  }
  if (!s.AtEnd()) {
    result.error = "unexpected trailing input";
    return result;
  }
  result.query = std::move(query);
  return result;
}

std::unique_ptr<ConjunctiveQuery> MustParseConjunctiveQuery(
    std::string_view input) {
  CqParseResult r = ParseConjunctiveQuery(input);
  if (!r.ok()) {
    std::fprintf(stderr, "MustParseConjunctiveQuery: %s\n", r.error.c_str());
    std::abort();
  }
  return std::move(r.query);
}

// ---------------------------------------------------------------------------

namespace {

// Recursively folds a non-head-path variable's subtree into an rpeq with
// nested qualifiers: the expression selects var's nodes, qualified by each
// child subtree.
ExprPtr BuildFoldedQualifier(
    const ConjunctiveQuery& query,
    const std::map<std::string, std::vector<int>>& children, int atom_index) {
  const ConjunctiveAtom& atom = query.atoms[atom_index];
  ExprPtr expr = atom.path->Clone();
  auto it = children.find(atom.target);
  if (it != children.end()) {
    for (int child : it->second) {
      expr = MakeQualified(std::move(expr),
                           BuildFoldedQualifier(query, children, child));
    }
  }
  return expr;
}

}  // namespace

ConjunctiveEngine::ConjunctiveEngine(const ConjunctiveQuery& query,
                                     const std::vector<ResultSink*>& sinks,
                                     EngineOptions options)
    : RunCore(std::move(options)) {
  Compile(query, sinks);
  if (!ok()) Reject(Status::MalformedInput(error_));
}

void ConjunctiveEngine::Compile(const ConjunctiveQuery& raw_query,
                                const std::vector<ResultSink*>& sinks) {
  if (sinks.size() != raw_query.head.size()) {
    error_ = "one result sink per head variable required";
    return;
  }

  // Desugar identity joins whose defining atoms all start at Root:
  //   Root(p1) Z, Root(p2) Z  ->  Root(p1 & p2) Z
  // (the node-identity join of §I; joins deeper in the graph remain future
  // work as in §VII).
  ConjunctiveQuery query;
  query.name = raw_query.name;
  query.head = raw_query.head;
  {
    std::map<std::string, std::vector<const ConjunctiveAtom*>> by_target;
    for (const ConjunctiveAtom& a : raw_query.atoms) {
      by_target[a.target].push_back(&a);
    }
    std::set<std::string> joined;
    for (const auto& [target, atoms] : by_target) {
      if (atoms.size() < 2) continue;
      bool all_root = true;
      for (const ConjunctiveAtom* a : atoms) {
        if (a->source != "Root") all_root = false;
      }
      if (!all_root) continue;  // the tree check below reports the error
      ConjunctiveAtom merged;
      merged.source = "Root";
      merged.target = target;
      merged.path = atoms[0]->path->Clone();
      for (size_t i = 1; i < atoms.size(); ++i) {
        merged.path =
            MakeIntersect(std::move(merged.path), atoms[i]->path->Clone());
      }
      query.atoms.push_back(std::move(merged));
      joined.insert(target);
    }
    for (const ConjunctiveAtom& a : raw_query.atoms) {
      if (joined.count(a.target) > 0) continue;
      ConjunctiveAtom copy;
      copy.source = a.source;
      copy.target = a.target;
      copy.path = a.path->Clone();
      query.atoms.push_back(std::move(copy));
    }
  }

  // Build the variable graph and check it is a tree rooted at Root.
  std::map<std::string, std::vector<int>> children;  // var -> atom indices
  std::set<std::string> defined = {"Root"};
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    const ConjunctiveAtom& a = query.atoms[i];
    if (defined.count(a.target) > 0) {
      error_ = "variable " + a.target +
               " is defined by multiple non-Root paths (general identity "
               "joins are future work, paper §VII; joins of Root paths are "
               "desugared to '&')";
      return;
    }
    defined.insert(a.target);
    children[a.source].push_back(static_cast<int>(i));
  }
  for (const ConjunctiveAtom& a : query.atoms) {
    if (defined.count(a.source) == 0) {
      error_ = "atom source variable " + a.source + " is never defined";
      return;
    }
  }
  std::set<std::string> heads(query.head.begin(), query.head.end());
  for (const std::string& h : query.head) {
    if (defined.count(h) == 0) {
      error_ = "head variable " + h + " is never defined";
      return;
    }
    if (h == "Root") {
      error_ = "Root cannot be a head variable";
      return;
    }
  }

  // reach(Z, X): does Z's subtree contain a head variable?
  std::map<std::string, bool> reaches;
  // Process in reverse topological order; since targets are unique and
  // sources precede them syntactically in well-formed queries, a fixpoint
  // over the atom list suffices.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ConjunctiveAtom& a : query.atoms) {
      bool r = heads.count(a.target) > 0 || reaches[a.target];
      if (r && !reaches[a.source]) {
        reaches[a.source] = true;
        changed = true;
      }
    }
  }

  // Translation T (Fig. 16).
  Network network;
  NetworkBuilder builder(&network, &context());
  int root_tape = builder.AddInput();
  std::vector<OutputTransducer*> outputs(query.head.size(), nullptr);

  // Recursive descent over the variable tree.
  std::function<void(const std::string&, int)> compile_var =
      [&](const std::string& var, int tape) {
        auto it = children.find(var);
        std::vector<int> head_atoms;
        // 1. Atoms whose target reaches no head variable become qualifiers
        //    on the tape itself (Fig. 16's else-branch), with their whole
        //    subtree folded into nested rpeq qualifiers.
        if (it != children.end()) {
          for (int ai : it->second) {
            const ConjunctiveAtom& a = query.atoms[ai];
            bool target_on_head_path =
                heads.count(a.target) > 0 || reaches[a.target];
            if (target_on_head_path) {
              head_atoms.push_back(ai);
            } else {
              ExprPtr folded = BuildFoldedQualifier(query, children, ai);
              tape = builder.CompileQualifier(*folded, tape);
            }
          }
        }
        const bool var_is_head = heads.count(var) > 0;
        int consumers = static_cast<int>(head_atoms.size()) +
                        (var_is_head ? 1 : 0);
        // Duplicate the tape for every consumer with a chain of splits.
        std::vector<int> tapes;
        int current = tape;
        for (int i = 0; i + 1 < consumers; ++i) {
          auto [t1, t2] = builder.AddSplit(current);
          tapes.push_back(t1);
          current = t2;
        }
        if (consumers > 0) tapes.push_back(current);
        size_t next_tape = 0;
        // 2. Conjunctive semantics across sibling branches: every consumer
        //    (the variable's own sink, and each head-path branch) must also
        //    require the existence of the OTHER head-path siblings.  Fig. 16
        //    leaves this implicit (its example has a single head path); we
        //    enforce it with sibling-existence qualifiers.
        auto qualify_with_siblings = [&](int t, int skip_atom) {
          for (int aj : head_atoms) {
            if (aj == skip_atom) continue;
            ExprPtr folded = BuildFoldedQualifier(query, children, aj);
            t = builder.CompileQualifier(*folded, t);
          }
          return t;
        };
        if (var_is_head) {
          int t = qualify_with_siblings(tapes[next_tape++], /*skip_atom=*/-1);
          for (size_t h = 0; h < query.head.size(); ++h) {
            if (query.head[h] == var) {
              outputs[h] = builder.AddOutput(t, sinks[h]);
            }
          }
        }
        // 3. Head-path children: C[r] then recurse.
        for (int ai : head_atoms) {
          const ConjunctiveAtom& a = query.atoms[ai];
          int t = qualify_with_siblings(tapes[next_tape++], ai);
          int out = builder.CompileExpr(*a.path, t);
          compile_var(a.target, out);
        }
      };

  compile_var("Root", root_tape);

  for (size_t h = 0; h < query.head.size(); ++h) {
    if (outputs[h] == nullptr) {
      error_ = "internal error: head variable " + query.head[h] +
               " received no output transducer";
      return;
    }
  }
  Start(std::move(network), builder.input_node(), std::move(outputs),
        raw_query.ToString());
}

std::vector<std::vector<std::string>> EvaluateConjunctive(
    const ConjunctiveQuery& query, const std::vector<StreamEvent>& events,
    std::string* error) {
  std::vector<std::unique_ptr<SerializingResultSink>> sinks;
  std::vector<ResultSink*> sink_ptrs;
  for (size_t i = 0; i < query.head.size(); ++i) {
    sinks.push_back(std::make_unique<SerializingResultSink>());
    sink_ptrs.push_back(sinks.back().get());
  }
  ConjunctiveEngine engine(query, sink_ptrs);
  if (!engine.ok()) {
    if (error != nullptr) *error = engine.error();
    return {};
  }
  for (const StreamEvent& e : events) engine.OnEvent(e);
  std::vector<std::vector<std::string>> out;
  for (auto& s : sinks) out.push_back(s->results());
  return out;
}

}  // namespace spex
