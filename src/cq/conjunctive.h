// Conjunctive queries with regular path expressions (paper §VII).
//
//   CQ: q(X) :- Y1 r1 Z1, ..., Yn rn Zn
//
// Concrete syntax accepted by ParseConjunctiveQuery:
//
//   q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3
//
// `Root` is the special variable bound to the document root.  Following the
// translation T of Fig. 16:
//   * an atom whose target is on a path to a head variable extends the
//     network with C[r] and binds the target to the new tape;
//   * an atom whose target leads to no head variable becomes a qualifier
//     (its whole subtree is folded into nested rpeq qualifiers);
//   * every head variable gets its own output transducer (multiple sinks);
//   * sibling head-path branches additionally qualify each other
//     (sibling-existence qualifiers), giving full conjunctive semantics for
//     multi-head queries — Fig. 16 leaves this implicit because its example
//     has a single head path.
//
// Restrictions (as in the paper): the atom graph must be a tree rooted at
// Root — identity-based joins (a variable reachable via two distinct paths)
// are future work in the paper and rejected here with an error.

#ifndef SPEX_CQ_CONJUNCTIVE_H_
#define SPEX_CQ_CONJUNCTIVE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rpeq/ast.h"
#include "spex/compiler.h"
#include "spex/engine.h"

namespace spex {

struct ConjunctiveAtom {
  std::string source;  // Y
  ExprPtr path;        // r
  std::string target;  // Z
};

struct ConjunctiveQuery {
  std::string name;               // q
  std::vector<std::string> head;  // head variables X
  std::vector<ConjunctiveAtom> atoms;

  std::string ToString() const;
};

struct CqParseResult {
  std::unique_ptr<ConjunctiveQuery> query;
  std::string error;
  bool ok() const { return query != nullptr; }
};

// Parses the concrete syntax above.
CqParseResult ParseConjunctiveQuery(std::string_view input);

// Parses or aborts.
std::unique_ptr<ConjunctiveQuery> MustParseConjunctiveQuery(
    std::string_view input);

// A compiled conjunctive query: the Fig. 16 translation handed to the run
// core (spex/run_core.h) with one result slot per head variable, so it is
// fed, governed, sealed and observed exactly like a SpexEngine.
class ConjunctiveEngine : public RunCore {
 public:
  // `sinks[i]` receives the results bound to query.head[i].  The sinks must
  // outlive the engine.  On failure (join / unknown variable / cyclic graph)
  // ok() is false, error() says why, and status() is kMalformedInput: every
  // event is dropped.
  ConjunctiveEngine(const ConjunctiveQuery& query,
                    const std::vector<ResultSink*>& sinks,
                    EngineOptions options = {});

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  // Translation T; sets error_ or starts the run.
  void Compile(const ConjunctiveQuery& raw_query,
               const std::vector<ResultSink*>& sinks);

  std::string error_;
};

// One-shot convenience: evaluates a conjunctive query over an event stream;
// returns, per head variable, the serialized result fragments.
std::vector<std::vector<std::string>> EvaluateConjunctive(
    const ConjunctiveQuery& query, const std::vector<StreamEvent>& events,
    std::string* error = nullptr);

}  // namespace spex

#endif  // SPEX_CQ_CONJUNCTIVE_H_
