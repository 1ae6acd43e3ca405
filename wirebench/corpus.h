// Seeded workloads: the documents, the PREPAREd query or population, and
// the DOM-oracle expectation for every document (README.md, "Workloads").

#ifndef WIREBENCH_CORPUS_H_
#define WIREBENCH_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.h"
#include "rpeq/ast.h"
#include "spex/multi_query.h"

namespace wirebench {

struct Corpus {
  std::string workload;
  // PREPARE payload: one query, or a newline-separated population.
  bool population = false;
  std::string prepare_text;
  std::vector<std::string> queries;  // the population members (1 if single)
  // Single query: the parsed expression.  Population: the locally built
  // template, whose sorted-canonical slots are the server's slots too.
  spex::ExprPtr query;
  std::shared_ptr<const spex::MultiQueryTemplate> multi;
  int slots = 1;
  // A population must keep at least this many distinct slots, or the
  // workload no longer stresses what it was chosen for.
  int min_slots = 1;

  std::vector<std::string> docs;  // serialized XML, sent in index order
  std::vector<int64_t> doc_events;
  std::vector<Expected> expected;  // oracle digest per document
};

// Known names: wire_qualifier, wire_records, wire_subscriptions.
bool IsWorkload(const std::string& name);

// Generates the workload's inputs from `seed` and evaluates the oracle.
// The same (workload, seed) always yields the same bytes.
Corpus BuildCorpus(const std::string& workload, uint64_t seed);

// DOM oracle for one document: parses `xml`, evaluates the query (or every
// slot), and digests the fragments as the wire check does.
ResultDigest OracleDigest(const Corpus& corpus, const std::string& xml);

}  // namespace wirebench

#endif  // WIREBENCH_CORPUS_H_
