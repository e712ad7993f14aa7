// Independent reference counter for the benchmark's answers.
//
// Counts |Ans(phi, D)| exactly by backtracking joins over sorted
// projections of the generator's own tables: positive atoms generate
// candidates, negated atoms and disequalities filter, and each free
// assignment counts once if some existential extension exists. It has
// its own query parser and uses no cqcount code at all, so a bug in the
// library's parser, storage, Hom DP or estimators cannot hide in the
// reference it is checked against.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

/// Exact number of answers of `query` (parser syntax, e.g.
/// "ans(x) :- F(x, y), !F(y, z), y != z.") over `db`. Throws
/// std::invalid_argument on a query it cannot parse.
uint64_t ReferenceCount(const std::string& query, const DatabaseData& db);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
