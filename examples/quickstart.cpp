// Quickstart: parse an extended conjunctive query, build a database,
// count answers exactly and approximately, and draw samples.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "counting/exact_count.h"
#include "counting/fptras.h"
#include "counting/sampler.h"
#include "query/parser.h"
#include "relational/database_io.h"

using namespace cqcount;

int main() {
  // The paper's running example (equation (1)): people with at least two
  // distinct friends. 'x' is the output variable; 'y' and 'z' are
  // existentially quantified; 'y != z' is a disequality, so this is a DCQ.
  auto query = ParseQuery("ans(x) :- F(x, y), F(x, z), y != z.");
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s   (||phi|| = %llu, kind = DCQ)\n",
              query->ToString().c_str(),
              static_cast<unsigned long long>(query->PhiSize()));

  // A small friendship database in the text format.
  auto db = ParseDatabase(R"(
universe 6
relation F 2
0 1
1 0
1 2
2 1
1 3
3 1
4 5
5 4
end
)");
  if (!db.ok()) {
    std::fprintf(stderr, "database error: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }

  // Exact count (exponential in the query, fine here).
  const uint64_t exact = ExactCountAnswersBruteForce(*query, *db);
  std::printf("exact |Ans|           = %llu\n",
              static_cast<unsigned long long>(exact));

  // Theorem 5 FPTRAS: (epsilon, delta)-approximation.
  ApproxOptions opts;
  opts.epsilon = 0.1;
  opts.delta = 0.05;
  opts.seed = 2024;
  auto approx = ApproxCountAnswers(*query, *db, opts);
  if (!approx.ok()) {
    std::fprintf(stderr, "fptras error: %s\n",
                 approx.status().ToString().c_str());
    return 1;
  }
  std::printf("FPTRAS estimate       = %.2f%s\n", approx->estimate,
              approx->exact ? " (resolved exactly)" : "");
  std::printf("decomposition width   = %.0f, hom queries = %llu\n",
              approx->width,
              static_cast<unsigned long long>(approx->nondet_hom_queries));

  // Section 6: approximately uniform answer samples.
  SamplerOptions sopts;
  sopts.approx = opts;
  auto sampler = AnswerSampler::Create(*query, *db, sopts);
  if (sampler.ok()) {
    auto samples = (*sampler)->Sample(5);
    if (samples.ok()) {
      std::printf("5 sampled answers     =");
      for (const Tuple& t : *samples) std::printf(" %u", t[0]);
      std::printf("\n");
    }
  }
  return 0;
}
