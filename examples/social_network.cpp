// Social-network analytics with extended conjunctive queries.
//
// Generates a synthetic friendship network and answers a small workload
// of CQ / DCQ / ECQ analytics with the approximation schemes, comparing
// against exact counts where feasible.
#include <cstdio>
#include <string>
#include <vector>

#include "app/workload.h"
#include "counting/exact_count.h"
#include "counting/fptras.h"
#include "query/parser.h"

using namespace cqcount;

int main() {
  Rng rng(7);
  const uint32_t people = 120;
  Database db = SocialNetworkDb(people, 6.0, 0.4, rng);
  std::printf("social network: %u people, %llu friendship facts, "
              "%zu adults\n\n",
              people,
              static_cast<unsigned long long>(db.relation("F").size()),
              db.relation("Adult").size());

  struct Workload {
    const char* description;
    const char* text;
  };
  const std::vector<Workload> workload = {
      {"popular: people with >= 2 distinct friends (DCQ)",
       "ans(x) :- F(x, y), F(x, z), y != z."},
      {"wedges: friend-pairs at distance two (CQ)",
       "ans(x, z) :- F(x, y), F(y, z)."},
      {"open triangles: adults whose two friends are strangers (ECQ)",
       "ans(x) :- Adult(x), F(x, y), F(x, z), !F(y, z), y != z."},
      {"matchmaking: adult pairs with a common friend, not yet friends "
       "(ECQ)",
       "ans(x, y) :- Adult(x), Adult(y), F(x, z), F(y, z), !F(x, y), "
       "x != y."},
  };

  for (const Workload& item : workload) {
    auto query = ParseQuery(item.text);
    if (!query.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   query.status().ToString().c_str());
      continue;
    }
    ApproxOptions opts;
    opts.epsilon = 0.15;
    opts.delta = 0.1;
    opts.seed = 1234;
    auto approx = ApproxCountAnswers(*query, db, opts);
    std::printf("%s\n  %s\n", item.description, item.text);
    if (!approx.ok()) {
      std::printf("  error: %s\n\n", approx.status().ToString().c_str());
      continue;
    }
    const uint64_t exact = ExactCountAnswersBruteForce(*query, db);
    std::printf("  estimate = %.1f   exact = %llu   width = %.0f   "
                "hom queries = %llu\n\n",
                approx->estimate, static_cast<unsigned long long>(exact),
                approx->width,
                static_cast<unsigned long long>(approx->nondet_hom_queries));
  }
  return 0;
}
