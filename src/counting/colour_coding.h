// Colour-coding simulation of the EdgeFree oracle (Lemma 30 + Lemma 22).
//
// EdgeFree(H(phi,D)[V_1..V_l]) holds iff NO collection f of per-disequality
// colourings f_eta : U(D) -> {r,b} admits a homomorphism from A-hat(phi) to
// B-hat(phi,D,V_1..V_l,f). The simulation samples
// Q = ceil(ln(1/delta')) * 4^{|Delta|} colourings uniformly; each gives one
// Hom query. A homomorphism respecting a colouring yields an edge
// (sound); a present edge is missed with probability at most delta'
// (each trial succeeds with probability >= 4^{-|Delta|}, Lemma 22).
//
// The Hom instances are passed to the oracle virtually: all of A-hat's
// additions are unary, so the instance is exactly "phi's positive/negated
// atoms + per-variable domain restrictions" (cross-validated against the
// materialised Definitions 26/28 in tests).
//
// Randomness / determinism model: the colourings of one IsEdgeFree call
// are drawn from Rng(DeriveSeed(seed, HashPartiteSubset(V_1..V_l)));
// trial t of the call uses the derived stream DeriveSeed(call_seed, t).
// Two consequences, both deliberate:
//   - Every fork of the oracle (worker lanes of the parallel estimator)
//     answers a given subset exactly as the root would, so estimates are
//     bit-identical at any thread count.
//   - Repeat queries of one subset reuse the same colourings: the oracle
//     behaves like a single fixed random object over the subset lattice,
//     which is the shape the Theorem 17 estimator conditions on (its
//     failure bound union-bounds over the distinct subsets queried).
// One call's trials run in order on the thread that issued it and stop at
// the first witness. Intra-query parallelism lives one level up: the DLM
// estimator fans whole calls (on distinct forks) across lanes, paying one
// task hand-off per call instead of one per sub-microsecond trial.
#ifndef CQCOUNT_COUNTING_COLOUR_CODING_H_
#define CQCOUNT_COUNTING_COLOUR_CODING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "counting/partite_hypergraph.h"
#include "hom/hom_oracle.h"
#include "query/query.h"
#include "util/cancel.h"
#include "util/executor.h"
#include "util/random.h"

namespace cqcount {

namespace internal {

/// Per-trial overlay builder: one packed mask per disequality endpoint
/// variable, intersected across the disequalities that constrain it.
/// Buffers are reused across trials and oracle calls (no per-trial
/// allocation after warm-up).
class TrialOverlay {
 public:
  explicit TrialOverlay(const Query& q);

  /// The disequality endpoint variables (sorted, duplicate-free): the only
  /// variables whose domains change across colouring trials.
  const std::vector<int>& endpoint_vars() const { return endpoint_vars_; }

  /// Draws one colouring per disequality from `rng` (ceil(universe/64)
  /// outputs each, bit i of a colouring being bit i%64 of draw i/64, as
  /// Rng::RandomMaskInto lays it out) and returns the merged per-endpoint
  /// restrictions. The views are valid until the next Draw().
  const std::vector<DomainRestriction>& Draw(Rng& rng, uint32_t universe);

 private:
  // The mask of `var`, sized to `universe`; `*first` reports whether this
  // is its first touch in the current trial.
  Bitset& Touch(int var, uint32_t universe, bool* first);

  const std::vector<Disequality>& disequalities_;
  std::vector<int> endpoint_vars_;
  std::vector<int> slot_of_;
  std::vector<Bitset> masks_;
  std::vector<char> touched_;
  std::vector<DomainRestriction> restrictions_;
};

}  // namespace internal

/// Tuning for the colour-coding simulation.
struct ColourCodingOptions {
  /// Per-IsEdgeFree-call failure probability delta' (one-sided: only
  /// "edge-free" answers can be wrong).
  double per_call_failure = 1e-4;
  /// Deterministic seed for the colouring sampler.
  uint64_t seed = 0x5EEDC01DULL;
  /// Ignored: a call's trials always run inline on the calling thread
  /// (callers parallelise across calls on forks). Kept for source
  /// compatibility.
  Executor* pool = nullptr;
  /// Ignored, like `pool`.
  int lanes = 1;
  /// Cooperative governance (not owned; null = ungoverned). A fired
  /// governor makes the trial loop stop early and answer "edge-free";
  /// that answer is only ever consumed by an enclosing governed estimator,
  /// which re-checks the sticky latch and discards the whole work unit, so
  /// a truncated verdict never reaches a reported estimate.
  const ResourceGovernor* governor = nullptr;
};

/// EdgeFree oracle implemented by colour-coded Hom queries (Lemma 22).
class ColourCodingEdgeFreeOracle : public EdgeFreeOracle {
 public:
  /// `hom` must outlive the oracle; `universe_size` = |U(D)|.
  ColourCodingEdgeFreeOracle(const Query& q, HomOracle* hom,
                             uint32_t universe_size,
                             const ColourCodingOptions& opts);
  ~ColourCodingEdgeFreeOracle() override;

  bool IsEdgeFree(const PartiteSubset& parts) override;

  /// Lane fork (see EdgeFreeOracle::Fork): shares the Hom oracle's
  /// immutable state through a private HomContext; answers every subset
  /// identically to the parent (subset-keyed colourings). Null when the
  /// Hom oracle has no concurrent path.
  std::unique_ptr<EdgeFreeOracle> Fork() override;

  /// Number of colouring trials used per oracle call (Q).
  uint64_t trials_per_call() const { return trials_per_call_; }
  /// Total Hom queries issued.
  uint64_t hom_queries() const { return hom_->num_calls(); }

 private:
  // Fork constructor: shares the parent's query and Hom oracle, owns a
  // private context.
  ColourCodingEdgeFreeOracle(const ColourCodingEdgeFreeOracle& parent,
                             std::unique_ptr<HomContext> ctx);

  const Query& query_;
  HomOracle* hom_;
  uint32_t universe_;
  uint64_t trials_per_call_;
  ColourCodingOptions opts_;
  // Per-oracle Hom evaluation context (null for oracles whose Hom oracle
  // has no concurrent path: they use the oracle's default context).
  std::unique_ptr<HomContext> hom_ctx_;
  // Reusable per-trial endpoint-mask builder (only the <= 2|Delta|
  // disequality endpoint domains change across trials).
  std::unique_ptr<internal::TrialOverlay> overlay_;
  // Per-call base domains, reused across calls (no per-call allocation
  // after warm-up).
  VarDomains base_;
};

/// Amplified decision "does (phi, D) have any solution?" via colour-coded
/// Hom queries; wrong (false negative) with probability <= delta. Used for
/// the l = 0 case and for answer-membership tests.
bool DecideAnySolution(const Query& q, HomOracle* hom, uint32_t universe_size,
                       const VarDomains& base_domains, double delta, Rng& rng);

}  // namespace cqcount

#endif  // CQCOUNT_COUNTING_COLOUR_CODING_H_
