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
// Randomness / determinism model: a colouring is a pure function of its
// coordinates. In the trial keyed `trial_key`, word w of f_eta (the
// colouring of disequality number eta) is
//   ColourWord(trial_key, eta, w) = DeriveSeed(trial_key, eta * 2^32 + w),
// a SplitMix64 output, and value v's colour is bit v % 64 of word v / 64
// (1 = red). Any value's colour is thus computed on its own, in any
// order. IsEdgeFree keys its call on the subset,
// call_seed = DeriveSeed(seed, HashPartiteSubset(V_1..V_l)), and trial t
// on trial_key = DeriveSeed(call_seed, t). Consequences, all deliberate:
//   - Every fork of the oracle (worker lanes of the parallel estimator)
//     answers a given subset exactly as the root would, so estimates are
//     bit-identical at any thread count.
//   - Repeat queries of one subset reuse the same colourings: the oracle
//     behaves like a single fixed random object over the subset lattice,
//     which is the shape the Theorem 17 estimator conditions on (its
//     failure bound union-bounds over the distinct subsets queried).
//   - A trial colours only the values its Hom decisions can read (the
//     context's overlay candidates, HomContext::OverlayCandidates) when
//     that is cheaper than colouring every word, and the whole universe
//     otherwise. Both give the same colour at every value read, so the
//     verdict never depends on the choice.
// Lemma 22 needs each f_eta uniform and the colourings independent across
// disequalities and trials: distinct (trial_key, eta, w) feed distinct
// inputs to the SplitMix64 finaliser, as DeriveSeed's streams do.
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

/// Word `w` of disequality `eta`'s colouring in the trial keyed
/// `trial_key`: bit i is the colour of value 64w + i (1 = red).
inline uint64_t ColourWord(uint64_t trial_key, uint32_t eta, uint64_t w) {
  return DeriveSeed(trial_key, (uint64_t{eta} << 32) + w);
}

/// Per-trial overlay builder: one packed mask per disequality endpoint
/// variable, intersected across the disequalities that constrain it.
/// Buffers are reused across trials and oracle calls (no per-trial
/// allocation after warm-up).
class TrialOverlay {
 public:
  explicit TrialOverlay(const Query& q);
  // The restriction views point into masks_.
  TrialOverlay(const TrialOverlay&) = delete;
  TrialOverlay& operator=(const TrialOverlay&) = delete;

  /// The disequality endpoint variables (sorted, duplicate-free): the only
  /// variables whose domains change across colouring trials.
  const std::vector<int>& endpoint_vars() const { return endpoint_vars_; }

  /// Fixes the universe and the values the following Draws must colour:
  /// each endpoint variable's overlay candidates in `ctx` (every value
  /// when `ctx` is null or does not know them). A disequality whose two
  /// endpoints have fewer candidates in total than a colouring has words
  /// colours just those; any other colours every word. The candidate
  /// lists must stay valid until the next BeginCall.
  void BeginCall(uint32_t universe, const HomContext* ctx);

  /// The merged endpoint restrictions of the trial keyed `trial_key`:
  /// each mask is correct at every value BeginCall asked for, and its
  /// other bits are unspecified. The views are valid until the next Draw.
  const std::vector<DomainRestriction>& Draw(uint64_t trial_key);

 private:
  // The endpoint slot of `var`.
  size_t Slot(int var) const {
    return static_cast<size_t>(slot_of_[static_cast<size_t>(var)]);
  }
  // The mask of `var`; `*first` reports whether this is its first touch
  // in the current trial.
  Bitset& Touch(int var, bool* first);

  const std::vector<Disequality>& disequalities_;
  std::vector<int> endpoint_vars_;
  std::vector<int> slot_of_;
  std::vector<Bitset> masks_;
  std::vector<char> touched_;
  std::vector<DomainRestriction> restrictions_;
  uint32_t universe_ = 0;
  // Per endpoint slot: the values to colour, null for every value.
  std::vector<const std::vector<Value>*> candidates_;
  // Per disequality: colour only the endpoints' candidates.
  std::vector<char> sparse_;
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
/// the l = 0 case and for answer-membership tests. Takes one draw from
/// `rng` as its call seed.
bool DecideAnySolution(const Query& q, HomOracle* hom, uint32_t universe_size,
                       const VarDomains& base_domains, double delta, Rng& rng);

}  // namespace cqcount

#endif  // CQCOUNT_COUNTING_COLOUR_CODING_H_
