#include "counting/colour_coding.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cqcount {
namespace {

// Q = ceil(ln(1/delta')) * 4^{|Delta|}, clamped to at least one trial.
uint64_t NumTrials(size_t num_disequalities, double per_call_failure) {
  const double log_term = std::ceil(std::log(1.0 / per_call_failure));
  double trials = std::max(1.0, log_term);
  for (size_t i = 0; i < num_disequalities; ++i) trials *= 4.0;
  // Clamp to something addressable; ||phi|| is a parameter, so this is the
  // paper's exp(O(||phi||^2)) factor showing up in practice.
  return static_cast<uint64_t>(std::min(trials, 1e15));
}

// Sorted, duplicate-free list of disequality endpoint variables — the
// only variables whose domains change across colouring trials.
std::vector<int> EndpointVars(const Query& q) {
  std::vector<int> vars;
  for (const Disequality& d : q.disequalities()) {
    vars.push_back(d.lhs);
    vars.push_back(d.rhs);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

}  // namespace

namespace internal {

TrialOverlay::TrialOverlay(const Query& q)
    : disequalities_(q.disequalities()), endpoint_vars_(EndpointVars(q)) {
  masks_.resize(endpoint_vars_.size());
  slot_of_.assign(static_cast<size_t>(q.num_vars()), -1);
  for (size_t k = 0; k < endpoint_vars_.size(); ++k) {
    slot_of_[static_cast<size_t>(endpoint_vars_[k])] = static_cast<int>(k);
  }
}

const std::vector<DomainRestriction>& TrialOverlay::Draw(Rng& rng,
                                                         uint32_t universe) {
  touched_.assign(masks_.size(), 0);
  const size_t words = (static_cast<size_t>(universe) + 63) / 64;
  // A local copy of the stream keeps the generator state in registers
  // (writes through the mask words could otherwise alias it).
  Rng stream = rng;
  for (const Disequality& d : disequalities_) {
    // f_eta : U(D) -> {r, b} uniformly at random; the smaller endpoint
    // must land red, the larger blue (Definition 26's R_eta / B_eta).
    // Each 64-element word of f_eta is drawn once and written straight
    // into both endpoint masks (assigned on a mask's first touch this
    // trial, intersected after), so no colouring is materialised.
    bool red_first = false;
    bool blue_first = false;
    Bitset& red_mask = Touch(d.lhs, universe, &red_first);
    Bitset& blue_mask = Touch(d.rhs, universe, &blue_first);
    uint64_t* red = red_mask.mutable_words();
    uint64_t* blue = blue_mask.mutable_words();
    for (size_t w = 0; w < words; ++w) {
      const uint64_t r = stream.Next();
      red[w] = red_first ? r : red[w] & r;
      blue[w] = blue_first ? ~r : blue[w] & ~r;
    }
    if (words > 0) {
      red[words - 1] &= red_mask.TailMask();
      blue[words - 1] &= blue_mask.TailMask();
    }
  }
  rng = stream;
  restrictions_.clear();
  for (size_t k = 0; k < masks_.size(); ++k) {
    restrictions_.push_back({endpoint_vars_[k], &masks_[k]});
  }
  return restrictions_;
}

Bitset& TrialOverlay::Touch(int var, uint32_t universe, bool* first) {
  const size_t slot = static_cast<size_t>(slot_of_[static_cast<size_t>(var)]);
  *first = !touched_[slot];
  touched_[slot] = 1;
  Bitset& mask = masks_[slot];
  if (mask.size() != universe) mask.Assign(universe, false);
  return mask;
}

}  // namespace internal

using internal::TrialOverlay;

ColourCodingEdgeFreeOracle::ColourCodingEdgeFreeOracle(
    const Query& q, HomOracle* hom, uint32_t universe_size,
    const ColourCodingOptions& opts)
    : query_(q),
      hom_(hom),
      universe_(universe_size),
      trials_per_call_(
          NumTrials(q.disequalities().size(), opts.per_call_failure)),
      opts_(opts),
      hom_ctx_(hom->SupportsConcurrentDecides() ? hom->CreateContext()
                                                : nullptr),
      overlay_(std::make_unique<TrialOverlay>(q)) {}

ColourCodingEdgeFreeOracle::ColourCodingEdgeFreeOracle(
    const ColourCodingEdgeFreeOracle& parent, std::unique_ptr<HomContext> ctx)
    : query_(parent.query_),
      hom_(parent.hom_),
      universe_(parent.universe_),
      trials_per_call_(parent.trials_per_call_),
      opts_(parent.opts_),
      hom_ctx_(std::move(ctx)),
      overlay_(std::make_unique<TrialOverlay>(query_)) {}

ColourCodingEdgeFreeOracle::~ColourCodingEdgeFreeOracle() = default;

std::unique_ptr<EdgeFreeOracle> ColourCodingEdgeFreeOracle::Fork() {
  if (!hom_->SupportsConcurrentDecides()) return nullptr;
  std::unique_ptr<HomContext> ctx = hom_->CreateContext();
  if (ctx == nullptr) return nullptr;
  return std::unique_ptr<EdgeFreeOracle>(
      new ColourCodingEdgeFreeOracle(*this, std::move(ctx)));
}

bool ColourCodingEdgeFreeOracle::IsEdgeFree(const PartiteSubset& parts) {
  ++num_calls_;
  assert(static_cast<int>(parts.parts.size()) == query_.num_free());

  // Base domains: free variable i restricted to V_i, existentials free.
  // Fixed across all trials of this call (Lemma 22): the oracle hoists
  // every base-dependent cost out of the trial loop via Prepare.
  base_.allowed.resize(static_cast<size_t>(query_.num_vars()));
  for (int i = 0; i < query_.num_free(); ++i) {
    Bitset& allowed = base_.allowed[static_cast<size_t>(i)];
    allowed = parts.parts[i];
    allowed.Resize(universe_, false);
    // Fast path: an empty V_i admits no edge (word-parallel scan).
    if (allowed.None()) return true;
  }

  std::unique_ptr<PreparedHom> prepared =
      hom_->Prepare(base_, overlay_->endpoint_vars(), hom_ctx_.get());
  if (query_.disequalities().empty()) {
    return !prepared->Decide({});
  }

  // Colourings are a pure function of (seed, subset, trial): every fork
  // draws the identical masks for trial t of this subset.
  const uint64_t call_seed =
      DeriveSeed(opts_.seed, HashPartiteSubset(parts));
  for (uint64_t trial = 0; trial < trials_per_call_; ++trial) {
    // Trial-batch checkpoint: a fired governor truncates the loop (the
    // enclosing governed work unit is discarded wholesale, so the
    // truncated verdict never feeds a reported estimate).
    if ((trial & 63u) == 0u && opts_.governor != nullptr &&
        opts_.governor->Check() != GovernanceState::kRunning) {
      break;
    }
    Rng trial_rng(DeriveSeed(call_seed, trial));
    const std::vector<DomainRestriction>& extra =
        overlay_->Draw(trial_rng, universe_);
    if (prepared->Decide(extra)) return false;  // Witness: has an edge.
  }
  return true;
}

bool DecideAnySolution(const Query& q, HomOracle* hom, uint32_t universe_size,
                       const VarDomains& base_domains, double delta,
                       Rng& rng) {
  const auto& disequalities = q.disequalities();
  if (disequalities.empty()) {
    return hom->Decide(base_domains);
  }
  TrialOverlay overlay(q);
  std::unique_ptr<PreparedHom> prepared =
      hom->Prepare(base_domains, overlay.endpoint_vars());
  const uint64_t trials = NumTrials(disequalities.size(), delta);
  for (uint64_t trial = 0; trial < trials; ++trial) {
    const std::vector<DomainRestriction>& extra =
        overlay.Draw(rng, universe_size);
    if (prepared->Decide(extra)) return true;
  }
  return false;
}

}  // namespace cqcount
