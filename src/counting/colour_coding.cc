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
namespace {

// Writes the colour of each value in `values` (red, or blue = not red)
// into `mask`: assigned on the mask's first touch this trial, intersected
// after. Values past the mask's universe are skipped: every mask test
// fails there anyway.
void ColourValues(Bitset& mask, const std::vector<Value>& values,
                  uint64_t trial_key, uint32_t eta, bool red, bool first) {
  uint64_t* words = mask.mutable_words();
  uint64_t cached_w = ~uint64_t{0};
  uint64_t colour = 0;
  for (const Value v : values) {
    if (v >= mask.size()) continue;
    const uint64_t w = v / 64;
    if (w != cached_w) {
      cached_w = w;
      colour = ColourWord(trial_key, eta, w);
      if (!red) colour = ~colour;
    }
    const uint64_t bit = uint64_t{1} << (v % 64);
    words[w] = first ? (words[w] & ~bit) | (colour & bit)
                     : words[w] & (colour | ~bit);
  }
}

}  // namespace

TrialOverlay::TrialOverlay(const Query& q)
    : disequalities_(q.disequalities()), endpoint_vars_(EndpointVars(q)) {
  masks_.resize(endpoint_vars_.size());
  touched_.resize(endpoint_vars_.size());
  candidates_.resize(endpoint_vars_.size());
  sparse_.resize(disequalities_.size());
  slot_of_.assign(static_cast<size_t>(q.num_vars()), -1);
  for (size_t k = 0; k < endpoint_vars_.size(); ++k) {
    slot_of_[static_cast<size_t>(endpoint_vars_[k])] = static_cast<int>(k);
    restrictions_.push_back({endpoint_vars_[k], &masks_[k]});
  }
}

void TrialOverlay::BeginCall(uint32_t universe, const HomContext* ctx) {
  universe_ = universe;
  for (size_t k = 0; k < endpoint_vars_.size(); ++k) {
    candidates_[k] =
        ctx == nullptr ? nullptr : ctx->OverlayCandidates(endpoint_vars_[k]);
  }
  // Colouring the candidates costs one ColourWord per candidate and
  // endpoint; colouring every word costs one per word, shared by both
  // endpoints. Take the cheaper.
  const size_t words = (static_cast<size_t>(universe) + 63) / 64;
  for (size_t e = 0; e < disequalities_.size(); ++e) {
    const std::vector<Value>* red = candidates_[Slot(disequalities_[e].lhs)];
    const std::vector<Value>* blue = candidates_[Slot(disequalities_[e].rhs)];
    sparse_[e] = red != nullptr && blue != nullptr &&
                 red->size() + blue->size() < words;
  }
}

const std::vector<DomainRestriction>& TrialOverlay::Draw(uint64_t trial_key) {
  std::fill(touched_.begin(), touched_.end(), 0);
  const size_t words = (static_cast<size_t>(universe_) + 63) / 64;
  for (size_t e = 0; e < disequalities_.size(); ++e) {
    // f_eta : U(D) -> {r, b} uniformly at random; the smaller endpoint
    // must land red, the larger blue (Definition 26's R_eta / B_eta).
    // Colours are written straight into both endpoint masks (assigned on
    // a mask's first touch this trial, intersected after), so no
    // colouring is materialised.
    const Disequality& d = disequalities_[e];
    const uint32_t eta = static_cast<uint32_t>(e);
    bool red_first = false;
    bool blue_first = false;
    Bitset& red_mask = Touch(d.lhs, &red_first);
    Bitset& blue_mask = Touch(d.rhs, &blue_first);
    if (sparse_[e]) {
      ColourValues(red_mask, *candidates_[Slot(d.lhs)], trial_key, eta,
                   /*red=*/true, red_first);
      ColourValues(blue_mask, *candidates_[Slot(d.rhs)], trial_key, eta,
                   /*red=*/false, blue_first);
      continue;
    }
    // Every word, each computed once for both endpoints.
    uint64_t* red = red_mask.mutable_words();
    uint64_t* blue = blue_mask.mutable_words();
    for (size_t w = 0; w < words; ++w) {
      const uint64_t r = ColourWord(trial_key, eta, w);
      red[w] = red_first ? r : red[w] & r;
      blue[w] = blue_first ? ~r : blue[w] & ~r;
    }
    if (words > 0) {
      red[words - 1] &= red_mask.TailMask();
      blue[words - 1] &= blue_mask.TailMask();
    }
  }
  return restrictions_;
}

Bitset& TrialOverlay::Touch(int var, bool* first) {
  const size_t slot = Slot(var);
  *first = !touched_[slot];
  touched_[slot] = 1;
  Bitset& mask = masks_[slot];
  if (mask.size() != universe_) mask.Assign(universe_, false);
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

  // Fast path: an empty V_i admits no edge (word-parallel scan).
  for (const Bitset& part : parts.parts) {
    if (part.None()) return true;
  }
  // Base domains: free variable i restricted to V_i, existentials free.
  // Fixed across all trials of this call (Lemma 22): the oracle hoists
  // every base-dependent cost out of the trial loop via Prepare. Free
  // variables come first, so the V_i are the leading domains and the
  // existentials past them are unrestricted (the short-vector contract).
  base_.allowed.resize(parts.parts.size());
  for (size_t i = 0; i < parts.parts.size(); ++i) {
    Bitset& allowed = base_.allowed[i];
    allowed = parts.parts[i];  // Reuses the buffer of the previous call.
    allowed.Resize(universe_, false);  // No-op when already sized.
  }

  std::unique_ptr<PreparedHom> prepared =
      hom_->Prepare(base_, overlay_->endpoint_vars(), hom_ctx_.get());
  if (query_.disequalities().empty()) {
    return !prepared->Decide({});
  }

  // Colourings are a pure function of (seed, subset, trial): every fork
  // draws the identical masks for trial t of this subset. The Prepare
  // above told the context which values its trials read.
  overlay_->BeginCall(universe_, hom_ctx_.get());
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
    const std::vector<DomainRestriction>& extra =
        overlay_->Draw(DeriveSeed(call_seed, trial));
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
  overlay.BeginCall(universe_size, nullptr);
  const uint64_t call_seed = rng.Next();
  const uint64_t trials = NumTrials(disequalities.size(), delta);
  for (uint64_t trial = 0; trial < trials; ++trial) {
    if (prepared->Decide(overlay.Draw(DeriveSeed(call_seed, trial)))) {
      return true;
    }
  }
  return false;
}

}  // namespace cqcount
