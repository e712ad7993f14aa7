#include "traced_stack.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "compile/compiled_query.h"
#include "compile/passes.h"
#include "counting/colour_coding.h"
#include "counting/dlm_counter.h"
#include "counting/fptras.h"
#include "decomposition/width_measures.h"
#include "engine/plan.h"
#include "hom/hom_oracle.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "util/random.h"

namespace perfbench {
namespace {

using namespace cqcount;

enum Layer : int {
  kRequest,  // The request root: its self time is unattributed.
  kParse,
  kCompile,
  kPlan,
  kDecomposition,
  kHomBuild,
  kHomCacheBuild,
  kHomPrepare,
  kHomDecide,
  kEdgeFree,
  kDlm,
  kNumLayers
};

const char* const kSpanNames[kNumLayers] = {
    "perfbench.request", "query.parse",    "compile.compile",
    "engine.plan",       "decomposition.search", "hom.build",
    "hom.cache_build",   "hom.prepare",    "hom.decide",
    "counting.edgefree", "counting.dlm"};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct LayerTotals {
  uint64_t self_ns[kNumLayers] = {};
  uint64_t incl_ns[kNumLayers] = {};
  uint64_t calls[kNumLayers] = {};
};

// Per-thread layer clocks. Each thread writes only its own state; the
// pass reads them after every lane task has finished (the executor's
// waits order those writes before the read).
class LayerClock {
 public:
  struct Frame {
    uint64_t start = 0;
    uint64_t child = 0;
  };
  struct ThreadState {
    LayerTotals totals;
    std::vector<Frame> stack;
    uint64_t decides = 0;
  };

  static LayerClock& Get() {
    static LayerClock* clock = new LayerClock();
    return *clock;
  }

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  ThreadState& Local() {
    thread_local ThreadState* state = nullptr;
    if (state == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::make_unique<ThreadState>());
      state = threads_.back().get();
    }
    return *state;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& t : threads_) t->totals = LayerTotals{};
  }

  LayerTotals Sum() {
    std::lock_guard<std::mutex> lock(mu_);
    LayerTotals sum;
    for (const auto& t : threads_) {
      for (int l = 0; l < kNumLayers; ++l) {
        sum.self_ns[l] += t->totals.self_ns[l];
        sum.incl_ns[l] += t->totals.incl_ns[l];
        sum.calls[l] += t->totals.calls[l];
      }
    }
    return sum;
  }

  // The request id every span of the current request carries (requests
  // run one at a time; lanes read it while the request is in flight).
  std::atomic<const char*> request_tag{nullptr};

 private:
  LayerClock() = default;
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

// Times one layer call on the calling thread (no-op while the clock is
// off) and opens the matching obs::Span.
class LayerScope {
 public:
  explicit LayerScope(Layer layer) : layer_(layer) {
    LayerClock& clock = LayerClock::Get();
    if (!clock.on()) return;
    state_ = &clock.Local();
    if (layer != kHomDecide || state_->decides++ % 64 == 0) {
      span_.emplace(kSpanNames[layer]);
      if (const char* tag = clock.request_tag.load(std::memory_order_relaxed)) {
        span_->SetAttribute("request", tag);
      }
    }
    state_->stack.push_back({NowNs(), 0});
  }
  ~LayerScope() {
    if (state_ == nullptr) return;
    const LayerClock::Frame frame = state_->stack.back();
    state_->stack.pop_back();
    const uint64_t duration = NowNs() - frame.start;
    LayerTotals& t = state_->totals;
    t.incl_ns[layer_] += duration;
    t.self_ns[layer_] += duration - std::min(duration, frame.child);
    ++t.calls[layer_];
    if (!state_->stack.empty()) state_->stack.back().child += duration;
  }

  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  Layer layer_;
  LayerClock::ThreadState* state_ = nullptr;
  std::optional<obs::Span> span_;
};

class TimedPreparedHom : public PreparedHom {
 public:
  TimedPreparedHom(std::unique_ptr<PreparedHom> inner, HomOracle* owner)
      : inner_(std::move(inner)), owner_(owner) {}

  bool Decide(const std::vector<DomainRestriction>& extra) override {
    LayerScope scope(kHomDecide);
    owner_->RecordPreparedDecide();
    return inner_->Decide(extra);
  }
  bool Decide(const std::vector<DomainRestriction>& extra,
              HomContext& lane) override {
    LayerScope scope(kHomDecide);
    owner_->RecordPreparedDecide();
    return inner_->Decide(extra, lane);
  }

 private:
  std::unique_ptr<PreparedHom> inner_;
  HomOracle* owner_;
};

// The first Prepare on a fresh oracle builds the solver's bag-join cache,
// so it is timed as hom.cache_build; later ones as hom.prepare.
class TimedHomOracle : public HomOracle {
 public:
  explicit TimedHomOracle(DecompositionHomOracle& inner) : inner_(inner) {}

  bool Decide(const VarDomains& domains) override {
    LayerScope scope(kHomDecide);
    RecordDecide();
    return inner_.Decide(domains);
  }
  std::unique_ptr<PreparedHom> Prepare(const VarDomains& base,
                                       std::vector<int> overlay_vars) override {
    LayerScope scope(PrepareLayer());
    return std::make_unique<TimedPreparedHom>(
        inner_.Prepare(base, std::move(overlay_vars)), this);
  }
  std::unique_ptr<PreparedHom> Prepare(const VarDomains& base,
                                       std::vector<int> overlay_vars,
                                       HomContext* ctx) override {
    LayerScope scope(PrepareLayer());
    return std::make_unique<TimedPreparedHom>(
        inner_.Prepare(base, std::move(overlay_vars), ctx), this);
  }
  std::unique_ptr<HomContext> CreateContext() override {
    return inner_.CreateContext();
  }
  bool SupportsConcurrentDecides() const override {
    return inner_.SupportsConcurrentDecides();
  }

 private:
  Layer PrepareLayer() {
    return built_.exchange(true) ? kHomPrepare : kHomCacheBuild;
  }

  DecompositionHomOracle& inner_;
  std::atomic<bool> built_{false};
};

class TimedEdgeFreeOracle : public EdgeFreeOracle {
 public:
  explicit TimedEdgeFreeOracle(EdgeFreeOracle& inner) : inner_(&inner) {}
  explicit TimedEdgeFreeOracle(std::unique_ptr<EdgeFreeOracle> fork)
      : inner_(fork.get()), owned_(std::move(fork)) {}

  bool IsEdgeFree(const PartiteSubset& parts) override {
    LayerScope scope(kEdgeFree);
    num_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->IsEdgeFree(parts);
  }
  // Each DLM lane drives its own fork; wrapping it times the lane too.
  std::unique_ptr<EdgeFreeOracle> Fork() override {
    std::unique_ptr<EdgeFreeOracle> fork = inner_->Fork();
    if (fork == nullptr) return nullptr;
    return std::make_unique<TimedEdgeFreeOracle>(std::move(fork));
  }

 private:
  EdgeFreeOracle* inner_;
  std::unique_ptr<EdgeFreeOracle> owned_;
};

// Work counts of one pass (deterministic unless noted).
struct PassCounts {
  uint64_t requests = 0;
  uint64_t dlm_calls = 0;
  uint64_t exact_phase = 0;
  uint64_t edgefree_calls = 0;
  uint64_t trials_per_call_sum = 0;
};

// One component's FPTRAS stack, mirroring ApproxCountAnswers step by step
// (same delta split, colour-coding seed and per-call failure).
StatusOr<double> RunComponent(const Query& q, const Database& db,
                              const ApproxOptions& opts,
                              PassCounts* counts) {
  std::optional<DecompositionHomOracle> hom;
  {
    LayerScope scope(kHomBuild);
    hom.emplace(q, db, opts.precomputed_decomposition->decomposition);
  }
  TimedHomOracle timed_hom(*hom);
  ColourCodingOptions cc;
  cc.per_call_failure =
      opts.delta / (2.0 * static_cast<double>(opts.dlm.max_oracle_calls));
  cc.seed = opts.seed ^ 0x9E3779B97F4A7C15ULL;
  cc.pool = opts.pool;
  cc.lanes = opts.intra_threads;
  if (q.num_free() == 0) {
    Rng rng(cc.seed);
    VarDomains unrestricted;
    return DecideAnySolution(q, &timed_hom, db.universe_size(), unrestricted,
                             opts.delta, rng)
               ? 1.0
               : 0.0;
  }
  ColourCodingEdgeFreeOracle oracle(q, &timed_hom, db.universe_size(), cc);
  TimedEdgeFreeOracle timed_oracle(oracle);
  DlmOptions dlm = opts.dlm;
  dlm.epsilon = opts.epsilon;
  dlm.delta = opts.delta / 2.0;
  dlm.seed = opts.seed;
  dlm.pool = opts.pool;
  dlm.intra_threads = opts.intra_threads;
  const std::vector<uint32_t> parts(q.num_free(), db.universe_size());
  StatusOr<DlmResult> result = [&] {
    LayerScope scope(kDlm);
    return DlmCountEdges(parts, timed_oracle, dlm);
  }();
  if (!result.ok()) return result.status();
  counts->trials_per_call_sum += oracle.trials_per_call();
  ++counts->dlm_calls;
  counts->edgefree_calls += result->oracle_calls;
  // DLM's exact phase only ever returns counts within its enumeration
  // budget; larger exact results come from the frontier expansion.
  if (result->exact &&
      result->estimate <= static_cast<double>(dlm.exact_enumeration_budget)) {
    ++counts->exact_phase;
  }
  if (!result->converged || result->partial) {
    return Status::Internal("DLM did not converge");
  }
  return result->estimate;
}

// Span attributes must outlive the trace sink: the tags live forever.
// Called only by the thread running the pass.
const char* RequestTag(size_t i) {
  static std::deque<std::string> tags;
  while (tags.size() <= i) {
    std::string tag = "r";
    tag += std::to_string(tags.size());
    tags.push_back(std::move(tag));
  }
  return tags[i].c_str();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

PassResult RunStackPass(const std::vector<StackRequest>& requests,
                        const StackOptions& opts, bool record, bool compare) {
  PassResult out;
  LayerClock& clock = LayerClock::Get();
  clock.Reset();
  clock.set_on(record);
  PassCounts counts;
  // Cold caches: plans by (database, canonical shape), decompositions by
  // component text (they are in the component's own variable numbering).
  std::map<std::pair<const Database*, std::string>, QueryPlan> plans;
  std::map<std::string, FWidthResult> decompositions;

  for (size_t i = 0; i < requests.size() && out.ok; ++i) {
    const Database& db = *requests[i].db;
    clock.request_tag.store(RequestTag(i), std::memory_order_relaxed);
    struct Pending {
      const Query* query;
      ApproxOptions opts;
      double estimate;
    };
    std::vector<Pending> pending;
    CompiledQuery compiled;
    double product = 1.0;
    const uint64_t start = NowNs();
    {
      LayerScope root(kRequest);
      StatusOr<Query> parsed = [&] {
        LayerScope scope(kParse);
        return ParseQuery(requests[i].query);
      }();
      if (!parsed.ok()) {
        out.ok = false;
        out.error = "parse: " + parsed.status().message();
        break;
      }
      {
        LayerScope scope(kCompile);
        compiled = CompileQuery(*parsed);
      }
      bool guards_hold = true;
      for (const NullaryGuard& g : compiled.guards) {
        guards_hold = guards_hold && GuardHolds(g, db);
      }
      if (!guards_hold) product = 0.0;
      for (size_t c = 0; guards_hold && c < compiled.components.size(); ++c) {
        const QueryComponent& comp = compiled.components[c];
        const auto plan_key = std::make_pair(&db, comp.shape.key);
        auto plan = plans.find(plan_key);
        if (plan == plans.end()) {
          LayerScope scope(kPlan);
          const CanonicalShape shape = CanonicalQueryShape(comp.query);
          plan = plans.emplace(plan_key, BuildQueryPlan(comp.query, shape, db,
                                                        PlanOptions{}))
                     .first;
        }
        const WidthObjective objective =
            plan->second.strategy == Strategy::kFptrasFhw
                ? WidthObjective::kFractionalHypertreewidth
                : WidthObjective::kTreewidth;
        const std::string text = comp.query.ToString() +
                                 (objective == WidthObjective::kTreewidth
                                      ? "#tw"
                                      : "#fhw");
        auto decomposition = decompositions.find(text);
        if (decomposition == decompositions.end()) {
          LayerScope scope(kDecomposition);
          decomposition =
              decompositions
                  .emplace(text, ComputeDecomposition(
                                     comp.query.BuildHypergraph(), objective))
                  .first;
        }
        const BudgetShare share = SplitBudget(
            opts.epsilon, opts.delta, compiled.num_counting_components(),
            compiled.num_components(), comp.existential);
        ApproxOptions approx;
        approx.epsilon = share.epsilon;
        approx.delta = share.delta;
        approx.seed = DeriveSeed(0xC0FFEEULL, {i, c});
        approx.objective = objective;
        approx.precomputed_decomposition = &decomposition->second;
        approx.pool = opts.lanes > 1 ? opts.pool : nullptr;
        approx.intra_threads = opts.lanes;
        StatusOr<double> estimate =
            RunComponent(comp.query, db, approx, &counts);
        if (!estimate.ok()) {
          out.ok = false;
          out.error = "stack: " + estimate.status().message();
          break;
        }
        // A purely existential component is a 0/1 factor.
        product *= comp.existential ? (*estimate > 0 ? 1.0 : 0.0) : *estimate;
        pending.push_back({&comp.query, approx, *estimate});
      }
    }
    out.wall_s += static_cast<double>(NowNs() - start) * 1e-9;
    out.estimates.push_back(product);
    ++counts.requests;
    if (!compare || !out.ok) continue;
    clock.set_on(false);
    for (const Pending& p : pending) {
      StatusOr<ApproxCountResult> direct =
          ApproxCountAnswers(*p.query, db, p.opts);
      if (!direct.ok() ||
          std::memcmp(&direct->estimate, &p.estimate, sizeof(double)) != 0) {
        out.ok = false;
        out.error = "assembled stack differs from ApproxCountAnswers on " +
                    requests[i].query;
      }
    }
    clock.set_on(record);
  }
  clock.set_on(false);
  clock.request_tag.store(nullptr, std::memory_order_relaxed);
  if (!record) return out;

  const LayerTotals t = clock.Sum();
  auto mean_ms = [&](Layer l) {
    return Ratio(static_cast<double>(t.incl_ns[l]) * 1e-6,
                 static_cast<double>(t.calls[l]));
  };
  double busy = 0;
  for (int l = 0; l < kNumLayers; ++l) busy += static_cast<double>(t.self_ns[l]);
  auto frac = [&](std::initializer_list<Layer> layers) {
    double sum = 0;
    for (Layer l : layers) sum += static_cast<double>(t.self_ns[l]);
    return Ratio(sum, busy);
  };
  MetricMap& m = out.metrics;
  m["query.parse_us"] = mean_ms(kParse) * 1e3;
  m["compile.compile_us"] = mean_ms(kCompile) * 1e3;
  m["engine.plan_ms"] = mean_ms(kPlan);
  m["decomposition.search_ms"] = mean_ms(kDecomposition);
  m["counting.dlm_self_ms"] = Ratio(static_cast<double>(t.self_ns[kDlm]) * 1e-6,
                                    static_cast<double>(t.calls[kDlm]));
  m["counting.edgefree_calls"] =
      Ratio(static_cast<double>(counts.edgefree_calls),
            static_cast<double>(counts.requests));
  m["counting.edgefree_us"] = mean_ms(kEdgeFree) * 1e3;
  m["counting.colour_trials_per_call"] =
      Ratio(static_cast<double>(counts.trials_per_call_sum),
            static_cast<double>(counts.dlm_calls));
  m["counting.exact_phase_frac"] =
      Ratio(static_cast<double>(counts.exact_phase),
            static_cast<double>(counts.dlm_calls));
  m["hom.cache_build_ms"] = mean_ms(kHomCacheBuild);
  m["hom.prepare_us"] = mean_ms(kHomPrepare) * 1e3;
  m["hom.decide_us"] = mean_ms(kHomDecide) * 1e3;
  m["hom.decides_per_edgefree_call"] =
      Ratio(static_cast<double>(t.calls[kHomDecide]),
            static_cast<double>(t.calls[kEdgeFree]));
  m["engine.unattributed_frac"] = frac({kRequest});
  m["query.self_frac"] = frac({kParse});
  m["compile.self_frac"] = frac({kCompile});
  m["engine.plan_self_frac"] = frac({kPlan});
  m["decomposition.self_frac"] = frac({kDecomposition});
  m["hom.self_frac"] = frac({kHomBuild, kHomCacheBuild, kHomPrepare, kHomDecide});
  m["counting.edgefree_self_frac"] = frac({kEdgeFree});
  m["counting.dlm_self_frac"] = frac({kDlm});
  m["trace.busy_ms"] = busy * 1e-6;
  return out;
}

}  // namespace perfbench
