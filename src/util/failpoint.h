// Deterministic fault-injection harness.
//
// A failpoint is a named site compiled into production code (oracle
// prepare, bag-cache build, executor task spawn, database registration,
// DLM frontier steps and run boundaries). Unarmed — the only state the
// library ships in — every site costs one relaxed atomic load of a global
// arm counter.
// Tests arm sites by name to:
//   - inject a typed error Status (spurious failures),
//   - run a callback at the k-th hit (e.g. cancel a CancelToken or
//     advance a ManualClock mid-run, making "cancellation arrives at
//     checkpoint k" an exact, replayable event),
//   - force slow paths (sites like the bag-join cache build consult
//     ShouldFail to take their fallback branch).
//
// Arming is process-global and test-scoped: use ScopedFailpoint so a
// failing test cannot leak an armed site into its siblings. Hit counting
// and fire decisions are serialized per site, so countdown ("skip the
// first N hits, then fire M times") is deterministic under single-lane
// execution; under multi-lane execution the k-th hit is whichever
// checkpoint gets there k-th, which is exactly the randomness the
// random-cancel-point property tests want.
#ifndef CQCOUNT_UTIL_FAILPOINT_H_
#define CQCOUNT_UTIL_FAILPOINT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "util/status.h"

namespace cqcount {
namespace failpoint {

/// How an armed site behaves when it fires.
struct Config {
  /// Hits to let through before the site starts firing.
  uint64_t skip = 0;
  /// Fires before the site disarms itself; 0 = fire forever.
  uint64_t max_fires = 0;
  /// When true, Check() returns Status(error_code, error_message) on
  /// fire; sites that cannot return a Status ignore these two fields.
  bool inject_error = false;
  StatusCode error_code = StatusCode::kInternal;
  std::string error_message;
  /// Invoked on every fire, outside the registry lock (it may arm or
  /// disarm other sites, cancel tokens, advance clocks).
  std::function<void()> on_fire;
};

/// Arms `name` with `config`, replacing any previous arming (hit counts
/// reset). Thread-safe.
void Arm(const std::string& name, Config config);

/// Disarms `name` (no-op when unarmed). Thread-safe.
void Disarm(const std::string& name);

/// Disarms every site (test teardown safety net).
void DisarmAll();

/// Times `name` fired since it was last armed.
uint64_t FireCount(const std::string& name);

/// Evaluates the site. Unarmed: returns OK after one relaxed load. Armed
/// and firing: runs `on_fire`, then returns the configured error when
/// `inject_error` is set, OK otherwise.
Status Check(const char* name);

/// Check() for sites with no Status to return (spawn paths, run
/// boundaries). True when the site fired — callers forcing a slow path
/// branch on it; pure-callback sites may ignore the result.
bool ShouldFail(const char* name);

/// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, Config config) : name_(std::move(name)) {
    Arm(name_, std::move(config));
  }
  ~ScopedFailpoint() { Disarm(name_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

}  // namespace failpoint
}  // namespace cqcount

#endif  // CQCOUNT_UTIL_FAILPOINT_H_
