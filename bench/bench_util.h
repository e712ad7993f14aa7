// Shared table-printing and sizing helpers for the bench binaries.
#ifndef CQCOUNT_BENCH_BENCH_UTIL_H_
#define CQCOUNT_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace cqcount {
namespace bench {

/// True when CQCOUNT_BENCH_SMOKE is set to a non-zero value. CI smoke-runs
/// every bench binary at tiny sizes so bench code cannot bit-rot between
/// perf PRs; numbers produced under smoke mode are NOT comparable
/// baselines and must never be checked in.
inline bool SmokeMode() {
  const char* env = std::getenv("CQCOUNT_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// `full` normally, `tiny` under SmokeMode().
template <typename T>
inline T Sized(T full, T tiny) {
  return SmokeMode() ? tiny : full;
}

inline void Header(const std::string& id, const std::string& title) {
  std::printf("\n==========================================================\n");
  std::printf("%s  %s\n", id.c_str(), title.c_str());
  std::printf("==========================================================\n");
}

inline void Row(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

/// Relative error |estimate - exact| / exact (0 when both are zero).
inline double RelativeError(double estimate, double exact) {
  if (exact == 0.0) return estimate == 0.0 ? 0.0 : 1.0;
  return std::abs(estimate - exact) / exact;
}

}  // namespace bench
}  // namespace cqcount

#endif  // CQCOUNT_BENCH_BENCH_UTIL_H_
