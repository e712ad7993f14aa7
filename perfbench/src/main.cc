// perfbench: cqcount's end-to-end benchmark.
//
//   perfbench gen --workload W --seed N --out DIR [--tiny]
//       Writes the workload's databases (DIR/<name>.db, text format) and
//       DIR/requests.tsv (reference count, database, query per line). The
//       reference counts come from reference.cc, cached by a hash of the
//       generated inputs in DIR/../ref-cache.
//   perfbench run --workload W --dir DIR --seconds S --trace 0|1
//       Sets the workload up from those files only, runs it for S seconds
//       against the public CountingEngine API, checks every answer, and
//       prints the metrics; the last stdout line is one JSON object.
//       --trace 1 also runs the assembled, traced FPTRAS stack
//       (traced_stack.h), writes DIR/trace.json and reports the per-layer
//       metrics instead of the end-to-end ones.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "obs/trace.h"
#include "reference.h"
#include "relational/database_io.h"
#include "relational/segment.h"
#include "relational/simd.h"
#include "traced_stack.h"
#include "util/timer.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using cqcount::CountingEngine;
using cqcount::CountRequest;
using cqcount::Database;
using cqcount::EngineOptions;
using cqcount::EngineResult;
using cqcount::StatusOr;
using cqcount::WallTimer;
namespace fs = std::filesystem;

constexpr double kEpsilon = 0.1;
constexpr double kDelta = 0.1;

struct Args {
  std::map<std::string, std::string> values;
  bool tiny = false;

  std::string Get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--tiny") {
      args.tiny = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args.values[a.substr(2)] = argv[++i];
    } else {
      throw std::invalid_argument("unexpected argument " + a);
    }
  }
  return args;
}

// ---------------------------------------------------------------- gen

int Gen(const Args& args) {
  const std::string workload = args.Get("workload");
  const uint64_t seed = std::stoull(args.Get("seed"));
  const fs::path out = args.Get("out");
  const Size size = args.tiny ? Size::kTiny : Size::kFull;
  const WorkloadData data = GenerateWorkload(workload, seed, size);
  fs::create_directories(out);
  // The reference cache is keyed by a hash of everything generated, so a
  // changed generator can never reuse stale counts.
  uint64_t hash = 0xCBF29CE484222325ULL;
  auto mix = [&hash](const std::string& s) {
    for (unsigned char ch : s) hash = (hash ^ ch) * 0x100000001B3ULL;
  };
  for (const DatabaseData& db : data.databases) {
    const std::string text = FormatDatabaseText(db);
    mix(db.name);
    mix(text);
    std::ofstream(out / (db.name + ".db")) << text;
  }
  for (const RequestSpec& r : data.requests) mix(r.database + r.query);
  const fs::path cache_dir = out.parent_path() / "ref-cache";
  fs::create_directories(cache_dir);
  char key[17];
  std::snprintf(key, sizeof key, "%016llx",
                static_cast<unsigned long long>(hash));
  const fs::path cache = cache_dir / (workload + "-" + key + ".txt");
  std::vector<std::string> refs;
  {
    std::ifstream in(cache);
    for (std::string line; std::getline(in, line);) refs.push_back(line);
  }
  if (refs.size() != data.requests.size()) {
    refs.clear();
    std::map<std::pair<std::string, std::string>, uint64_t> memo;
    for (const RequestSpec& r : data.requests) {
      auto key = std::make_pair(r.database, r.query);
      auto it = memo.find(key);
      if (it == memo.end()) {
        const DatabaseData* db = nullptr;
        for (const auto& d : data.databases) {
          if (d.name == r.database) db = &d;
        }
        it = memo.emplace(key, ReferenceCount(r.query, *db)).first;
      }
      refs.push_back(std::to_string(it->second));
    }
    std::ofstream cache_out(cache);
    for (const auto& r : refs) cache_out << r << "\n";
  }
  std::ofstream tsv(out / "requests.tsv");
  for (size_t i = 0; i < data.requests.size(); ++i) {
    tsv << refs[i] << "\t" << data.requests[i].database << "\t"
        << data.requests[i].query << "\n";
  }
  return 0;
}

// ---------------------------------------------------------------- run

struct Request {
  double reference = 0;
  std::string database;
  std::string query;
};

std::vector<Request> ReadRequests(const fs::path& dir) {
  std::ifstream in(dir / "requests.tsv");
  if (!in) throw std::runtime_error("no requests.tsv in " + dir.string());
  std::vector<Request> out;
  for (std::string line; std::getline(in, line);) {
    const size_t a = line.find('\t');
    const size_t b = line.find('\t', a + 1);
    out.push_back({std::stod(line.substr(0, a)), line.substr(a + 1, b - a - 1),
                   line.substr(b + 1)});
  }
  if (out.empty()) throw std::runtime_error("empty requests.tsv");
  return out;
}

std::vector<std::string> DatabaseNames(const std::vector<Request>& reqs) {
  std::vector<std::string> names;
  for (const auto& r : reqs) {
    if (std::find(names.begin(), names.end(), r.database) == names.end()) {
      names.push_back(r.database);
    }
  }
  return names;
}

int Threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

void Check(const cqcount::Status& s, const std::string& what) {
  if (!s.ok()) throw std::runtime_error(what + ": " + s.ToString());
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Everything one workload run needs to know about its configuration.
struct Config {
  std::string workload;
  fs::path dir;
  std::vector<Request> requests;
  std::vector<std::string> databases;
  bool batch = false;      // shape-mix: CountBatch passes, fresh engines.
  bool segments = false;   // large-db: pack to .seg, register the pack.
};

EngineOptions Options(const Config& c, bool one_lane) {
  EngineOptions o;
  o.epsilon = kEpsilon;
  o.delta = kDelta;
  o.num_threads = Threads();
  if (c.batch || one_lane) o.intra_query_threads = 1;
  return o;
}

fs::path TextPath(const Config& c, const std::string& db) {
  return c.dir / (db + ".db");
}
fs::path SegPath(const Config& c, const std::string& db) {
  return c.dir / (db + ".seg");
}

// Files -> engine ready to query. large-db packs the text database with
// the program's own segment writer and registers the pack.
void SetUp(const Config& c, CountingEngine& engine) {
  for (const std::string& name : c.databases) {
    if (c.segments) {
      StatusOr<Database> db = cqcount::ReadDatabaseFile(TextPath(c, name));
      Check(db.status(), "read " + name);
      Check(cqcount::WriteSegmentDatabase(*db, SegPath(c, name)), "pack");
      Check(engine.RegisterDatabaseFile(name, SegPath(c, name)), "register");
    } else {
      Check(engine.RegisterDatabaseFile(name, TextPath(c, name)), "register");
    }
  }
}

std::vector<CountRequest> CountRequests(const Config& c) {
  std::vector<CountRequest> out;
  for (const Request& r : c.requests) {
    CountRequest q;
    q.query = r.query;
    q.database = r.database;
    out.push_back(q);
  }
  return out;
}

// Accumulated outcome of the timed part of a run.
struct Measured {
  std::vector<double> latencies_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t misses = 0;
  double wall_s = 0;
  // Requests per second of each round (a closed-loop cycle over the
  // requests, or one batch): their median is batch_qps, so a burst of
  // outside load on a shared machine moves it less than a total would.
  std::vector<double> round_qps;
  // shape-mix only: latency percentiles of each batch (medians reported).
  std::vector<double> round_p50, round_p90;
  double busy_ms = 0;  // Sum of per-request plan + exec time.
  uint64_t tasks = 0;
  uint64_t worker_tasks = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  // Estimates of the untimed first pass, which every later pass (same
  // seeds) must reproduce.
  std::vector<double> first;
  std::vector<std::string> problems;  // Correctness failures.

  void Problem(const std::string& p) {
    if (problems.size() < 5) problems.push_back(p);
  }
};

bool Failed(const StatusOr<EngineResult>& r) {
  return !r.ok() || r->partial || !r->converged;
}

bool Miss(double estimate, double reference) {
  return std::fabs(estimate - reference) > kEpsilon * reference;
}

// Records one result; `expected` is the first-pass estimate of the same
// request.
void Record(const StatusOr<EngineResult>& r, const Request& req,
            const double* expected, double latency_ms, Measured* m) {
  ++m->attempted;
  m->latencies_ms.push_back(latency_ms);
  if (Failed(r)) {
    ++m->failed;
    if (!r.ok()) m->Problem("status " + r.status().ToString());
    return;
  }
  if (Miss(r->estimate, req.reference)) ++m->misses;
  if (expected != nullptr && !SameBits(*expected, r->estimate)) {
    m->Problem("estimate changed between passes: " + req.query);
  }
  m->busy_ms += r->plan_millis + r->exec_millis;
  m->tasks += r->parallel.tasks;
  m->worker_tasks += r->parallel.worker_tasks;
}

std::vector<double> Estimates(const std::vector<StatusOr<EngineResult>>& rs) {
  std::vector<double> out;
  for (const auto& r : rs) out.push_back(r.ok() ? r->estimate : std::nan(""));
  return out;
}

// Lane invariance: the first pass, re-run on a fresh engine at one lane,
// must give bitwise-equal estimates. shape-mix already runs at one lane,
// so its re-run uses the default (automatic) lane count instead.
void CheckLaneInvariance(const Config& c, const std::vector<double>& first,
                         Measured* m) {
  EngineOptions o = Options(c, /*one_lane=*/true);
  if (c.batch) o.intra_query_threads = 0;
  CountingEngine engine(o);
  SetUp(c, engine);
  const auto requests = CountRequests(c);
  std::vector<double> one;
  if (c.batch) {
    one = Estimates(engine.CountBatch(requests));
  } else {
    for (const auto& r : requests) {
      auto res = engine.Count(r);
      one.push_back(res.ok() ? res->estimate : std::nan(""));
    }
  }
  for (size_t i = 0; i < first.size(); ++i) {
    if (!SameBits(first[i], one[i])) {
      m->Problem("estimate depends on the lane count: " + c.requests[i].query);
    }
  }
}

void AddCacheStats(const CountingEngine& engine, Measured* m) {
  const auto s = engine.CacheStats();
  m->cache_hits += s.hits;
  m->cache_lookups += s.hits + s.misses;
}

// sampling and large-db: one client, one request in flight, cycling over
// the workload's requests. The first pass, untimed, warms the plan cache.
Measured ClosedLoop(const Config& c, CountingEngine& engine, double seconds) {
  Measured m;
  const auto requests = CountRequests(c);
  std::vector<double>& first = m.first;
  for (size_t i = 0; i < requests.size(); ++i) {
    WallTimer one;
    auto r = engine.Count(requests[i]);
    first.push_back(r.ok() ? r->estimate : std::nan(""));
    std::cout << "# first pass " << one.Millis() << " ms, estimate "
              << first.back() << " (reference " << c.requests[i].reference
              << "): " << c.requests[i].query << "\n";
    if (Failed(r)) m.Problem("first pass failed: " + c.requests[i].query);
    else if (Miss(r->estimate, c.requests[i].reference)) {
      m.Problem("first pass outside (1 +- eps) of reference: " +
                c.requests[i].query);
    }
  }
  WallTimer timer;
  WallTimer round;
  for (size_t i = 0; timer.Seconds() < seconds; ++i) {
    const size_t k = i % requests.size();
    WallTimer one;
    auto r = engine.Count(requests[k]);
    Record(r, c.requests[k], &first[k], one.Millis(), &m);
    if (k + 1 == requests.size()) {
      m.round_qps.push_back(requests.size() / round.Seconds());
      round.Reset();
    }
  }
  m.wall_s = timer.Seconds();
  AddCacheStats(engine, &m);
  return m;
}

// shape-mix: one CountBatch per pass on a fresh engine (cold plan cache).
// The first pass is untimed.
Measured BatchPasses(const Config& c, double seconds) {
  Measured m;
  const auto requests = CountRequests(c);
  {
    CountingEngine engine(Options(c, false));
    SetUp(c, engine);
    m.first = Estimates(engine.CountBatch(requests));
  }
  WallTimer timer;
  while (timer.Seconds() < seconds) {
    CountingEngine engine(Options(c, false));
    SetUp(c, engine);
    WallTimer batch;
    auto results = engine.CountBatch(requests);
    m.wall_s += batch.Seconds();
    m.round_qps.push_back(requests.size() / batch.Seconds());
    const size_t before = m.latencies_ms.size();
    for (size_t i = 0; i < results.size(); ++i) {
      const double item_ms =
          results[i].ok() ? results[i]->plan_millis + results[i]->exec_millis
                          : 0.0;
      Record(results[i], c.requests[i], &m.first[i], item_ms, &m);
    }
    const std::vector<double> pass(m.latencies_ms.begin() + before,
                                   m.latencies_ms.end());
    m.round_p50.push_back(Percentile(pass, 0.5));
    m.round_p90.push_back(Percentile(pass, 0.9));
    AddCacheStats(engine, &m);
  }
  return m;
}

double PeakRssMb() {
  struct rusage u;
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

// Relational layer, timed from outside: text ingest, segment pack, open,
// registration, and the pack's mapping. Returns the databases the traced
// stack runs on (segment-backed for large-db, as its engine is).
std::map<std::string, Database> RelationalLayer(const Config& c,
                                                MetricMap* m) {
  std::map<std::string, Database> stack_dbs;
  double ingest = 0, pack = 0, open = 0, reg = 0, mapped = 0, resident = 0;
  CountingEngine engine(Options(c, false));
  for (const std::string& name : c.databases) {
    WallTimer t;
    StatusOr<Database> db = cqcount::ReadDatabaseFile(TextPath(c, name));
    Check(db.status(), "read");
    ingest += t.Millis();
    // Segments cannot hold arity-0 relations: pack the others.
    Database packable(db->universe_size());
    for (const std::string& rel : db->RelationNames()) {
      if (db->Arity(rel) > 0) {
        Check(packable.AdoptRelation(rel, db->relation(rel)), "copy");
      }
    }
    const fs::path seg = c.dir / (name + ".trace.seg");
    t.Reset();
    Check(cqcount::WriteSegmentDatabase(packable, seg), "pack");
    pack += t.Millis();
    t.Reset();
    StatusOr<Database> opened = cqcount::OpenSegmentDatabase(seg);
    Check(opened.status(), "open");
    open += t.Millis();
    Database in_memory = *db;
    t.Reset();
    Check(engine.RegisterDatabase(name, std::move(*db)), "register");
    reg += t.Millis();
    auto view = cqcount::SegmentView::Open(seg);
    Check(view.status(), "view");
    auto pages = (*view)->ResidentPages();
    Check(pages.status(), "mincore");
    mapped += static_cast<double>((*view)->mapped_bytes()) / (1 << 20);
    resident += static_cast<double>(*pages) *
                static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
    if (c.segments) {
      stack_dbs.emplace(name, std::move(*opened));
    } else {
      in_memory.Canonicalize();
      in_memory.BuildZoneMaps();
      stack_dbs.emplace(name, std::move(in_memory));
    }
  }
  (*m)["relational.ingest_ms"] = ingest;
  (*m)["relational.pack_ms"] = pack;
  (*m)["relational.open_ms"] = open;
  (*m)["relational.register_ms"] = reg;
  (*m)["relational.mapped_mb"] = mapped;
  (*m)["relational.resident_mb"] = resident;
  return stack_dbs;
}

// The traced run: the workload's distinct requests through the assembled
// stack, first untraced (and checked against ApproxCountAnswers), then
// traced into DIR/trace.json.
MetricMap TracedRun(const Config& c, const Measured& timed,
                    std::vector<std::string>* problems) {
  MetricMap m;
  std::map<std::string, Database> dbs = RelationalLayer(c, &m);
  std::vector<StackRequest> requests;
  std::vector<std::string> texts;
  for (const Request& r : c.requests) {
    const std::string key = r.database + "\t" + r.query;
    if (std::find(texts.begin(), texts.end(), key) != texts.end()) continue;
    texts.push_back(key);
    requests.push_back({r.query, &dbs.at(r.database)});
  }
  cqcount::Executor pool(Threads());
  StackOptions opts;
  opts.epsilon = kEpsilon;
  opts.delta = kDelta;
  opts.pool = &pool;
  opts.lanes = c.batch ? 1 : Threads();
  const PassResult plain = RunStackPass(requests, opts, false, true);
  if (!plain.ok) problems->push_back(plain.error);
  cqcount::obs::TraceSink& sink = cqcount::obs::TraceSink::Global();
  sink.Enable();
  PassResult traced = RunStackPass(requests, opts, true, false);
  sink.Disable();
  if (!traced.ok) problems->push_back(traced.error);
  for (size_t i = 0; i < traced.estimates.size(); ++i) {
    if (i < plain.estimates.size() &&
        !SameBits(traced.estimates[i], plain.estimates[i])) {
      problems->push_back("tracing changed an estimate: " +
                          requests[i].query);
    }
  }
  const fs::path trace_path = c.dir / "trace.json";
  {
    std::ofstream out(trace_path);
    sink.WriteChromeTrace(out);
  }
  std::cout << "# trace " << trace_path.string() << " spans="
            << sink.event_count() << " dropped=" << sink.dropped() << "\n";
  m.insert(traced.metrics.begin(), traced.metrics.end());
  m["obs.trace_overhead_frac"] = traced.wall_s / plain.wall_s - 1.0;
  m["engine.plan_cache_hit_ratio"] =
      timed.cache_lookups ? static_cast<double>(timed.cache_hits) /
                                static_cast<double>(timed.cache_lookups)
                          : 0.0;
  m["executor.worker_task_frac"] =
      timed.tasks ? static_cast<double>(timed.worker_tasks) /
                        static_cast<double>(timed.tasks)
                  : 0.0;
  m["executor.idle_frac"] =
      1.0 - timed.busy_ms / (Threads() * timed.wall_s * 1e3);
  return m;
}

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Units of the per-layer metrics (names ending in _frac/_ratio are
// fractions; the rest by suffix).
std::string Unit(const std::string& name) {
  auto ends = [&](const char* s) {
    const size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_mb")) return "MiB";
  if (ends("_frac") || ends("_ratio")) return "fraction";
  return "count";
}

int Run(const Args& args) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to record numbers from a "
              << PERFBENCH_BUILD_TYPE << " build (Release required)\n";
    return 3;
  }
#ifndef NDEBUG
  std::cerr << "perfbench: assertions are enabled; refusing to record\n";
  return 3;
#endif
  Config c;
  c.workload = args.Get("workload");
  if (!IsWorkload(c.workload)) {
    throw std::invalid_argument("unknown workload " + c.workload);
  }
  c.dir = args.Get("dir");
  c.requests = ReadRequests(c.dir);
  c.databases = DatabaseNames(c.requests);
  c.batch = c.workload == "shape-mix";
  c.segments = c.workload == "large-db";
  const double seconds = std::stod(args.Get("seconds"));
  const bool trace = args.Get("trace") == "1";
  cqcount::obs::TraceSink::Global().set_thread_capacity(size_t{1} << 20);

  std::cout << "# env nproc=" << std::thread::hardware_concurrency()
            << " threads=" << Threads() << " simd="
            << cqcount::simd::LevelName(cqcount::simd::ActiveLevel())
            << " build=" << PERFBENCH_BUILD_TYPE << " compiler=\""
#if defined(__clang__)
            << "clang " << __clang_version__
#elif defined(__GNUC__)
            << "gcc " << __VERSION__
#else
            << "unknown"
#endif
            << "\" workload=" << c.workload << "\n";

  // Set-up: median of fresh set-ups, repeated for at least 3 set-ups and
  // 2 s (millisecond set-ups settle only after many repetitions); the
  // last engine is kept.
  std::vector<double> setup_s;
  std::unique_ptr<CountingEngine> engine;
  for (WallTimer total; setup_s.size() < 3 || total.Seconds() < 2.0;) {
    engine.reset();
    WallTimer t;
    engine = std::make_unique<CountingEngine>(Options(c, false));
    SetUp(c, *engine);
    setup_s.push_back(t.Seconds());
  }
  Measured m;
  if (c.batch) {
    engine.reset();
    m = BatchPasses(c, seconds);
  } else {
    m = ClosedLoop(c, *engine, seconds);
    engine.reset();
  }
  // Read before the lane-invariance re-run, which is a check, not load.
  const double rss = PeakRssMb();
  CheckLaneInvariance(c, m.first, &m);
  const double failed_frac =
      static_cast<double>(m.failed) / static_cast<double>(m.attempted);
  const double eps_miss_frac =
      static_cast<double>(m.misses) / static_cast<double>(m.attempted);
  std::cout << "# requests=" << m.attempted << " failed_frac=" << failed_frac
            << " eps_miss_frac=" << eps_miss_frac
            << " count_p50/p90 over n=" << m.latencies_ms.size() << "\n";

  MetricMap metrics;
  if (trace) {
    metrics = TracedRun(c, m, &m.problems);
  } else {
    metrics["setup_s"] = Median(setup_s);
    const bool per_round = !m.round_p50.empty();
    metrics["count_p50_ms"] = per_round ? Median(m.round_p50)
                                        : Percentile(m.latencies_ms, 0.5);
    metrics["count_p90_ms"] = per_round ? Median(m.round_p90)
                                        : Percentile(m.latencies_ms, 0.9);
    metrics["batch_qps"] = m.round_qps.empty()
                               ? static_cast<double>(m.attempted) / m.wall_s
                               : Median(m.round_qps);
    metrics["peak_rss_mb"] = rss;
  }
  // Estimates may miss (1 +- eps) with probability delta per request.
  const bool correct =
      m.problems.empty() && eps_miss_frac <= kDelta;
  for (const auto& p : m.problems) std::cout << "# problem: " << p << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << m.attempted << ", \"failed\": " << m.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::string unit = Unit(name);
    if (name == "setup_s") unit = "s";
    if (name == "batch_qps") unit = "1/s";
    if (name == "peak_rss_mb") unit = "MiB";
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << Json(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    const perfbench::Args args = perfbench::ParseArgs(argc, argv);
    if (cmd == "gen") return perfbench::Gen(args);
    if (cmd == "run") return perfbench::Run(args);
    std::cerr << "usage: perfbench gen|run ... (see perfbench/README.md)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
