// Seeded generation of the benchmark's three workloads.
//
// A workload is a set of databases plus an ordered list of counting
// requests. Everything is a pure function of (workload name, seed, size):
// the generator uses its own splitmix64 stream, never the library's RNG,
// so a change to cqcount cannot change the inputs it is measured on.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One relation: `rows` holds rows*arity values, sorted and duplicate-free.
/// Arity-0 relations hold either no row (false) or the empty row (true),
/// recorded in `nullary_true`.
struct TableData {
  std::string name;
  int arity = 0;
  std::vector<uint32_t> rows;
  bool nullary_true = false;

  size_t num_rows() const {
    return arity == 0 ? (nullary_true ? 1 : 0) : rows.size() / arity;
  }
};

struct DatabaseData {
  std::string name;
  uint32_t universe = 0;
  std::vector<TableData> tables;

  const TableData* Find(const std::string& table) const;
};

struct RequestSpec {
  std::string database;
  std::string query;
};

struct WorkloadData {
  std::vector<DatabaseData> databases;
  /// For the closed-loop workloads: one pass (the loop cycles over it).
  /// For shape-mix: the requests of one CountBatch.
  std::vector<RequestSpec> requests;
};

/// "full" is the measured size; "tiny" is the seconds-long self-check.
enum class Size { kFull, kTiny };

const std::vector<std::string>& WorkloadNames();
bool IsWorkload(const std::string& name);

WorkloadData GenerateWorkload(const std::string& name, uint64_t seed,
                              Size size);

/// Text database format of src/relational/database_io.h.
std::string FormatDatabaseText(const DatabaseData& db);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
