#ifndef BULKDEL_BENCH_BENCH_COMMON_H_
#define BULKDEL_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "workload/generator.h"

namespace bulkdel {
namespace bench {

/// Scale configuration shared by all figure/table benchmarks.
///
/// The paper runs 1,000,000 × 512 B tuples (a 512 MB table) with 5 MB of
/// main memory (Fig. 9 varies 2–10 MB). The benchmarks default to a
/// scaled-down table and scale every memory setting by the same
/// table-bytes ratio, so cache-pressure effects are preserved. Run with
/// `--tuples=1000000 --tuple-size=512` to reproduce at paper scale.
struct BenchConfig {
  uint64_t n_tuples = 50000;
  uint32_t tuple_size = 256;
  int n_int_columns = 10;
  uint64_t seed = 20010407;
  /// Worker threads for the phase-DAG scheduler (`--threads=N`); 1 = the
  /// historical serial execution.
  int exec_threads = 1;
  /// Durability backend (`--backend=sim|file`). "sim" (default) runs over
  /// in-memory pages and WAL image; "file" runs the identical workload over
  /// a real pwrite/fsync page file and on-disk WAL under `db_dir`. Simulated
  /// I/O totals are bit-identical between the two; only wall time changes.
  std::string backend = "sim";
  /// Directory for file-backed databases (`--db-dir=PATH`); each
  /// BuildBenchDb call gets its own numbered subdirectory. tmpfs recommended.
  std::string db_dir = "/tmp/bulkdel_bench";
  /// WAL group commit (`--wal-group-commit=0|1`, default on). Off = every
  /// Sync() performs its own flush+fsync; the ablation's baseline.
  bool wal_group_commit = true;
  /// If non-empty (`--trace-out=FILE`), every measurement the bench makes
  /// is appended to FILE as one BenchRecord JSON line (JSONL; see
  /// WriteRecord and docs/OBSERVABILITY.md), the input of
  /// tools/bench_smoke_summary.py.
  std::string trace_out;
  /// The bench's name: its binary name without the `bench_` prefix
  /// ("fig7_vary_deletes"), the `bench` field of every record it writes.
  std::string bench;
  /// If non-empty (`--perfetto-out=FILE`), span tracing is enabled
  /// (DatabaseOptions::trace_spans) and the whole run's trace is written to
  /// FILE as Chrome trace-event JSON on MaybeExportPerfetto() — load it in
  /// Perfetto / chrome://tracing, or feed it to bulkdel_tracecat. Simulated
  /// I/O is bit-identical with or without this flag (docs/OBSERVABILITY.md).
  std::string perfetto_out;

  static BenchConfig FromArgs(int argc, char** argv);

  double ScaleFactor() const {
    return static_cast<double>(n_tuples) * tuple_size /
           (1000000.0 * 512.0);
  }

  /// Paper memory size (MB) scaled to this configuration's table size.
  size_t ScaledMemoryBytes(double paper_mb) const {
    double bytes = paper_mb * 1024.0 * 1024.0 * ScaleFactor();
    return static_cast<size_t>(bytes) < (64u << 10)
               ? (64u << 10)
               : static_cast<size_t>(bytes);
  }
};

/// A freshly built paper database plus its workload description.
struct BenchDb {
  std::unique_ptr<Database> db;
  Workload workload;
};

/// Builds R with indices on `columns` ("A" unique; clustered per flag) under
/// `memory_bytes` of buffer/sort memory. `a_options` tweaks the key index
/// (the height experiment shrinks its inner fan-out).
Result<BenchDb> BuildBenchDb(const BenchConfig& config,
                             const std::vector<std::string>& columns,
                             size_t memory_bytes, bool clustered_on_a = false,
                             IndexOptions a_options = {});

/// Runs one bulk delete of `fraction` of the rows with `strategy`; the
/// database is consumed (mutated).
Result<BulkDeleteReport> RunDelete(BenchDb* bench, double fraction,
                                   Strategy strategy, uint64_t key_seed = 1,
                                   bool pre_sort_keys = false);

/// One measurement of a bench: a cell of its table, or a line it prints.
/// Every bench writes its measurements as these records, through
/// WriteRecord only.
struct BenchRecord {
  std::string series;
  std::string x;
  /// Buffer/sort memory of the database the measurement ran on.
  size_t memory_bytes = 0;
  /// A bulk delete's report, embedded whole (its fields at the record's top
  /// level, so `bulkdel_tracecat --reports` reads the record as the report);
  /// its io and wall_micros are the record's. Null for a measurement that is
  /// not one statement: `io` and `wall_micros` are then the record's.
  const BulkDeleteReport* report = nullptr;
  IoStats io;
  int64_t wall_micros = 0;
  /// Named numbers that are not a delete cell's (ratios, updater ops, ...).
  std::vector<std::pair<std::string, double>> extra;
};

/// Appends `record` as one JSON line to `config.trace_out`, if set: the
/// bench, series and x, the scale (`config`'s tuples, tuple size, threads
/// and backend, with the record's memory bytes), simulated and wall
/// microseconds, the io counts, the `extra` map, and the embedded report.
/// Errors are reported to stderr but do not fail the benchmark.
void WriteRecord(const BenchConfig& config, const BenchRecord& record);

/// Writes the global TraceRecorder's Chrome trace to `config.perfetto_out`,
/// if set (call once, at the end of the benchmark). Errors are reported to
/// stderr but do not fail the benchmark.
void MaybeExportPerfetto(const BenchConfig& config);

/// Markdown-ish result table: one row per x-value, one column per series,
/// cells in simulated minutes (seconds with `seconds`) — optionally with
/// host wall milliseconds alongside (`12.34 (56ms)`), so sim-model time and
/// real-backend time read side by side. Every measured cell is also written
/// as a BenchRecord, so a bench that prints a table records it too.
class ResultTable {
 public:
  ResultTable(const BenchConfig& config, size_t memory_bytes,
              std::string title, std::string x_label,
              std::vector<std::string> series, bool show_wall = false,
              bool seconds = false);

  /// The memory of the databases the following cells run on.
  void set_memory_bytes(size_t memory_bytes) { memory_bytes_ = memory_bytes; }

  /// A bulk delete's cell: shows its simulated time, records the report.
  void AddCell(const std::string& x, const std::string& series,
               const BulkDeleteReport& report,
               std::vector<std::pair<std::string, double>> extra = {});
  /// A measured cell that is not one statement.
  void AddCell(const std::string& x, const std::string& series,
               const IoStats& io, int64_t wall_micros,
               std::vector<std::pair<std::string, double>> extra = {});
  /// A cell that shows `value` as is; recorded by no record of its own.
  void AddValue(const std::string& x, const std::string& series,
                double value);
  /// Renders and prints the table.
  void Print() const;

 private:
  void Record(BenchRecord record);
  void Place(const std::string& x, const std::string& series, double value,
             double wall_millis);

  const BenchConfig& config_;
  size_t memory_bytes_;
  std::string title_;
  std::string x_label_;
  std::vector<std::string> series_;
  bool show_wall_;
  bool seconds_;
  std::vector<std::string> xs_;
  std::vector<std::vector<double>> cells_;  // [x][series], shown value
  std::vector<std::vector<double>> walls_;  // [x][series], wall ms (<0 = n/a)
};

}  // namespace bench
}  // namespace bulkdel

#endif  // BULKDEL_BENCH_BENCH_COMMON_H_
