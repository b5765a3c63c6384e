#include "bench/bench_common.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/trace_recorder.h"
#include "util/json.h"

namespace bulkdel {
namespace bench {

BenchConfig BenchConfig::FromArgs(int argc, char** argv) {
  BenchConfig config;
  if (argc > 0) {
    const char* slash = std::strrchr(argv[0], '/');
    config.bench = slash != nullptr ? slash + 1 : argv[0];
    if (config.bench.rfind("bench_", 0) == 0) config.bench.erase(0, 6);
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--tuples=", 9) == 0) {
      config.n_tuples = std::strtoull(arg + 9, nullptr, 10);
    } else if (std::strncmp(arg, "--tuple-size=", 13) == 0) {
      config.tuple_size =
          static_cast<uint32_t>(std::strtoul(arg + 13, nullptr, 10));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      config.exec_threads =
          static_cast<int>(std::strtol(arg + 10, nullptr, 10));
      if (config.exec_threads < 1) config.exec_threads = 1;
    } else if (std::strncmp(arg, "--backend=", 10) == 0) {
      config.backend = arg + 10;
      if (config.backend != "sim" && config.backend != "file") {
        std::fprintf(stderr, "bad --backend '%s' (sim|file)\n",
                     config.backend.c_str());
        std::exit(2);
      }
    } else if (std::strncmp(arg, "--db-dir=", 9) == 0) {
      config.db_dir = arg + 9;
    } else if (std::strncmp(arg, "--wal-group-commit=", 19) == 0) {
      config.wal_group_commit = std::atoi(arg + 19) != 0;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      config.trace_out = arg + 12;
    } else if (std::strncmp(arg, "--perfetto-out=", 15) == 0) {
      config.perfetto_out = arg + 15;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "flags: --tuples=N --tuple-size=BYTES --seed=N --threads=N "
          "--backend=sim|file "
          "--db-dir=PATH --wal-group-commit=0|1 --trace-out=FILE "
          "--perfetto-out=FILE\n"
          "paper scale: --tuples=1000000 --tuple-size=512\n");
      std::exit(0);
    }
  }
  return config;
}

Result<BenchDb> BuildBenchDb(const BenchConfig& config,
                             const std::vector<std::string>& columns,
                             size_t memory_bytes, bool clustered_on_a,
                             IndexOptions a_options) {
  DatabaseOptions options;
  options.memory_budget_bytes = memory_bytes;
  options.exec_threads = config.exec_threads;
  options.trace_spans = !config.perfetto_out.empty();
  options.wal_group_commit = config.wal_group_commit;
  if (config.backend == "file") {
    // Benches build many databases (one per cell); each gets its own
    // numbered subdirectory so lifetimes never overlap on disk.
    static std::atomic<int> next_db{0};
    ::mkdir(config.db_dir.c_str(), 0755);  // EEXIST is fine
    options.path =
        config.db_dir + "/db" + std::to_string(next_db.fetch_add(1));
  }
  BenchDb bench;
  BULKDEL_ASSIGN_OR_RETURN(bench.db, Database::Create(options));

  WorkloadSpec spec;
  spec.n_tuples = config.n_tuples;
  spec.n_int_columns = config.n_int_columns;
  spec.tuple_size = config.tuple_size;
  spec.clustered_on_a = clustered_on_a;
  spec.seed = config.seed;
  BULKDEL_ASSIGN_OR_RETURN(
      bench.workload,
      SetUpPaperDatabase(bench.db.get(), spec, columns, a_options));
  // Loading is not part of any experiment: reset counters.
  bench.db->disk().ResetStats();
  return bench;
}

Result<BulkDeleteReport> RunDelete(BenchDb* bench, double fraction,
                                   Strategy strategy, uint64_t key_seed,
                                   bool pre_sort_keys) {
  BulkDeleteSpec spec;
  spec.table = bench->workload.spec.table_name;
  spec.key_column = "A";
  spec.keys = bench->workload.MakeDeleteKeys(fraction, key_seed);
  if (pre_sort_keys) {
    std::sort(spec.keys.begin(), spec.keys.end());
    spec.keys_sorted = true;
  }
  return bench->db->BulkDelete(spec, strategy);
}

void WriteRecord(const BenchConfig& config, const BenchRecord& record) {
  if (config.trace_out.empty()) return;
  const IoStats& io =
      record.report != nullptr ? record.report->io : record.io;
  std::string line = "{\"bench\":";
  json::AppendEscaped(&line, config.bench);
  line += ",\"series\":";
  json::AppendEscaped(&line, record.series);
  line += ",\"x\":";
  json::AppendEscaped(&line, record.x);
  char buf[256];
  // `backend` is "sim" or "file" (FromArgs rejects anything else).
  std::snprintf(buf, sizeof(buf),
                ",\"scale\":{\"tuples\":%llu,\"tuple_size\":%u,"
                "\"memory_bytes\":%zu,\"threads\":%d,\"backend\":\"%s\"},"
                "\"sim_micros\":%lld,\"extra\":{",
                static_cast<unsigned long long>(config.n_tuples),
                config.tuple_size, record.memory_bytes, config.exec_threads,
                config.backend.c_str(),
                static_cast<long long>(io.simulated_micros));
  line += buf;
  for (size_t i = 0; i < record.extra.size(); ++i) {
    if (i > 0) line += ',';
    json::AppendEscaped(&line, record.extra[i].first);
    double v = record.extra[i].second;
    std::snprintf(buf, sizeof(buf), ":%.15g", std::isfinite(v) ? v : 0.0);
    line += buf;
  }
  line += "},";
  if (record.report != nullptr) {
    // The report's own fields (strategy, phases, io, wall_micros, ...).
    line += record.report->ToJson().substr(1);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "\"wall_micros\":%lld,\"io\":{\"reads\":%lld,"
                  "\"writes\":%lld,\"sequential_accesses\":%lld,"
                  "\"random_accesses\":%lld,\"simulated_micros\":%lld}}",
                  static_cast<long long>(record.wall_micros),
                  static_cast<long long>(io.reads),
                  static_cast<long long>(io.writes),
                  static_cast<long long>(io.sequential_accesses),
                  static_cast<long long>(io.random_accesses),
                  static_cast<long long>(io.simulated_micros));
    line += buf;
  }
  line += '\n';
  std::FILE* f = std::fopen(config.trace_out.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "trace-out: cannot open %s\n",
                 config.trace_out.c_str());
    return;
  }
  std::fwrite(line.data(), 1, line.size(), f);
  std::fclose(f);
}

void MaybeExportPerfetto(const BenchConfig& config) {
  if (config.perfetto_out.empty()) return;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  Status s = recorder.ExportChromeTrace(config.perfetto_out);
  if (!s.ok()) {
    std::fprintf(stderr, "perfetto-out: %s\n", s.ToString().c_str());
    return;
  }
  std::printf("perfetto trace: %s (%llu events, %llu dropped)\n",
              config.perfetto_out.c_str(),
              static_cast<unsigned long long>(recorder.EventCount()),
              static_cast<unsigned long long>(recorder.DroppedCount()));
}

ResultTable::ResultTable(const BenchConfig& config, size_t memory_bytes,
                         std::string title, std::string x_label,
                         std::vector<std::string> series, bool show_wall,
                         bool seconds)
    : config_(config),
      memory_bytes_(memory_bytes),
      title_(std::move(title)),
      x_label_(std::move(x_label)),
      series_(std::move(series)),
      show_wall_(show_wall),
      seconds_(seconds) {}

void ResultTable::AddCell(const std::string& x, const std::string& series,
                          const BulkDeleteReport& report,
                          std::vector<std::pair<std::string, double>> extra) {
  BenchRecord record;
  record.series = series;
  record.x = x;
  record.report = &report;
  record.extra = std::move(extra);
  Record(std::move(record));
}

void ResultTable::AddCell(const std::string& x, const std::string& series,
                          const IoStats& io, int64_t wall_micros,
                          std::vector<std::pair<std::string, double>> extra) {
  BenchRecord record;
  record.series = series;
  record.x = x;
  record.io = io;
  record.wall_micros = wall_micros;
  record.extra = std::move(extra);
  Record(std::move(record));
}

void ResultTable::AddValue(const std::string& x, const std::string& series,
                           double value) {
  Place(x, series, value, -1.0);
}

void ResultTable::Record(BenchRecord record) {
  record.memory_bytes = memory_bytes_;
  WriteRecord(config_, record);
  const BulkDeleteReport* report = record.report;
  const IoStats& io = report != nullptr ? report->io : record.io;
  // BulkDeleteReport::simulated_seconds() / simulated_minutes(), exactly.
  double seconds = static_cast<double>(io.simulated_micros) * 1e-6;
  int64_t wall = report != nullptr ? report->wall_micros : record.wall_micros;
  Place(record.x, record.series, seconds_ ? seconds : seconds / 60.0,
        show_wall_ ? static_cast<double>(wall) / 1000.0 : -1.0);
}

void ResultTable::Place(const std::string& x, const std::string& series,
                        double value, double wall_millis) {
  size_t xi = xs_.size();
  for (size_t i = 0; i < xs_.size(); ++i) {
    if (xs_[i] == x) {
      xi = i;
      break;
    }
  }
  if (xi == xs_.size()) {
    xs_.push_back(x);
    cells_.emplace_back(series_.size(), -1.0);
    walls_.emplace_back(series_.size(), -1.0);
  }
  for (size_t s = 0; s < series_.size(); ++s) {
    if (series_[s] == series) {
      cells_[xi][s] = value;
      walls_[xi][s] = wall_millis;
      return;
    }
  }
}

void ResultTable::Print() const {
  std::printf("\n== %s ==\n(simulated minutes under the 2001 disk model)\n\n",
              title_.c_str());
  std::printf("%-14s", x_label_.c_str());
  for (const std::string& s : series_) std::printf(" | %18s", s.c_str());
  std::printf("\n");
  std::printf("--------------");
  for (size_t s = 0; s < series_.size(); ++s) std::printf("-+-------------------");
  std::printf("\n");
  for (size_t i = 0; i < xs_.size(); ++i) {
    std::printf("%-14s", xs_[i].c_str());
    for (size_t s = 0; s < cells_[i].size(); ++s) {
      double v = cells_[i][s];
      double wall = walls_[i][s];
      if (v < 0) {
        std::printf(" | %18s", "-");
      } else if (wall >= 0) {
        // Simulated minutes with the host wall time alongside.
        char cell[32];
        std::snprintf(cell, sizeof(cell), "%.2f (%.0fms)", v, wall);
        std::printf(" | %18s", cell);
      } else {
        std::printf(" | %18.2f", v);
      }
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace bulkdel
