#include "bench/bench_common.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/trace_recorder.h"

namespace bulkdel {
namespace bench {

BenchConfig BenchConfig::FromArgs(int argc, char** argv) {
  BenchConfig config;
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

void MaybeWriteTrace(const BenchConfig& config,
                     const BulkDeleteReport& report) {
  if (config.trace_out.empty()) return;
  std::FILE* f = std::fopen(config.trace_out.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "trace-out: cannot open %s\n",
                 config.trace_out.c_str());
    return;
  }
  std::string json = report.ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
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

ResultTable::ResultTable(std::string title, std::string x_label,
                         std::vector<std::string> series)
    : title_(std::move(title)),
      x_label_(std::move(x_label)),
      series_(std::move(series)) {}

void ResultTable::AddCell(const std::string& x, const std::string& series,
                          double sim_minutes, double wall_millis) {
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
      cells_[xi][s] = sim_minutes;
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
