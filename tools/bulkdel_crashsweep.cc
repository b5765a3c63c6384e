// Command-line driver for the crash-recovery sweep (docs/FAULTS.md).
//
// Default: the full deterministic sweep — every strategy, exec_threads 1
// and 4, every known fault site, sampled occurrences.
//
//   bulkdel_crashsweep                         # sampled sweep
//   bulkdel_crashsweep --exhaustive            # every single occurrence
//   bulkdel_crashsweep --site=exec.finalize --occurrence=1 --threads=4 \
//       --strategy=vertical-hash               # reproduce one case
//   bulkdel_crashsweep --torture --seconds=120 --seed=42   # randomized
//
// Exit status: 0 iff every case passed. A case still running after the
// sweep's fixed per-case limit (two minutes) is reported as failed with its
// repro line and ends the run with status 1, so a hang cannot stall a leg.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fault/crash_sweep.h"
#include "fault/fault_injector.h"
#include "plan/plan.h"

namespace {

using bulkdel::FaultInjector;
using bulkdel::Strategy;

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --site=NAME          restrict to one fault site (see --list-sites)\n"
      "  --occurrence=N       restrict to the N-th hit of the site\n"
      "  --mode=crash|torn    restrict the fault mode\n"
      "  --strategy=NAME      restrict to one strategy (default: all vertical)\n"
      "  --threads=N          restrict to one exec_threads value (default 1,4)\n"
      "  --occurrences-per-site=N  sample budget per site (default 6)\n"
      "  --exhaustive         test every occurrence of every site\n"
      "  --concurrency=none|sidefile|direct   §3.1 updater protocol\n"
      "  --backend=sim|file   durability backend (default sim)\n"
      "  --predicate=keys|range   statement predicate class (default keys)\n"
      "  --cascade            sweep the multi-table cascade statement\n"
      "                       (USERS->ORDERS->EVENTS; S0-or-final acceptance)\n"
      "  --dir=PATH           scratch dir for --backend=file\n"
      "  --updater-ops=N      concurrent-updater DML ops per case (default 6)\n"
      "  --tuples=N --fraction=F --memory=BYTES   workload shape\n"
      "  --workload-seed=N --keys-seed=N --injector-seed=N\n"
      "  --torture --seconds=N --seed=N   randomized time-bounded mode\n"
      "  --verbose            one line per case\n"
      "  --list-sites         print the known sites and exit\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bulkdel::SweepConfig config;
  bool torture = false;
  int seconds = 60;
  uint64_t torture_seed = 1;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--list-sites") == 0) {
      for (const bulkdel::FaultSiteInfo& site : FaultInjector::KnownSites()) {
        std::printf("%s%s\n", site.name,
                    site.supports_write_modes ? " (torn/short modes)" : "");
      }
      return 0;
    } else if (std::strcmp(argv[i], "--exhaustive") == 0) {
      config.occurrences_per_site = 0;
    } else if (std::strcmp(argv[i], "--torture") == 0) {
      torture = true;
    } else if (std::strcmp(argv[i], "--cascade") == 0) {
      config.cascade = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      config.verbose = true;
    } else if (ParseFlag(argv[i], "site", &value)) {
      if (!FaultInjector::IsKnownSite(value)) {
        std::fprintf(stderr, "unknown fault site '%s' (try --list-sites)\n",
                     value.c_str());
        return 2;
      }
      config.only_site = value;
    } else if (ParseFlag(argv[i], "occurrence", &value)) {
      config.only_occurrence = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "mode", &value)) {
      if (value != "crash" && value != "torn" && value != "short") {
        std::fprintf(stderr, "bad --mode '%s'\n", value.c_str());
        return 2;
      }
      config.only_mode = value;
    } else if (ParseFlag(argv[i], "strategy", &value)) {
      Strategy s;
      if (!bulkdel::StrategyFromName(value, &s)) {
        std::fprintf(stderr, "unknown strategy '%s'\n", value.c_str());
        return 2;
      }
      config.strategies = {s};
    } else if (ParseFlag(argv[i], "threads", &value)) {
      config.thread_counts = {std::atoi(value.c_str())};
    } else if (ParseFlag(argv[i], "concurrency", &value)) {
      if (value == "none") {
        config.concurrency = bulkdel::ConcurrencyProtocol::kNone;
      } else if (value == "sidefile") {
        config.concurrency = bulkdel::ConcurrencyProtocol::kSideFile;
      } else if (value == "direct") {
        config.concurrency = bulkdel::ConcurrencyProtocol::kDirectPropagation;
      } else {
        std::fprintf(stderr, "bad --concurrency '%s'\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(argv[i], "backend", &value)) {
      if (value != "sim" && value != "file") {
        std::fprintf(stderr, "bad --backend '%s' (sim|file)\n", value.c_str());
        return 2;
      }
      config.backend = value;
    } else if (ParseFlag(argv[i], "dir", &value)) {
      config.scratch_dir = value;
    } else if (ParseFlag(argv[i], "predicate", &value)) {
      if (value != "keys" && value != "range") {
        std::fprintf(stderr, "bad --predicate '%s' (keys|range)\n",
                     value.c_str());
        return 2;
      }
      config.predicate = value;
    } else if (ParseFlag(argv[i], "updater-ops", &value)) {
      config.updater_ops = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "occurrences-per-site", &value)) {
      config.occurrences_per_site = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "tuples", &value)) {
      config.n_tuples = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "fraction", &value)) {
      config.delete_fraction = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "memory", &value)) {
      config.memory_budget_bytes = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "workload-seed", &value)) {
      config.workload_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "keys-seed", &value)) {
      config.delete_keys_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "injector-seed", &value)) {
      config.injector_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "seconds", &value)) {
      seconds = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "seed", &value)) {
      torture_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return Usage(argv[0]);
    }
  }

  bulkdel::SweepStats stats;
  bulkdel::Status status =
      torture ? bulkdel::RunTortureSweep(config, seconds, torture_seed, &stats)
              : bulkdel::RunCrashSweep(config, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "sweep harness error: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("crash sweep: %s\n", stats.Summary().c_str());
  return stats.failures == 0 ? 0 : 1;
}
