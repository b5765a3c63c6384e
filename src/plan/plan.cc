#include "plan/plan.h"

#include <cstdio>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace bulkdel {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kTraditional:
      return "traditional";
    case Strategy::kTraditionalSorted:
      return "traditional-sorted";
    case Strategy::kDropCreate:
      return "drop-and-create";
    case Strategy::kVerticalSortMerge:
      return "vertical-sort-merge";
    case Strategy::kVerticalHash:
      return "vertical-hash";
    case Strategy::kVerticalPartitionedHash:
      return "vertical-partitioned-hash";
    case Strategy::kOptimizer:
      return "optimizer";
  }
  return "unknown";
}

bool StrategyFromName(const std::string& name, Strategy* out) {
  for (Strategy s :
       {Strategy::kTraditional, Strategy::kTraditionalSorted,
        Strategy::kDropCreate, Strategy::kVerticalSortMerge,
        Strategy::kVerticalHash, Strategy::kVerticalPartitionedHash,
        Strategy::kOptimizer}) {
    if (name == StrategyName(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

const char* DeleteMethodName(DeleteMethod m) {
  switch (m) {
    case DeleteMethod::kMerge:
      return "merge";
    case DeleteMethod::kClassicHash:
      return "hash";
    case DeleteMethod::kPartitionedHash:
      return "partitioned-hash";
  }
  return "unknown";
}

std::string BulkDeletePlan::Explain() const {
  std::string out = "BulkDeletePlan strategy=";
  out += StrategyName(strategy);
  char buf[128];
  std::snprintf(buf, sizeof(buf), " est=%.1f ms\n", est_micros / 1000.0);
  out += buf;
  for (const PlanStep& step : steps) {
    std::snprintf(buf, sizeof(buf), "  #%d %s %s", step.phase_id,
                  step.is_table ? "table" : "index", step.structure.c_str());
    out += buf;
    out += "  [";
    out += DeleteMethodName(step.method);
    out += " by ";
    out += step.probe == ProbeBy::kKey ? "key" : "rid";
    if (step.input_sorted) out += ", input pre-sorted";
    out += "]";
    if (step.deps.empty()) {
      out += " deps=[]";
    } else {
      out += " deps=[";
      for (size_t d = 0; d < step.deps.size(); ++d) {
        if (d > 0) out += ",";
        out += std::to_string(step.deps[d]);
      }
      out += "]";
    }
    std::snprintf(buf, sizeof(buf), " est=%.1f ms", step.est_micros / 1000.0);
    out += buf;
    if (!step.note.empty()) {
      out += "  -- ";
      out += step.note;
    }
    out += "\n";
  }
  // Render the DAG shape: independent steps on one line can run in parallel.
  if (steps.size() > 1) {
    out += "  dag:";
    int depth = 0;
    bool printed_any = true;
    std::vector<int> level(steps.size(), 0);
    for (size_t i = 0; i < steps.size(); ++i) {
      int d = 0;
      for (int dep : steps[i].deps) {
        for (size_t j = 0; j < steps.size(); ++j) {
          if (steps[j].phase_id == dep && level[j] + 1 > d) d = level[j] + 1;
        }
      }
      level[i] = d;
    }
    while (printed_any) {
      printed_any = false;
      std::string stage;
      for (size_t i = 0; i < steps.size(); ++i) {
        if (level[i] != depth) continue;
        if (!stage.empty()) stage += " | ";
        stage += steps[i].structure;
        printed_any = true;
      }
      if (printed_any) {
        if (depth > 0) out += " ->";
        out += " {" + stage + "}";
      }
      ++depth;
    }
    out += "\n";
  }
  // Crash-testing aid: the enumerable fault-injection sites an execution of
  // this plan passes through (see docs/FAULTS.md; arm with
  // bulkdel_crashsweep --site=NAME --occurrence=N).
  bool vertical = strategy == Strategy::kVerticalSortMerge ||
                  strategy == Strategy::kVerticalHash ||
                  strategy == Strategy::kVerticalPartitionedHash;
  if (vertical) {
    out += "  fault sites:";
    for (const FaultSiteInfo& site : FaultInjector::KnownSites()) {
      out += " ";
      out += site.name;
      if (site.supports_write_modes) out += "*";
    }
    out += "  (* = torn/short write modes)\n";
    // observability
    // The metric names an execution populates (report.metrics delta) and the
    // trace categories its spans/instants land under (docs/OBSERVABILITY.md;
    // enable with DatabaseOptions::trace_spans or bench --perfetto-out).
    out += "  metrics:";
    for (const obs::MetricInfo& metric : obs::KnownMetrics()) {
      out += " ";
      out += metric.name;
    }
    out += "\n  trace categories:";
    for (const char* category : obs::KnownTraceCategories()) {
      out += " ";
      out += category;
    }
    out += "  (off unless trace_spans)\n";
  }
  return out;
}

}  // namespace bulkdel
