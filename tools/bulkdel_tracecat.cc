// bulkdel_tracecat: summarizes a Chrome trace-event JSON file produced by
// `--perfetto-out` (obs::TraceRecorder::ExportChromeTrace) without opening a
// UI. Prints, per docs/OBSERVABILITY.md:
//   - the critical path through the phase DAG, walked over the `parent`
//     links the PhaseScope spans carry,
//   - per-thread busy % (span time / trace wall time per lane),
//   - instant-event counts by name (pool evictions, checkpoints, ...),
//   - with --reports=FILE.jsonl, the top histogram tails aggregated over the
//     bench records a bench wrote via --trace-out that embed a
//     BulkDeleteReport (the records of measurements that are not one
//     statement carry no report and are skipped),
//   - with --slowlog=FILE.jsonl, the server's slow-query records (see
//     docs/OBSERVABILITY.md): one header per record and, for DELETEs, the
//     same critical-path summary as for full Perfetto traces, walked over
//     the phase spans embedded in the record's BulkDeleteReport.
//
// Usage: bulkdel_tracecat [TRACE.json] [--reports=FILE.jsonl]
//                         [--slowlog=FILE.jsonl] [--top=N]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.h"
#include "obs/metrics.h"
#include "util/json.h"

namespace bulkdel {
namespace {

struct Span {
  std::string name;
  std::string cat;
  std::string parent;
  double ts = 0;   // micros
  double dur = 0;  // micros
  int64_t tid = 0;
};

struct TraceSummary {
  std::vector<Span> spans;
  std::map<int64_t, std::string> thread_names;
  std::map<std::string, int64_t> instant_counts;
  int64_t dropped_events = 0;
};

double NumberOr(const json::Value& v, const std::string& key) {
  return v.DoubleOr(key, 0.0);
}

Result<TraceSummary> LoadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  BULKDEL_ASSIGN_OR_RETURN(json::Value root, json::Parse(buffer.str()));

  TraceSummary summary;
  if (const json::Value* other = root.Find("otherData")) {
    summary.dropped_events = other->IntOr("dropped_events");
  }
  const json::Value* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != json::Value::Kind::kArray) {
    return Status::InvalidArgument("no traceEvents array in " + path);
  }
  for (const json::Value& e : events->array) {
    std::string ph = e.StringOr("ph");
    if (ph == "M") {
      if (e.StringOr("name") == "thread_name") {
        if (const json::Value* args = e.Find("args")) {
          summary.thread_names[e.IntOr("tid")] = args->StringOr("name");
        }
      }
      continue;
    }
    if (ph == "i") {
      summary.instant_counts[e.StringOr("cat") + ":" + e.StringOr("name")]++;
      continue;
    }
    if (ph != "X") continue;
    Span span;
    span.name = e.StringOr("name");
    span.cat = e.StringOr("cat");
    span.ts = NumberOr(e, "ts");
    span.dur = NumberOr(e, "dur");
    span.tid = e.IntOr("tid");
    if (const json::Value* args = e.Find("args")) {
      span.parent = args->StringOr("parent");
    }
    summary.spans.push_back(std::move(span));
  }
  return summary;
}

/// Critical path over the phase spans: start from the phase that finishes
/// last and follow `parent` labels back to a root. Phases repeat across bench
/// cells, so each hop picks the latest same-named span that begins before the
/// current hop ends (its actual upstream in that statement).
void PrintCriticalPath(const TraceSummary& summary) {
  std::vector<const Span*> phases;
  for (const Span& s : summary.spans) {
    if (s.cat == "phase") phases.push_back(&s);
  }
  if (phases.empty()) {
    std::printf("critical path: no phase spans (trace_spans off?)\n");
    return;
  }
  const Span* cur = *std::max_element(
      phases.begin(), phases.end(),
      [](const Span* a, const Span* b) { return a->ts + a->dur < b->ts + b->dur; });
  std::vector<const Span*> path;
  while (cur != nullptr) {
    path.push_back(cur);
    const Span* next = nullptr;
    if (!cur->parent.empty()) {
      for (const Span* candidate : phases) {
        if (candidate->name != cur->parent) continue;
        if (candidate->ts > cur->ts + cur->dur) continue;
        if (next == nullptr || candidate->ts > next->ts) next = candidate;
      }
    }
    cur = next;
    if (path.size() > phases.size()) break;  // defensive: parent cycle
  }
  std::reverse(path.begin(), path.end());
  double total = 0;
  for (const Span* s : path) total += s->dur;
  std::printf("critical path (%zu phases, %.3f ms span time):\n", path.size(),
              total / 1000.0);
  for (const Span* s : path) {
    std::printf("  %-24s %10.3f ms  t%lld [%.3f..%.3f ms]\n", s->name.c_str(),
                s->dur / 1000.0, static_cast<long long>(s->tid),
                s->ts / 1000.0, (s->ts + s->dur) / 1000.0);
  }
}

void PrintThreadBusy(const TraceSummary& summary) {
  if (summary.spans.empty()) return;
  double t0 = summary.spans.front().ts, t1 = 0;
  std::map<int64_t, double> busy;
  for (const Span& s : summary.spans) {
    t0 = std::min(t0, s.ts);
    t1 = std::max(t1, s.ts + s.dur);
    busy[s.tid] += s.dur;
  }
  double wall = t1 - t0;
  if (wall <= 0) return;
  std::printf("\nthread busy (trace wall %.3f ms):\n", wall / 1000.0);
  for (const auto& [tid, micros] : busy) {
    auto it = summary.thread_names.find(tid);
    std::string name =
        it != summary.thread_names.end() ? it->second : "t" + std::to_string(tid);
    std::printf("  %-12s %6.1f%%  (%.3f ms in spans)\n", name.c_str(),
                100.0 * micros / wall, micros / 1000.0);
  }
}

void PrintInstants(const TraceSummary& summary, size_t top) {
  if (summary.instant_counts.empty()) return;
  std::vector<std::pair<std::string, int64_t>> counts(
      summary.instant_counts.begin(), summary.instant_counts.end());
  std::sort(counts.begin(), counts.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("\ninstants:\n");
  for (size_t i = 0; i < counts.size() && i < top; ++i) {
    std::printf("  %-32s %lld\n", counts[i].first.c_str(),
                static_cast<long long>(counts[i].second));
  }
  if (counts.size() > top) {
    std::printf("  ... %zu more kinds\n", counts.size() - top);
  }
}

/// Aggregates report.metrics histograms across every JSONL line and prints
/// the slowest tails first (the "where did the time go" list).
int PrintHistogramTails(const std::string& path, size_t top) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::map<std::string, obs::HistogramSnapshot> merged;
  std::string line;
  size_t reports = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Result<json::Value> record = json::Parse(line);
    if (record.ok() && record->Find("strategy") == nullptr) continue;
    Result<BulkDeleteReport> report = BulkDeleteReport::FromJson(line);
    if (!report.ok()) {
      std::fprintf(stderr, "skipping unparsable report line: %s\n",
                   report.status().ToString().c_str());
      continue;
    }
    ++reports;
    for (const obs::HistogramSnapshot& h : report->metrics.histograms) {
      obs::HistogramSnapshot& m = merged[h.name];
      m.name = h.name;
      m.count += h.count;
      m.sum += h.sum;
      if (m.buckets.size() < h.buckets.size()) {
        m.buckets.resize(h.buckets.size(), 0);
      }
      for (size_t b = 0; b < h.buckets.size(); ++b) m.buckets[b] += h.buckets[b];
    }
  }
  std::vector<const obs::HistogramSnapshot*> order;
  for (const auto& [name, h] : merged) {
    if (h.count > 0) order.push_back(&h);
  }
  std::sort(order.begin(), order.end(),
            [](const obs::HistogramSnapshot* a, const obs::HistogramSnapshot* b) {
              return a->ApproxQuantile(0.99) > b->ApproxQuantile(0.99);
            });
  std::printf("\nhistogram tails (%zu reports from %s):\n", reports,
              path.c_str());
  std::printf("  %-24s %10s %12s %12s %12s %12s\n", "name", "count", "mean",
              "p50", "p90", "p99");
  for (size_t i = 0; i < order.size() && i < top; ++i) {
    const obs::HistogramSnapshot& h = *order[i];
    std::printf("  %-24s %10lld %12.1f %12lld %12lld %12lld\n", h.name.c_str(),
                static_cast<long long>(h.count),
                static_cast<double>(h.sum) / static_cast<double>(h.count),
                static_cast<long long>(h.ApproxQuantile(0.5)),
                static_cast<long long>(h.ApproxQuantile(0.9)),
                static_cast<long long>(h.ApproxQuantile(0.99)));
  }
  if (order.empty()) {
    std::printf("  (no populated histograms — run with --perfetto-out to "
                "enable latency metrics)\n");
  }
  return 0;
}

/// One slow-query JSONL record per line: header with attribution, then the
/// critical path over the embedded report's phase spans (DELETEs). The
/// record format is produced by the SQL layer's slow-query capture.
int PrintSlowLog(const std::string& path, size_t top) {
  (void)top;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::string line;
  size_t records = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Result<json::Value> parsed = json::Parse(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "skipping unparsable slow-query line: %s\n",
                   parsed.status().ToString().c_str());
      continue;
    }
    const json::Value& rec = *parsed;
    ++records;
    const json::Value* ok = rec.Find("ok");
    bool succeeded = ok == nullptr || ok->boolean;
    std::printf("%sslow query #%lld  session %lld  %.3f ms (threshold %.3f "
                "ms)  %s\n",
                records > 1 ? "\n" : "",
                static_cast<long long>(rec.IntOr("statement_id")),
                static_cast<long long>(rec.IntOr("session")),
                static_cast<double>(rec.IntOr("elapsed_ns")) / 1e6,
                static_cast<double>(rec.IntOr("threshold_ns")) / 1e6,
                succeeded ? "ok" : "error");
    std::string statement = rec.StringOr("statement");
    std::printf("  %s\n", statement.substr(0, 160).c_str());
    if (!succeeded) {
      std::printf("  error: %s\n", rec.StringOr("error").c_str());
    }
    const json::Value* report = rec.Find("report");
    const json::Value* phases =
        report != nullptr ? report->Find("phases") : nullptr;
    if (phases == nullptr || phases->kind != json::Value::Kind::kArray) {
      std::printf("  (no phase spans — not a DELETE)\n");
      continue;
    }
    TraceSummary summary;
    for (const json::Value& pv : phases->array) {
      Span span;
      span.name = pv.StringOr("name");
      span.cat = "phase";
      span.parent = pv.StringOr("parent");
      span.ts = static_cast<double>(pv.IntOr("begin_micros"));
      span.dur = static_cast<double>(pv.IntOr("end_micros") -
                                     pv.IntOr("begin_micros"));
      span.tid = pv.IntOr("thread_id");
      summary.spans.push_back(std::move(span));
    }
    PrintCriticalPath(summary);
  }
  std::printf("%s%zu slow-query record(s) in %s\n", records > 0 ? "\n" : "",
              records, path.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  std::string trace_path;
  std::string reports_path;
  std::string slowlog_path;
  size_t top = 12;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--reports=", 10) == 0) {
      reports_path = arg + 10;
    } else if (std::strncmp(arg, "--slowlog=", 10) == 0) {
      slowlog_path = arg + 10;
    } else if (std::strncmp(arg, "--top=", 6) == 0) {
      top = std::strtoull(arg + 6, nullptr, 10);
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: bulkdel_tracecat [TRACE.json] [--reports=FILE.jsonl] "
          "[--slowlog=FILE.jsonl] [--top=N]\n"
          "TRACE.json: Chrome trace from a bench --perfetto-out=FILE run\n"
          "--reports:  bench records (JSONL) from --trace-out=FILE, for "
          "histogram tails\n"
          "--slowlog:  server slow-query JSONL (--slow-query-ns capture); "
          "prints the critical path per record\n");
      return 0;
    } else if (arg[0] != '-') {
      trace_path = arg;
    }
  }
  if (trace_path.empty() && reports_path.empty() && slowlog_path.empty()) {
    std::fprintf(stderr,
                 "usage: bulkdel_tracecat [TRACE.json] [--reports=FILE.jsonl] "
                 "[--slowlog=FILE.jsonl]\n");
    return 1;
  }
  if (!trace_path.empty()) {
    Result<TraceSummary> summary = LoadTrace(trace_path);
    if (!summary.ok()) {
      std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
      return 1;
    }
    std::printf("%s: %zu spans, %zu instant kinds, %lld dropped\n",
                trace_path.c_str(), summary->spans.size(),
                summary->instant_counts.size(),
                static_cast<long long>(summary->dropped_events));
    PrintCriticalPath(*summary);
    PrintThreadBusy(*summary);
    PrintInstants(*summary, top);
  }
  if (!slowlog_path.empty()) {
    if (!trace_path.empty()) std::printf("\n");
    int rc = PrintSlowLog(slowlog_path, top);
    if (rc != 0) return rc;
  }
  if (!reports_path.empty()) {
    return PrintHistogramTails(reports_path, top);
  }
  return 0;
}

}  // namespace
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::Run(argc, argv); }
