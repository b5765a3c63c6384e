#include "core/sql.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>
#include <vector>

#include "exec/delete_list.h"
#include "obs/slow_query_log.h"
#include "obs/statement_registry.h"
#include "util/json.h"

namespace bulkdel {

namespace {

/// Tokenizer: identifiers/keywords, integer literals, punctuation.
struct Token {
  enum Kind { kWord, kNumber, kPunct, kEnd } kind = kEnd;
  std::string text;
  int64_t number = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Token Next() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= input_.size()) return Token{Token::kEnd, "", 0};
    char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_')) {
        ++pos_;
      }
      return Token{Token::kWord, input_.substr(start, pos_ - start), 0};
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < input_.size() &&
         std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
      size_t start = pos_;
      ++pos_;
      while (pos_ < input_.size() &&
             std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
      Token t{Token::kNumber, input_.substr(start, pos_ - start), 0};
      t.number = std::strtoll(t.text.c_str(), nullptr, 10);
      return t;
    }
    ++pos_;
    return Token{Token::kPunct, std::string(1, c), 0};
  }

 private:
  const std::string& input_;
  size_t pos_ = 0;
};

bool KeywordIs(const Token& t, const char* kw) {
  if (t.kind != Token::kWord) return false;
  const std::string& s = t.text;
  size_t i = 0;
  for (; kw[i] != '\0'; ++i) {
    if (i >= s.size() ||
        std::toupper(static_cast<unsigned char>(s[i])) != kw[i]) {
      return false;
    }
  }
  return i == s.size();
}

Status ParseError(const std::string& what, const Token& got) {
  return Status::InvalidArgument("parse error: expected " + what + ", got '" +
                                 (got.kind == Token::kEnd ? "<end>" : got.text) +
                                 "'");
}

Status DeleteListTooLarge(size_t max_keys) {
  return Status::ResourceExhausted(
      "delete list exceeds the session bound of " + std::to_string(max_keys) +
      " keys");
}

}  // namespace

Result<BulkDeleteSpec> ParseBulkDelete(Database* db,
                                       const std::string& statement,
                                       size_t max_keys) {
  Lexer lexer(statement);
  Token t = lexer.Next();
  if (!KeywordIs(t, "DELETE")) return ParseError("DELETE", t);
  t = lexer.Next();
  if (!KeywordIs(t, "FROM")) return ParseError("FROM", t);
  t = lexer.Next();
  if (t.kind != Token::kWord) return ParseError("table name", t);

  BulkDeleteSpec spec;
  spec.table = t.text;
  TableDef* table = db->GetTable(spec.table);
  if (table == nullptr) {
    return Status::NotFound("no table " + spec.table);
  }

  t = lexer.Next();
  if (!KeywordIs(t, "WHERE")) return ParseError("WHERE", t);
  t = lexer.Next();
  if (t.kind != Token::kWord) return ParseError("column name", t);
  spec.key_column = t.text;
  if (table->schema->FindColumn(spec.key_column) < 0) {
    return Status::NotFound("no column " + spec.key_column + " in " +
                            spec.table);
  }

  t = lexer.Next();
  if (KeywordIs(t, "IN")) {
    t = lexer.Next();
    if (t.kind != Token::kPunct || t.text != "(") return ParseError("(", t);
    t = lexer.Next();
    if (KeywordIs(t, "SELECT")) {
      // IN (SELECT col2 FROM table2)
      t = lexer.Next();
      if (t.kind != Token::kWord) return ParseError("column name", t);
      std::string sub_column = t.text;
      t = lexer.Next();
      if (!KeywordIs(t, "FROM")) return ParseError("FROM", t);
      t = lexer.Next();
      if (t.kind != Token::kWord) return ParseError("table name", t);
      TableDef* d_table = db->GetTable(t.text);
      if (d_table == nullptr) {
        return Status::NotFound("no table " + t.text);
      }
      int col = d_table->schema->FindColumn(sub_column);
      if (col < 0) {
        return Status::NotFound("no column " + sub_column + " in " + t.text);
      }
      t = lexer.Next();
      if (t.kind != Token::kPunct || t.text != ")") return ParseError(")", t);
      {
        // Extraction scans the referenced table: shared-lock it and hold its
        // heap latch so concurrent sessions' DML cannot move tuples mid-scan.
        // The session key bound stops the scan as soon as it is exceeded.
        LockManager::SharedGuard lock(&db->locks(), d_table->name);
        std::lock_guard<std::mutex> heap(d_table->heap_latch);
        BULKDEL_ASSIGN_OR_RETURN(
            spec.keys,
            ExtractKeysFromTable(d_table->table.get(), col, max_keys));
      }
    } else {
      // IN (literal, literal, ...)
      while (true) {
        if (t.kind != Token::kNumber) return ParseError("integer literal", t);
        if (max_keys != 0 && spec.keys.size() >= max_keys) {
          return DeleteListTooLarge(max_keys);
        }
        spec.keys.push_back(t.number);
        t = lexer.Next();
        if (t.kind == Token::kPunct && t.text == ",") {
          t = lexer.Next();
          continue;
        }
        if (t.kind == Token::kPunct && t.text == ")") break;
        return ParseError(", or )", t);
      }
    }
  } else if (KeywordIs(t, "BETWEEN")) {
    t = lexer.Next();
    if (t.kind != Token::kNumber) return ParseError("integer literal", t);
    int64_t lo = t.number;
    t = lexer.Next();
    if (!KeywordIs(t, "AND")) return ParseError("AND", t);
    t = lexer.Next();
    if (t.kind != Token::kNumber) return ParseError("integer literal", t);
    int64_t hi = t.number;
    // BETWEEN is a first-class range predicate: carried symbolically and
    // evaluated at execution time inside the statement's exclusive-lock
    // window. No key extraction here — that used to be O(tuples), capped by
    // max_keys (so sliding-window deletes errored), and raced concurrent DML
    // because the shared lock was dropped before execution. Ranges are
    // deliberately exempt from the session key bound: their plans are
    // O(extents freed), not O(keys materialized).
    spec.predicate = DeletePredicate::kRange;
    spec.range_lo = lo;
    spec.range_hi = hi;
    spec.keys_sorted = true;  // a range is trivially in key order
  } else {
    return ParseError("IN or BETWEEN", t);
  }

  t = lexer.Next();
  if (t.kind == Token::kPunct && t.text == ";") t = lexer.Next();
  if (t.kind != Token::kEnd) return ParseError("end of statement", t);
  return spec;
}

Result<BulkDeleteReport> ExecuteSql(Database* db, const std::string& statement,
                                    Strategy strategy) {
  BULKDEL_ASSIGN_OR_RETURN(BulkDeleteSpec spec,
                           ParseBulkDelete(db, statement));
  return db->BulkDelete(spec, strategy);
}

namespace {

Result<std::string> ExecuteCreate(Database* db, Lexer* lexer) {
  Token t = lexer->Next();
  bool unique = false;
  if (KeywordIs(t, "UNIQUE")) {
    unique = true;
    t = lexer->Next();
  }
  if (KeywordIs(t, "TABLE")) {
    if (unique) return ParseError("INDEX after UNIQUE", t);
    t = lexer->Next();
    if (t.kind != Token::kWord) return ParseError("table name", t);
    std::string table = t.text;
    t = lexer->Next();
    if (t.kind != Token::kPunct || t.text != "(") return ParseError("(", t);
    std::vector<Column> columns;
    while (true) {
      t = lexer->Next();
      if (t.kind != Token::kWord) return ParseError("column name", t);
      std::string name = t.text;
      t = lexer->Next();
      if (KeywordIs(t, "INT") || KeywordIs(t, "INTEGER") ||
          KeywordIs(t, "BIGINT")) {
        columns.push_back(Column::Int64(name));
      } else if (KeywordIs(t, "CHAR")) {
        t = lexer->Next();
        if (t.kind != Token::kPunct || t.text != "(") return ParseError("(", t);
        t = lexer->Next();
        if (t.kind != Token::kNumber || t.number <= 0) {
          return ParseError("positive width", t);
        }
        columns.push_back(
            Column::FixedBytes(name, static_cast<uint32_t>(t.number)));
        t = lexer->Next();
        if (t.kind != Token::kPunct || t.text != ")") return ParseError(")", t);
      } else {
        return ParseError("INT or CHAR(n)", t);
      }
      t = lexer->Next();
      if (t.kind == Token::kPunct && t.text == ",") continue;
      if (t.kind == Token::kPunct && t.text == ")") break;
      return ParseError(", or )", t);
    }
    BULKDEL_RETURN_IF_ERROR(
        db->CreateTable(table, Schema{std::move(columns)}).status());
    return std::string("created table " + table);
  }
  if (!KeywordIs(t, "INDEX")) return ParseError("TABLE or INDEX", t);
  t = lexer->Next();
  if (!KeywordIs(t, "ON")) return ParseError("ON", t);
  t = lexer->Next();
  if (t.kind != Token::kWord) return ParseError("table name", t);
  std::string table = t.text;
  t = lexer->Next();
  if (t.kind != Token::kPunct || t.text != "(") return ParseError("(", t);
  t = lexer->Next();
  if (t.kind != Token::kWord) return ParseError("column name", t);
  std::string column = t.text;
  t = lexer->Next();
  if (t.kind != Token::kPunct || t.text != ")") return ParseError(")", t);
  IndexOptions options;
  options.unique = unique;
  bool clustered = false;
  t = lexer->Next();
  while (t.kind == Token::kWord) {
    if (KeywordIs(t, "CLUSTERED")) {
      clustered = true;
    } else if (KeywordIs(t, "PRIORITY")) {
      t = lexer->Next();
      if (t.kind != Token::kNumber) return ParseError("priority value", t);
      options.priority = static_cast<int16_t>(t.number);
    } else {
      return ParseError("CLUSTERED or PRIORITY", t);
    }
    t = lexer->Next();
  }
  BULKDEL_RETURN_IF_ERROR(
      db->CreateIndex(table, column, options, clustered).status());
  return std::string("created index " + table + "." + column);
}

Result<std::string> ExecuteInsert(Database* db, Lexer* lexer) {
  Token t = lexer->Next();
  if (!KeywordIs(t, "INTO")) return ParseError("INTO", t);
  t = lexer->Next();
  if (t.kind != Token::kWord) return ParseError("table name", t);
  std::string table = t.text;
  t = lexer->Next();
  if (!KeywordIs(t, "VALUES")) return ParseError("VALUES", t);
  t = lexer->Next();
  if (t.kind != Token::kPunct || t.text != "(") return ParseError("(", t);
  std::vector<int64_t> values;
  while (true) {
    t = lexer->Next();
    if (t.kind != Token::kNumber) return ParseError("integer literal", t);
    values.push_back(t.number);
    t = lexer->Next();
    if (t.kind == Token::kPunct && t.text == ",") continue;
    if (t.kind == Token::kPunct && t.text == ")") break;
    return ParseError(", or )", t);
  }
  BULKDEL_ASSIGN_OR_RETURN(Rid rid, db->InsertRow(table, values));
  return std::string("inserted 1 row at " + rid.ToString());
}

// -- sys.* virtual tables -----------------------------------------------------
//
// Read-only snapshots of the observability plane, rendered as aligned text
// tables (first line is the header). They read atomics and registry memory
// only — no table locks, no DiskManager — so scraping a live server cannot
// perturb running statements or simulated I/O (docs/OBSERVABILITY.md).

std::string FormatRows(const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(header.size());
  for (size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += "  ";
      out += row[c];
      if (c + 1 < row.size() && c < widths.size()) {
        out.append(widths[c] - row[c].size(), ' ');
      }
    }
    out += '\n';
  };
  append_row(header);
  for (const auto& row : rows) append_row(row);
  out.pop_back();  // no trailing newline in statement results
  return out;
}

/// "(lo,hi]" for the log2 bucket a quantile landed in: both edges matter
/// because the quantization is a full power of two.
std::string QuantileCell(const obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return "-";
  return "(" + std::to_string(h.ApproxQuantileLo(q)) + "," +
         std::to_string(h.ApproxQuantile(q)) + "]";
}

std::string SysMetrics(Database* db) {
  obs::MetricsSnapshot snap = db->metrics().Snapshot();
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, value] : snap.counters) {
    const obs::MetricInfo* info = obs::FindKnownMetric(name);
    const char* kind =
        info != nullptr && info->kind == obs::MetricKind::kGauge ? "gauge"
                                                                 : "counter";
    rows.push_back({name, kind, info != nullptr ? info->unit : "-",
                    std::to_string(value), "-", "-", "-"});
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    const obs::MetricInfo* info = obs::FindKnownMetric(h.name);
    rows.push_back({h.name, "histogram", info != nullptr ? info->unit : "-",
                    std::to_string(h.count), QuantileCell(h, 0.50),
                    QuantileCell(h, 0.99), QuantileCell(h, 0.999)});
  }
  return FormatRows({"name", "kind", "unit", "value", "p50", "p99", "p999"},
                    rows);
}

std::string SysHistograms(Database* db) {
  obs::MetricsSnapshot snap = db->metrics().Snapshot();
  std::vector<std::vector<std::string>> rows;
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    int64_t cumulative = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      if (h.buckets[b] == 0) continue;
      int64_t hi = obs::Histogram::BucketUpperBound(static_cast<int>(b));
      int64_t lo =
          b == 0 ? 0
                 : obs::Histogram::BucketUpperBound(static_cast<int>(b) - 1) +
                       1;
      rows.push_back({h.name, std::to_string(b), std::to_string(lo),
                      std::to_string(hi), std::to_string(h.buckets[b]),
                      std::to_string(cumulative)});
    }
  }
  return FormatRows({"name", "bucket", "lo", "hi", "count", "cum"}, rows);
}

std::string SysSessions() {
  std::vector<std::vector<std::string>> rows;
  for (const obs::SessionRow& s : obs::StatementRegistry::Global().Sessions()) {
    rows.push_back({std::to_string(s.id), s.peer,
                    std::to_string(s.elapsed_nanos / 1000),
                    std::to_string(s.statements),
                    s.inflight_statement == 0
                        ? "-"
                        : std::to_string(s.inflight_statement)});
  }
  return FormatRows({"session", "peer", "elapsed_us", "statements", "inflight"},
                    rows);
}

std::string SysStatements() {
  std::vector<std::vector<std::string>> rows;
  for (const obs::StatementRow& s :
       obs::StatementRegistry::Global().Statements()) {
    const char* state = !s.finished ? "run" : (s.ok ? "ok" : "error");
    // Two always-populating counters from the live delta show attribution at
    // a glance; the full delta rides the slow-query log / BulkDeleteReport.
    int64_t d_wal = s.delta.CounterOr(obs::metric_names::kWalSyncs);
    int64_t d_phases =
        s.delta.CounterOr(obs::metric_names::kSchedPhasesDispatched);
    rows.push_back({std::to_string(s.id),
                    s.session_id == 0 ? "-" : std::to_string(s.session_id),
                    state, s.phase.empty() ? "-" : s.phase,
                    std::to_string(s.elapsed_nanos / 1000),
                    std::to_string(s.rows), std::to_string(d_wal),
                    std::to_string(d_phases), s.statement});
  }
  return FormatRows({"id", "session", "state", "phase", "elapsed_us", "rows",
                     "d_wal_syncs", "d_phases", "statement"},
                    rows);
}

Result<std::string> ExecuteSysSelect(Database* db, const std::string& name) {
  if (name == "metrics") return SysMetrics(db);
  if (name == "histograms") return SysHistograms(db);
  if (name == "sessions") return SysSessions();
  if (name == "statements") return SysStatements();
  return Status::NotFound(
      "no sys table " + name +
      " (known: sys.metrics, sys.histograms, sys.sessions, sys.statements)");
}

Result<std::string> ExecuteSelectCount(Database* db, Lexer* lexer) {
  // SELECT COUNT(*) FROM t [WHERE col BETWEEN lo AND hi]; the dispatcher
  // consumed COUNT.
  Token t = lexer->Next();
  if (t.kind != Token::kPunct || t.text != "(") return ParseError("(", t);
  t = lexer->Next();
  if (t.kind != Token::kPunct || t.text != "*") return ParseError("*", t);
  t = lexer->Next();
  if (t.kind != Token::kPunct || t.text != ")") return ParseError(")", t);
  t = lexer->Next();
  if (!KeywordIs(t, "FROM")) return ParseError("FROM", t);
  t = lexer->Next();
  if (t.kind != Token::kWord) return ParseError("table name", t);
  TableDef* table = db->GetTable(t.text);
  if (table == nullptr) return Status::NotFound("no table " + t.text);
  // Reads follow the DML locking discipline (shared table lock, then the
  // heap or index latch) so network sessions can count concurrently with
  // other sessions' inserts and deletes.
  t = lexer->Next();
  if (t.kind == Token::kEnd ||
      (t.kind == Token::kPunct && t.text == ";")) {
    LockManager::SharedGuard lock(&db->locks(), table->name);
    std::lock_guard<std::mutex> heap(table->heap_latch);
    return std::string("count = " +
                       std::to_string(table->table->tuple_count()));
  }
  if (!KeywordIs(t, "WHERE")) return ParseError("WHERE", t);
  t = lexer->Next();
  if (t.kind != Token::kWord) return ParseError("column name", t);
  int col = table->schema->FindColumn(t.text);
  if (col < 0) return Status::NotFound("no column " + t.text);
  std::string column = t.text;
  t = lexer->Next();
  if (!KeywordIs(t, "BETWEEN")) return ParseError("BETWEEN", t);
  t = lexer->Next();
  if (t.kind != Token::kNumber) return ParseError("integer literal", t);
  int64_t lo = t.number;
  t = lexer->Next();
  if (!KeywordIs(t, "AND")) return ParseError("AND", t);
  t = lexer->Next();
  if (t.kind != Token::kNumber) return ParseError("integer literal", t);
  int64_t hi = t.number;
  uint64_t count = 0;
  LockManager::SharedGuard lock(&db->locks(), table->name);
  IndexDef* index = table->FindIndexOnColumn(col);
  if (index != nullptr) {
    std::lock_guard<std::mutex> latch(index->cc->latch);
    BULKDEL_RETURN_IF_ERROR(index->tree->RangeScan(
        lo, hi, [&](int64_t, const Rid&) {
          ++count;
          return Status::OK();
        }));
  } else {
    const Schema& schema = *table->schema;
    std::lock_guard<std::mutex> heap(table->heap_latch);
    BULKDEL_RETURN_IF_ERROR(
        table->table->Scan([&](const Rid&, const char* tuple) {
          int64_t v = schema.GetInt(tuple, static_cast<size_t>(col));
          if (v >= lo && v <= hi) ++count;
          return Status::OK();
        }));
  }
  return std::string("count = " + std::to_string(count) + " (" + column +
                     " between " + std::to_string(lo) + " and " +
                     std::to_string(hi) + ")");
}

Result<std::string> ExecuteSelect(Database* db, Lexer* lexer) {
  Token t = lexer->Next();
  if (t.kind == Token::kPunct && t.text == "*") {
    // SELECT * FROM sys.<name>
    t = lexer->Next();
    if (!KeywordIs(t, "FROM")) return ParseError("FROM", t);
    t = lexer->Next();
    if (t.kind != Token::kWord) return ParseError("table name", t);
    std::string qualifier = t.text;
    t = lexer->Next();
    if (qualifier == "sys" && t.kind == Token::kPunct && t.text == ".") {
      t = lexer->Next();
      if (t.kind != Token::kWord) return ParseError("sys table name", t);
      std::string name = t.text;
      t = lexer->Next();
      if (t.kind == Token::kPunct && t.text == ";") t = lexer->Next();
      if (t.kind != Token::kEnd) return ParseError("end of statement", t);
      return ExecuteSysSelect(db, name);
    }
    return Status::InvalidArgument(
        "SELECT * is supported for sys.* virtual tables only "
        "(data tables support SELECT COUNT(*))");
  }
  if (!KeywordIs(t, "COUNT")) return ParseError("COUNT or *", t);
  return ExecuteSelectCount(db, lexer);
}

Result<std::string> ExecuteDropIndex(Database* db, Lexer* lexer) {
  Token t = lexer->Next();
  if (!KeywordIs(t, "INDEX")) return ParseError("INDEX", t);
  t = lexer->Next();
  if (!KeywordIs(t, "ON")) return ParseError("ON", t);
  t = lexer->Next();
  if (t.kind != Token::kWord) return ParseError("table name", t);
  std::string table = t.text;
  t = lexer->Next();
  if (t.kind != Token::kPunct || t.text != "(") return ParseError("(", t);
  t = lexer->Next();
  if (t.kind != Token::kWord) return ParseError("column name", t);
  std::string column = t.text;
  t = lexer->Next();
  if (t.kind != Token::kPunct || t.text != ")") return ParseError(")", t);
  BULKDEL_RETURN_IF_ERROR(db->DropIndex(table, column));
  return std::string("dropped index " + table + "." + column);
}

Result<std::string> ExecuteSet(SqlSession* session, Lexer* lexer) {
  Token t = lexer->Next();
  if (!KeywordIs(t, "STRATEGY")) return ParseError("STRATEGY", t);
  t = lexer->Next();
  // Strategy names contain '-', which lexes as word/punct runs; re-join them.
  std::string name;
  while (t.kind == Token::kWord ||
         (t.kind == Token::kPunct && t.text == "-")) {
    name += t.text;
    t = lexer->Next();
  }
  if (t.kind == Token::kPunct && t.text == ";") t = lexer->Next();
  if (t.kind != Token::kEnd) return ParseError("end of statement", t);
  Strategy strategy;
  if (!StrategyFromName(name, &strategy)) {
    return Status::InvalidArgument("unknown strategy '" + name + "'");
  }
  session->strategy = strategy;
  return std::string("strategy = " + name);
}

/// Builds and appends the slow-query JSONL record once the statement scope
/// measured an over-threshold latency. For DELETEs the record embeds the
/// full BulkDeleteReport JSON — the phase spans bulkdel_tracecat --slowlog
/// walks for the critical path plus the statement's metrics delta
/// (docs/OBSERVABILITY.md documents the layout).
void MaybeCaptureSlowQuery(SqlSession* session,
                           const obs::StatementScope& scope,
                           const std::string& statement,
                           const Result<std::string>& result,
                           const std::optional<BulkDeleteReport>& report) {
  obs::SlowQueryLog* log = session->slow_log;
  if (log == nullptr) return;
  int64_t elapsed_ns = scope.ElapsedNanos();
  if (!log->Exceeds(elapsed_ns)) return;
  std::string rec = "{\"statement_id\":" + std::to_string(scope.id()) +
                    ",\"session\":" + std::to_string(session->session_id) +
                    ",\"elapsed_ns\":" + std::to_string(elapsed_ns) +
                    ",\"threshold_ns\":" + std::to_string(log->threshold_ns()) +
                    ",\"ok\":" + (result.ok() ? "true" : "false") +
                    ",\"statement\":";
  json::AppendEscaped(&rec, statement.substr(0, 4096));
  if (result.ok()) {
    rec += ",\"result\":";
    json::AppendEscaped(&rec, *result);
  } else {
    rec += ",\"error\":";
    json::AppendEscaped(&rec, result.status().ToString());
  }
  if (report.has_value()) {
    rec += ",\"report\":";
    rec += report->ToJson();
  }
  rec += '}';
  log->Append(rec).ok();  // best-effort: capture must never fail a statement
}

}  // namespace

Result<std::string> ExecuteStatement(Database* db, SqlSession* session,
                                     const std::string& statement) {
  // Every statement attributes to a row in the global StatementRegistry for
  // its duration (sys.statements / sys.sessions); the scope also carries the
  // thread-local id ExecContext captures so worker-thread phases publish to
  // the right row.
  obs::StatementScope scope(session->session_id, statement,
                            db != nullptr ? &db->metrics() : nullptr);
  // DELETE keeps its report alive past the dispatcher when slow-query
  // capture might need the phase spans.
  std::optional<BulkDeleteReport> delete_report;
  Lexer lexer(statement);
  Token t = lexer.Next();
  Result<std::string> result = [&]() -> Result<std::string> {
    if (KeywordIs(t, "CREATE")) return ExecuteCreate(db, &lexer);
    if (KeywordIs(t, "DROP")) return ExecuteDropIndex(db, &lexer);
    if (KeywordIs(t, "INSERT")) return ExecuteInsert(db, &lexer);
    if (KeywordIs(t, "SELECT")) return ExecuteSelect(db, &lexer);
    if (KeywordIs(t, "SET")) return ExecuteSet(session, &lexer);
    if (KeywordIs(t, "SHOW")) {
      Token what = lexer.Next();
      if (KeywordIs(what, "STRATEGY")) {
        return std::string("strategy = ") + StrategyName(session->strategy);
      }
      if (KeywordIs(what, "METRICS")) return SysMetrics(db);
      if (KeywordIs(what, "SESSIONS")) return SysSessions();
      return ParseError("STRATEGY, METRICS or SESSIONS", what);
    }
    if (KeywordIs(t, "EXPLAIN")) {
      std::string rest = statement;
      size_t pos = rest.find_first_not_of(" \t");
      pos = rest.find(' ', pos);  // skip the EXPLAIN token
      if (pos == std::string::npos) {
        return Status::InvalidArgument("EXPLAIN what?");
      }
      BULKDEL_ASSIGN_OR_RETURN(
          BulkDeleteSpec spec,
          ParseBulkDelete(db, rest.substr(pos + 1), session->max_delete_keys));
      BULKDEL_ASSIGN_OR_RETURN(BulkDeletePlan plan,
                               db->ExplainBulkDelete(spec, session->strategy));
      return plan.Explain();
    }
    if (KeywordIs(t, "DELETE")) {
      BULKDEL_ASSIGN_OR_RETURN(
          BulkDeleteSpec spec,
          ParseBulkDelete(db, statement, session->max_delete_keys));
      BULKDEL_ASSIGN_OR_RETURN(BulkDeleteReport report,
                               db->BulkDelete(spec, session->strategy));
      scope.set_rows(report.rows_deleted);
      std::string line =
          "deleted " + std::to_string(report.rows_deleted) + " row(s) [" +
          StrategyName(report.strategy_used) + ", " +
          std::to_string(report.simulated_seconds()) + " simulated s]";
      if (report.cascaded_rows > 0) {
        // Per-leg attribution so "forget user X" answers show where the
        // collateral rows went without a slow-log round trip.
        line += ", cascaded " + std::to_string(report.cascaded_rows) +
                " row(s) (";
        for (size_t i = 0; i < report.cascade_tables.size(); ++i) {
          if (i > 0) line += ", ";
          line += report.cascade_tables[i].table + ": " +
                  std::to_string(report.cascade_tables[i].rows);
        }
        line += ")";
      }
      if (session->slow_log != nullptr) delete_report = std::move(report);
      return line;
    }
    return ParseError(
        "CREATE, DROP, INSERT, SELECT, SET, SHOW, EXPLAIN or DELETE", t);
  }();
  scope.set_ok(result.ok());
  if (result.ok()) ++session->statements;
  MaybeCaptureSlowQuery(session, scope, statement, result, delete_report);
  return result;
}

Result<std::string> ExecuteStatement(Database* db,
                                     const std::string& statement,
                                     Strategy strategy) {
  SqlSession session;
  session.strategy = strategy;
  session.max_delete_keys = 0;  // unbounded, as before sessions existed
  return ExecuteStatement(db, &session, statement);
}

}  // namespace bulkdel
