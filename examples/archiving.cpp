// The paper's motivating scenario (§1): archiving. Step 1 extracts the data
// to archive ("all orders processed more than three months ago") and writes
// it to an archive file; step 2 — the subject of the paper — bulk deletes
// those rows from the database.
//
// ORDERS(order_id, order_date, ship_date, amount, PAD) with indices on
// order_id (unique key), order_date and ship_date. Note the paper's point
// about partitioning: deletes sometimes go by order_date, sometimes by
// ship_date, so no single physical partitioning can serve both — bulk
// delete operators can.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/database.h"
#include "util/random.h"

using namespace bulkdel;

namespace {
constexpr int64_t kDay = 86400;

int RunArchive(Database* db, const std::string& date_column, int64_t cutoff,
               const std::string& archive_path) {
  TableDef* orders = db->GetTable("ORDERS");

  // Step 1 of archiving: the extraction query. With an index on the date
  // column this is an index range scan producing the keys to delete.
  auto* date_index = db->GetIndex("ORDERS", date_column);
  std::vector<int64_t> doomed_ids;
  std::vector<Rid> doomed_rids;
  Status s = date_index->tree->RangeScan(
      0, cutoff, [&](int64_t, const Rid& rid) {
        doomed_rids.push_back(rid);
        return Status::OK();
      });
  if (!s.ok()) return 1;

  // Write the archive (and collect the delete keys).
  FILE* archive = std::fopen(archive_path.c_str(), "w");
  if (archive == nullptr) return 1;
  std::vector<char> tuple(orders->schema->tuple_size());
  for (const Rid& rid : doomed_rids) {
    if (!orders->table->Get(rid, tuple.data()).ok()) continue;
    int64_t id = orders->schema->GetInt(tuple.data(), 0);
    doomed_ids.push_back(id);
    std::fprintf(archive, "%lld,%lld,%lld,%lld\n",
                 static_cast<long long>(id),
                 static_cast<long long>(orders->schema->GetInt(tuple.data(), 1)),
                 static_cast<long long>(orders->schema->GetInt(tuple.data(), 2)),
                 static_cast<long long>(orders->schema->GetInt(tuple.data(), 3)));
  }
  std::fclose(archive);
  std::printf("archived %zu orders (by %s <= day %lld) to %s\n",
              doomed_ids.size(), date_column.c_str(),
              static_cast<long long>(cutoff / kDay), archive_path.c_str());

  // Step 2: the bulk delete, via the cost-based planner.
  BulkDeleteSpec spec;
  spec.table = "ORDERS";
  spec.key_column = "order_id";
  spec.keys = std::move(doomed_ids);
  auto report = db->BulkDelete(spec, Strategy::kOptimizer);
  if (!report.ok()) {
    std::fprintf(stderr, "bulk delete: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("bulk delete (%s): %llu rows in %.1f simulated seconds "
              "(plan: %s)\n\n",
              date_column.c_str(),
              static_cast<unsigned long long>(report->rows_deleted),
              report->simulated_seconds(),
              StrategyName(report->strategy_used));
  return 0;
}
}  // namespace

int main() {
  DatabaseOptions options;
  options.memory_budget_bytes = 1 << 20;
  auto db = Database::Create(options).TakeValue();

  std::vector<Column> columns = {
      Column::Int64("order_id"),   Column::Int64("order_date"),
      Column::Int64("ship_date"),  Column::Int64("amount"),
      Column::FixedBytes("PAD", 96),
  };
  Schema schema{columns};
  if (!db->CreateTable("ORDERS", schema).ok()) return 1;
  if (!db->CreateIndex("ORDERS", "order_id", {.unique = true}).ok()) return 1;
  if (!db->CreateIndex("ORDERS", "order_date").ok()) return 1;
  if (!db->CreateIndex("ORDERS", "ship_date").ok()) return 1;

  // A year of orders, ~80 per day; shipping lags ordering by 0-14 days.
  Random rng(7);
  for (int64_t id = 0; id < 30000; ++id) {
    int64_t order_day = static_cast<int64_t>(rng.Uniform(365));
    int64_t ship_day = order_day + static_cast<int64_t>(rng.Uniform(15));
    auto rid = db->InsertRow(
        "ORDERS", {id, order_day * kDay, ship_day * kDay,
                   static_cast<int64_t>(rng.Uniform(100000))});
    if (!rid.ok()) return 1;
  }
  std::printf("loaded %llu orders\n\n",
              static_cast<unsigned long long>(
                  db->GetTable("ORDERS")->table->tuple_count()));

  // First archiving run deletes by order_date, the second by ship_date —
  // two different dimensions over the same table.
  std::string dir = "/tmp";
  if (const char* env = std::getenv("TMPDIR")) dir = env;
  if (RunArchive(db.get(), "order_date", 90 * kDay,
                 dir + "/orders_by_order_date.csv") != 0) {
    return 1;
  }
  if (RunArchive(db.get(), "ship_date", 180 * kDay,
                 dir + "/orders_by_ship_date.csv") != 0) {
    return 1;
  }

  Status integrity = db->VerifyIntegrity();
  std::printf("integrity: %s, %llu orders remain\n",
              integrity.ToString().c_str(),
              static_cast<unsigned long long>(
                  db->GetTable("ORDERS")->table->tuple_count()));
  return integrity.ok() ? 0 : 1;
}
