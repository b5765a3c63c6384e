// The paper's data-warehouse scenario (§1): a warehouse keeps a *window* of,
// say, the last six months of sales. Every period, the oldest period's rows
// are bulk deleted while new rows stream in. The sale_date index is created
// clustered (the fact table is loaded in date order), which is the paper's
// best case: the RID list needs no sort and the traditional approach gets
// competitive — the planner notices.

#include <cstdio>
#include <vector>

#include "core/database.h"
#include "util/random.h"

using namespace bulkdel;

int main() {
  DatabaseOptions options;
  options.memory_budget_bytes = 1 << 20;
  auto db = Database::Create(options).TakeValue();

  // SALES(sale_id, sale_date, store, amount, PAD); fact rows arrive in date
  // order, so the sale_date index is clustered.
  std::vector<Column> columns = {
      Column::Int64("sale_id"), Column::Int64("sale_date"),
      Column::Int64("store"),   Column::Int64("amount"),
      Column::FixedBytes("PAD", 64),
  };
  if (!db->CreateTable("SALES", Schema{columns}).ok()) return 1;
  if (!db->CreateIndex("SALES", "sale_date", {}, /*clustered=*/true).ok()) {
    return 1;
  }
  if (!db->CreateIndex("SALES", "sale_id", {.unique = true}).ok()) return 1;
  if (!db->CreateIndex("SALES", "store").ok()) return 1;

  constexpr int kWindowMonths = 6;
  constexpr int64_t kRowsPerMonth = 4000;
  Random rng(3);
  int64_t next_id = 0;

  auto load_month = [&](int64_t month) -> Status {
    for (int64_t i = 0; i < kRowsPerMonth; ++i) {
      // Dates ascend within the month, keeping the physical order.
      int64_t date = month * 1000000 + i;
      BULKDEL_RETURN_IF_ERROR(
          db->InsertRow("SALES",
                        {next_id++, date,
                         static_cast<int64_t>(rng.Uniform(50)),
                         static_cast<int64_t>(rng.Uniform(10000))})
              .status());
    }
    return Status::OK();
  };

  // Fill the initial window.
  for (int64_t month = 0; month < kWindowMonths; ++month) {
    if (!load_month(month).ok()) return 1;
  }
  std::printf("window filled: %llu rows over %d months\n",
              static_cast<unsigned long long>(
                  db->GetTable("SALES")->table->tuple_count()),
              kWindowMonths);

  // Slide the window six more months: load month m, delete month m-6.
  for (int64_t month = kWindowMonths; month < 2 * kWindowMonths; ++month) {
    if (!load_month(month).ok()) return 1;
    int64_t expired = month - kWindowMonths;

    // The delete list: sale_date keys of the expired month, via the
    // clustered index (a contiguous range of the leaf level).
    BulkDeleteSpec spec;
    spec.table = "SALES";
    spec.key_column = "sale_date";
    Status s = db->GetIndex("SALES", "sale_date")
                   ->tree->RangeScan(expired * 1000000,
                                     expired * 1000000 + 999999,
                                     [&](int64_t key, const Rid&) {
                                       spec.keys.push_back(key);
                                       return Status::OK();
                                     });
    if (!s.ok()) return 1;
    spec.keys_sorted = true;  // range scan yields them in order

    auto report = db->BulkDelete(spec, Strategy::kOptimizer);
    if (!report.ok()) {
      std::fprintf(stderr, "month %lld: %s\n", static_cast<long long>(month),
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "month %2lld: +%lld new rows, -%llu expired (%s, %.1f sim s), "
        "window now %llu rows\n",
        static_cast<long long>(month), static_cast<long long>(kRowsPerMonth),
        static_cast<unsigned long long>(report->rows_deleted),
        StrategyName(report->strategy_used), report->simulated_seconds(),
        static_cast<unsigned long long>(
            db->GetTable("SALES")->table->tuple_count()));
  }

  Status integrity = db->VerifyIntegrity();
  std::printf("integrity: %s\n", integrity.ToString().c_str());
  return integrity.ok() ? 0 : 1;
}
