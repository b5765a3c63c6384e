// §3.2 in action: a checkpointed bulk delete is interrupted by a crash in
// the middle of the table phase. On restart, recovery analyzes the durable
// log, finds the interrupted statement, and rolls it *forward* from the last
// checkpoint (the paper's design: finish the bulk deletion instead of
// rolling it back), using the materialized delete lists and the WAL.

#include <cstdio>

#include "core/database.h"
#include "fault/fault_injector.h"
#include "util/random.h"

using namespace bulkdel;

int main() {
  auto injector = std::make_shared<FaultInjector>();
  DatabaseOptions options;
  options.memory_budget_bytes = 512 * 1024;
  options.enable_recovery_log = true;
  options.fault_injector = injector;
  auto db = Database::Create(options).TakeValue();

  Schema schema = Schema::PaperStyle(3, 128).value();
  if (!db->CreateTable("R", schema).ok()) return 1;
  if (!db->CreateIndex("R", "A", {.unique = true}).ok()) return 1;
  if (!db->CreateIndex("R", "B").ok()) return 1;
  if (!db->CreateIndex("R", "C").ok()) return 1;

  Random rng(11);
  for (int64_t i = 0; i < 20000; ++i) {
    if (!db->InsertRow("R", {i, static_cast<int64_t>(rng.Next() >> 20),
                             static_cast<int64_t>(rng.Next() >> 20)})
             .ok()) {
      return 1;
    }
  }
  // Make the load durable (the recovery log covers bulk deletes; loads are
  // made durable by checkpoints).
  if (!db->Checkpoint().ok()) return 1;
  std::printf("loaded and checkpointed %llu rows\n",
              static_cast<unsigned long long>(
                  db->GetTable("R")->table->tuple_count()));

  BulkDeleteSpec spec;
  spec.table = "R";
  spec.key_column = "A";
  for (int64_t k = 0; k < 20000; k += 4) spec.keys.push_back(k);

  // Inject a crash when the executor dispatches the table phase: the key
  // index has already been processed and checkpointed, the table has not.
  injector->Arm(fault_sites::kSchedPhaseStart, 1, FaultMode::kCrash, "table");
  auto crashed = db->BulkDelete(spec, Strategy::kVerticalSortMerge);
  std::printf("\nbulk delete interrupted: %s\n",
              crashed.status().ToString().c_str());
  std::printf("durable log records at crash: %zu\n",
              db->log().durable_size());

  // "Power-cycle": buffer pool contents and the un-synced log tail vanish;
  // the database restarts from disk and recovery finishes the statement.
  injector->Disarm();
  Status recovered = db->SimulateCrashAndRecover();
  std::printf("restart + roll-forward recovery: %s\n",
              recovered.ToString().c_str());
  if (!recovered.ok()) return 1;

  uint64_t remaining = db->GetTable("R")->table->tuple_count();
  std::printf("rows remaining: %llu (expected %llu)\n",
              static_cast<unsigned long long>(remaining),
              static_cast<unsigned long long>(20000 - spec.keys.size()));
  Status integrity = db->VerifyIntegrity();
  std::printf("integrity: %s\n", integrity.ToString().c_str());
  std::printf("log truncated to %zu records\n", db->log().durable_size());
  return integrity.ok() && remaining == 20000 - spec.keys.size() ? 0 : 1;
}
