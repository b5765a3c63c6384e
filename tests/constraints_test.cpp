// Referential-integrity processing (§2.1's vertical constraint checking):
// RESTRICT and CASCADE foreign keys under both row-level DML and bulk
// deletes, including multi-level cascades and cycle rejection.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/database.h"
#include "fault/fault_injector.h"

namespace bulkdel {
namespace {

class ConstraintsTest : public ::testing::Test {
 protected:
  ConstraintsTest() {
    DatabaseOptions options;
    options.memory_budget_bytes = 256 * 1024;
    db_ = *Database::Create(options);
    Schema parent_schema = *Schema::PaperStyle(2, 64);  // CUSTOMER(A=id, B)
    Schema child_schema = *Schema::PaperStyle(3, 64);   // ORD(A=id, B=cust, C)
    EXPECT_TRUE(db_->CreateTable("CUSTOMER", parent_schema).ok());
    EXPECT_TRUE(db_->CreateIndex("CUSTOMER", "A", {.unique = true}).ok());
    EXPECT_TRUE(db_->CreateTable("ORD", child_schema).ok());
    EXPECT_TRUE(db_->CreateIndex("ORD", "A", {.unique = true}).ok());
    EXPECT_TRUE(db_->CreateIndex("ORD", "B").ok());

    for (int64_t c = 0; c < 100; ++c) {
      EXPECT_TRUE(db_->InsertRow("CUSTOMER", {c, c * 10}).ok());
    }
    // 3 orders per customer 0..49; customers 50..99 have none.
    int64_t oid = 0;
    for (int64_t c = 0; c < 50; ++c) {
      for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(db_->InsertRow("ORD", {oid++, c, c + i}).ok());
      }
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ConstraintsTest, AddForeignKeyValidatesExistingData) {
  ASSERT_TRUE(db_->AddForeignKey("ORD", "B", "CUSTOMER", "A").ok());
  // A second FK whose data is violated: ORD.C values include c+2 up to 51,
  // all < 100, so actually valid... use ORD.A (ids 0..149) against
  // CUSTOMER.A (0..99): ids 100..149 have no parent.
  Status s = db_->AddForeignKey("ORD", "A", "CUSTOMER", "A");
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
}

TEST_F(ConstraintsTest, AddForeignKeyRequiresUniqueParentIndex) {
  // CUSTOMER.B has no index at all.
  EXPECT_EQ(db_->AddForeignKey("ORD", "C", "CUSTOMER", "B").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(db_->AddForeignKey("ORD", "B", "NOPE", "A").IsNotFound());
  EXPECT_TRUE(db_->AddForeignKey("ORD", "Z", "CUSTOMER", "A").IsNotFound());
}

TEST_F(ConstraintsTest, InsertIntoChildChecksParent) {
  ASSERT_TRUE(db_->AddForeignKey("ORD", "B", "CUSTOMER", "A").ok());
  EXPECT_TRUE(db_->InsertRow("ORD", {1000, 42, 0}).ok());     // customer 42 ok
  auto bad = db_->InsertRow("ORD", {1001, 12345, 0});          // no such parent
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
  // The failed insert left no orphan row behind.
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, DeleteRowRestrict) {
  ASSERT_TRUE(db_->AddForeignKey("ORD", "B", "CUSTOMER", "A").ok());
  Rid customer0 = db_->GetIndex("CUSTOMER", "A")->tree->Search(0)->at(0);
  Status s = db_->DeleteRow("CUSTOMER", customer0);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // Referenced row untouched.
  EXPECT_TRUE(db_->GetRow("CUSTOMER", customer0).ok());
  // Customer 99 has no orders: deletable.
  Rid customer99 = db_->GetIndex("CUSTOMER", "A")->tree->Search(99)->at(0);
  EXPECT_TRUE(db_->DeleteRow("CUSTOMER", customer99).ok());
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, DeleteRowCascade) {
  ASSERT_TRUE(
      db_->AddForeignKey("ORD", "B", "CUSTOMER", "A", FkAction::kCascade)
          .ok());
  Rid customer7 = db_->GetIndex("CUSTOMER", "A")->tree->Search(7)->at(0);
  uint64_t orders_before = db_->GetTable("ORD")->table->tuple_count();
  ASSERT_TRUE(db_->DeleteRow("CUSTOMER", customer7).ok());
  EXPECT_EQ(db_->GetTable("ORD")->table->tuple_count(), orders_before - 3);
  EXPECT_TRUE(db_->GetIndex("ORD", "B")->tree->Search(7)->empty());
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, BulkDeleteRestrictFailsEarlyWithNothingDeleted) {
  ASSERT_TRUE(db_->AddForeignKey("ORD", "B", "CUSTOMER", "A").ok());
  BulkDeleteSpec spec;
  spec.table = "CUSTOMER";
  spec.key_column = "A";
  spec.keys = {10, 60, 70};  // customer 10 is referenced
  auto report = db_->BulkDelete(spec, Strategy::kVerticalSortMerge);
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  // Nothing was deleted — the check ran before any destructive work.
  EXPECT_EQ(db_->GetTable("CUSTOMER")->table->tuple_count(), 100u);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, BulkDeleteRestrictPassesWhenUnreferenced) {
  ASSERT_TRUE(db_->AddForeignKey("ORD", "B", "CUSTOMER", "A").ok());
  BulkDeleteSpec spec;
  spec.table = "CUSTOMER";
  spec.key_column = "A";
  for (int64_t c = 60; c < 90; ++c) spec.keys.push_back(c);
  auto report = db_->BulkDelete(spec, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, 30u);
  EXPECT_EQ(report->cascaded_rows, 0u);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, BulkDeleteCascadesChildren) {
  ASSERT_TRUE(
      db_->AddForeignKey("ORD", "B", "CUSTOMER", "A", FkAction::kCascade)
          .ok());
  BulkDeleteSpec spec;
  spec.table = "CUSTOMER";
  spec.key_column = "A";
  for (int64_t c = 0; c < 20; ++c) spec.keys.push_back(c);  // 20 x 3 orders
  auto report = db_->BulkDelete(spec, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, 20u);
  EXPECT_EQ(report->cascaded_rows, 60u);
  EXPECT_EQ(db_->GetTable("ORD")->table->tuple_count(), 90u);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, MultiLevelCascade) {
  // LINE(A=id, B=order_id) referencing ORD.A; CUSTOMER -> ORD -> LINE.
  Schema line_schema = *Schema::PaperStyle(2, 32);
  ASSERT_TRUE(db_->CreateTable("LINE", line_schema).ok());
  ASSERT_TRUE(db_->CreateIndex("LINE", "A", {.unique = true}).ok());
  ASSERT_TRUE(db_->CreateIndex("LINE", "B").ok());
  // Two lines per order 0..29.
  int64_t lid = 0;
  for (int64_t o = 0; o < 30; ++o) {
    ASSERT_TRUE(db_->InsertRow("LINE", {lid++, o}).ok());
    ASSERT_TRUE(db_->InsertRow("LINE", {lid++, o}).ok());
  }
  ASSERT_TRUE(
      db_->AddForeignKey("ORD", "B", "CUSTOMER", "A", FkAction::kCascade)
          .ok());
  ASSERT_TRUE(
      db_->AddForeignKey("LINE", "B", "ORD", "A", FkAction::kCascade).ok());

  BulkDeleteSpec spec;
  spec.table = "CUSTOMER";
  spec.key_column = "A";
  spec.keys = {0, 1};  // orders 0..5 -> lines 0..11
  auto report = db_->BulkDelete(spec, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, 2u);
  EXPECT_EQ(report->cascaded_rows, 6u + 12u);
  EXPECT_EQ(db_->GetTable("LINE")->table->tuple_count(), 60u - 12u);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, FkOnNonKeyColumnOfBulkDelete) {
  // FK references CUSTOMER.A but the bulk delete keys on CUSTOMER.B: the
  // doomed rows' A values must be collected via the key index + row fetch.
  ASSERT_TRUE(db_->CreateIndex("CUSTOMER", "B", {.unique = true}).ok());
  ASSERT_TRUE(
      db_->AddForeignKey("ORD", "B", "CUSTOMER", "A", FkAction::kCascade)
          .ok());
  BulkDeleteSpec spec;
  spec.table = "CUSTOMER";
  spec.key_column = "B";  // B = A * 10
  spec.keys = {30, 40};   // customers 3 and 4
  auto report = db_->BulkDelete(spec, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, 2u);
  EXPECT_EQ(report->cascaded_rows, 6u);
  EXPECT_TRUE(db_->GetIndex("ORD", "B")->tree->Search(3)->empty());
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, SelfReferenceCycleRejected) {
  // EMP(A=id, B=manager_id) with a cascade FK onto itself: deleting a
  // manager via bulk delete must detect the cycle instead of recursing.
  Schema emp_schema = *Schema::PaperStyle(2, 32);
  ASSERT_TRUE(db_->CreateTable("EMP", emp_schema).ok());
  ASSERT_TRUE(db_->CreateIndex("EMP", "A", {.unique = true}).ok());
  ASSERT_TRUE(db_->CreateIndex("EMP", "B").ok());
  ASSERT_TRUE(db_->InsertRow("EMP", {1, 1}).ok());  // the boss manages herself
  ASSERT_TRUE(db_->InsertRow("EMP", {2, 1}).ok());
  ASSERT_TRUE(
      db_->AddForeignKey("EMP", "B", "EMP", "A", FkAction::kCascade).ok());
  BulkDeleteSpec spec;
  spec.table = "EMP";
  spec.key_column = "A";
  spec.keys = {1};
  auto report = db_->BulkDelete(spec, Strategy::kVerticalSortMerge);
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ConstraintsTest, CascadeBeforeRestrictLeavesChildrenUntouched) {
  // Catalog order {CASCADE, RESTRICT}: the RESTRICT comes *after* the
  // cascade in FK order, but planning evaluates every RESTRICT before any
  // mutation, so the cascade must not have run when the statement fails.
  ASSERT_TRUE(
      db_->AddForeignKey("ORD", "B", "CUSTOMER", "A", FkAction::kCascade)
          .ok());
  Schema inv_schema = *Schema::PaperStyle(2, 32);  // INV(A=id, B=cust)
  ASSERT_TRUE(db_->CreateTable("INV", inv_schema).ok());
  ASSERT_TRUE(db_->CreateIndex("INV", "A", {.unique = true}).ok());
  ASSERT_TRUE(db_->CreateIndex("INV", "B").ok());
  ASSERT_TRUE(db_->InsertRow("INV", {0, 10}).ok());  // invoice for customer 10
  ASSERT_TRUE(db_->AddForeignKey("INV", "B", "CUSTOMER", "A").ok());

  BulkDeleteSpec spec;
  spec.table = "CUSTOMER";
  spec.key_column = "A";
  spec.keys = {10, 60};  // 10 is RESTRICT-referenced by INV
  auto report = db_->BulkDelete(spec, Strategy::kVerticalSortMerge);
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
      << report.status().ToString();
  // The cascade leg (customer 10 has 3 orders) must not have fired.
  EXPECT_EQ(db_->GetTable("CUSTOMER")->table->tuple_count(), 100u);
  EXPECT_EQ(db_->GetTable("ORD")->table->tuple_count(), 150u);
  EXPECT_EQ(db_->GetTable("INV")->table->tuple_count(), 1u);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, RestrictBeforeCascadeLeavesChildrenUntouched) {
  // Mirror ordering {RESTRICT, CASCADE}: same outcome regardless of the
  // position of the violated RESTRICT in the FK catalog.
  Schema inv_schema = *Schema::PaperStyle(2, 32);
  ASSERT_TRUE(db_->CreateTable("INV", inv_schema).ok());
  ASSERT_TRUE(db_->CreateIndex("INV", "A", {.unique = true}).ok());
  ASSERT_TRUE(db_->CreateIndex("INV", "B").ok());
  ASSERT_TRUE(db_->InsertRow("INV", {0, 10}).ok());
  ASSERT_TRUE(db_->AddForeignKey("INV", "B", "CUSTOMER", "A").ok());
  ASSERT_TRUE(
      db_->AddForeignKey("ORD", "B", "CUSTOMER", "A", FkAction::kCascade)
          .ok());

  BulkDeleteSpec spec;
  spec.table = "CUSTOMER";
  spec.key_column = "A";
  spec.keys = {10, 60};
  auto report = db_->BulkDelete(spec, Strategy::kVerticalSortMerge);
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_->GetTable("CUSTOMER")->table->tuple_count(), 100u);
  EXPECT_EQ(db_->GetTable("ORD")->table->tuple_count(), 150u);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, RowDeleteCascadeBeforeRestrictLeavesChildrenUntouched) {
  // Same two-phase guarantee on the row-level DML path.
  ASSERT_TRUE(
      db_->AddForeignKey("ORD", "B", "CUSTOMER", "A", FkAction::kCascade)
          .ok());
  Schema inv_schema = *Schema::PaperStyle(2, 32);
  ASSERT_TRUE(db_->CreateTable("INV", inv_schema).ok());
  ASSERT_TRUE(db_->CreateIndex("INV", "A", {.unique = true}).ok());
  ASSERT_TRUE(db_->CreateIndex("INV", "B").ok());
  ASSERT_TRUE(db_->InsertRow("INV", {0, 10}).ok());
  ASSERT_TRUE(db_->AddForeignKey("INV", "B", "CUSTOMER", "A").ok());

  Rid customer10 = db_->GetIndex("CUSTOMER", "A")->tree->Search(10)->at(0);
  Status s = db_->DeleteRow("CUSTOMER", customer10);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_TRUE(db_->GetRow("CUSTOMER", customer10).ok());
  EXPECT_EQ(db_->GetTable("ORD")->table->tuple_count(), 150u);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, TransitiveRestrictThroughCascadeChain) {
  // CUSTOMER -> ORD is CASCADE but ORD <- LINE is RESTRICT: deleting a
  // customer whose orders are referenced must fail with nothing deleted —
  // the RESTRICT is evaluated against pre-statement state even though it
  // only becomes relevant through the cascade chain.
  Schema line_schema = *Schema::PaperStyle(2, 32);
  ASSERT_TRUE(db_->CreateTable("LINE", line_schema).ok());
  ASSERT_TRUE(db_->CreateIndex("LINE", "A", {.unique = true}).ok());
  ASSERT_TRUE(db_->CreateIndex("LINE", "B").ok());
  ASSERT_TRUE(db_->InsertRow("LINE", {0, 3}).ok());  // references order 3
  ASSERT_TRUE(
      db_->AddForeignKey("ORD", "B", "CUSTOMER", "A", FkAction::kCascade)
          .ok());
  ASSERT_TRUE(db_->AddForeignKey("LINE", "B", "ORD", "A").ok());

  BulkDeleteSpec spec;
  spec.table = "CUSTOMER";
  spec.key_column = "A";
  spec.keys = {1};  // customer 1 owns orders 3,4,5; order 3 is referenced
  auto report = db_->BulkDelete(spec, Strategy::kVerticalSortMerge);
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_->GetTable("CUSTOMER")->table->tuple_count(), 100u);
  EXPECT_EQ(db_->GetTable("ORD")->table->tuple_count(), 150u);
  EXPECT_EQ(db_->GetTable("LINE")->table->tuple_count(), 1u);
  // Customer 2's orders are unreferenced: deletable.
  spec.keys = {2};
  auto ok_report = db_->BulkDelete(spec, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(ok_report.ok()) << ok_report.status().ToString();
  EXPECT_EQ(ok_report->cascaded_rows, 3u);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ConstraintsTest, CascadeTableAttributionAndJsonRoundTrip) {
  // Per-table cascade attribution in the report, deepest leg first, and a
  // lossless JSON round-trip of the new field.
  Schema line_schema = *Schema::PaperStyle(2, 32);
  ASSERT_TRUE(db_->CreateTable("LINE", line_schema).ok());
  ASSERT_TRUE(db_->CreateIndex("LINE", "A", {.unique = true}).ok());
  ASSERT_TRUE(db_->CreateIndex("LINE", "B").ok());
  int64_t lid = 0;
  for (int64_t o = 0; o < 30; ++o) {
    ASSERT_TRUE(db_->InsertRow("LINE", {lid++, o}).ok());
    ASSERT_TRUE(db_->InsertRow("LINE", {lid++, o}).ok());
  }
  ASSERT_TRUE(
      db_->AddForeignKey("ORD", "B", "CUSTOMER", "A", FkAction::kCascade)
          .ok());
  ASSERT_TRUE(
      db_->AddForeignKey("LINE", "B", "ORD", "A", FkAction::kCascade).ok());

  BulkDeleteSpec spec;
  spec.table = "CUSTOMER";
  spec.key_column = "A";
  spec.keys = {0, 1};
  auto report = db_->BulkDelete(spec, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->cascade_tables.size(), 2u);
  EXPECT_EQ(report->cascade_tables[0], (CascadeTableRows{"LINE", 12}));
  EXPECT_EQ(report->cascade_tables[1], (CascadeTableRows{"ORD", 6}));

  auto round = BulkDeleteReport::FromJson(report->ToJson());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->cascaded_rows, report->cascaded_rows);
  EXPECT_EQ(round->cascade_tables, report->cascade_tables);
}

TEST_F(ConstraintsTest, NonUniqueParentIndexRefused) {
  // A *non-unique* index on the parent column is not enough: cascading from
  // a duplicated parent value could doom children of surviving parents.
  ASSERT_TRUE(db_->CreateIndex("CUSTOMER", "B").ok());  // non-unique
  EXPECT_EQ(db_->AddForeignKey("ORD", "C", "CUSTOMER", "B").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ConstraintsTest, DroppingFkBackingIndexRefused) {
  ASSERT_TRUE(db_->AddForeignKey("ORD", "B", "CUSTOMER", "A").ok());
  EXPECT_EQ(db_->DropIndex("CUSTOMER", "A").code(),
            StatusCode::kFailedPrecondition);
  // Unrelated indices still droppable.
  EXPECT_TRUE(db_->DropIndex("ORD", "B").ok());
}

TEST_F(ConstraintsTest, ForeignKeysSurviveReopen) {
  ASSERT_TRUE(
      db_->AddForeignKey("ORD", "B", "CUSTOMER", "A", FkAction::kCascade)
          .ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(db_->SimulateCrashAndRecover().ok());
  ASSERT_EQ(db_->catalog().foreign_keys().size(), 1u);
  EXPECT_EQ(db_->catalog().foreign_keys()[0].action, FkAction::kCascade);
  // Enforcement still works after the reopen.
  auto bad = db_->InsertRow("ORD", {5000, 99999, 0});
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
}

// Orders whose buyer (B) or seller (C) is one of the doomed customers.
// Customer c places orders {c, c+1, c+2} as seller C; forgetting customers
// 20, 21 and 40 dooms 9 orders as buyer and 9 as seller, 4 of them both.
constexpr int64_t kTwoColumnDoomed[] = {20, 21, 40};
constexpr uint64_t kTwoColumnOrders = 14;

void AddBuyerAndSellerCascades(Database* db) {
  ASSERT_TRUE(db->CreateIndex("ORD", "C").ok());
  ASSERT_TRUE(
      db->AddForeignKey("ORD", "B", "CUSTOMER", "A", FkAction::kCascade).ok());
  ASSERT_TRUE(
      db->AddForeignKey("ORD", "C", "CUSTOMER", "A", FkAction::kCascade).ok());
}

BulkDeleteSpec ForgetTwoColumnCustomers() {
  BulkDeleteSpec spec;
  spec.table = "CUSTOMER";
  spec.key_column = "A";
  spec.keys.assign(std::begin(kTwoColumnDoomed), std::end(kTwoColumnDoomed));
  return spec;
}

/// The ORD rows left whose buyer or seller is a doomed customer.
uint64_t OrphanedOrders(Database* db) {
  const std::set<int64_t> doomed(std::begin(kTwoColumnDoomed),
                                 std::end(kTwoColumnDoomed));
  TableDef* ord = db->GetTable("ORD");
  uint64_t orphans = 0;
  EXPECT_TRUE(ord->table
                  ->Scan([&](const Rid&, const char* tuple) {
                    if (doomed.count(ord->schema->GetInt(tuple, 1)) > 0 ||
                        doomed.count(ord->schema->GetInt(tuple, 2)) > 0) {
                      ++orphans;
                    }
                    return Status::OK();
                  })
                  .ok());
  return orphans;
}

// A child reached through two CASCADE columns is two legs of the statement
// (one per column), run one after the other on the shared table: an order
// both legs doom is deleted once.
TEST_F(ConstraintsTest, CascadeThroughTwoColumnsOfOneChild) {
  AddBuyerAndSellerCascades(db_.get());
  auto report =
      db_->BulkDelete(ForgetTwoColumnCustomers(), Strategy::kOptimizer);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, 3u);
  EXPECT_EQ(report->cascaded_rows, kTwoColumnOrders);
  ASSERT_EQ(report->cascade_tables.size(), 2u);
  EXPECT_EQ(report->cascade_tables[0].table, "ORD");
  EXPECT_EQ(report->cascade_tables[1].table, "ORD");
  EXPECT_EQ(db_->GetTable("ORD")->table->tuple_count(),
            150u - kTwoColumnOrders);
  EXPECT_EQ(OrphanedOrders(db_.get()), 0u);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

// The same statement with the recovery log, crashed at every page write it
// makes, serially and with four execution threads: recovery leaves either
// the untouched tables or the whole delete, never one leg of it.
TEST(ConstraintsCrashTest, CascadeThroughTwoColumnsRecoversToS0OrFinal) {
  for (int threads : {1, 4}) {
    for (uint64_t occurrence = 1;; ++occurrence) {
      DatabaseOptions options;
      options.memory_budget_bytes = 64 * 1024;
      options.enable_recovery_log = true;
      options.exec_threads = threads;
      auto injector = std::make_shared<FaultInjector>();
      options.fault_injector = injector;
      auto db = *Database::Create(options);
      ASSERT_TRUE(db->CreateTable("CUSTOMER", *Schema::PaperStyle(2, 64)).ok());
      ASSERT_TRUE(db->CreateIndex("CUSTOMER", "A", {.unique = true}).ok());
      ASSERT_TRUE(db->CreateTable("ORD", *Schema::PaperStyle(3, 64)).ok());
      ASSERT_TRUE(db->CreateIndex("ORD", "A", {.unique = true}).ok());
      ASSERT_TRUE(db->CreateIndex("ORD", "B").ok());
      for (int64_t c = 0; c < 100; ++c) {
        ASSERT_TRUE(db->InsertRow("CUSTOMER", {c, c * 10}).ok());
      }
      int64_t oid = 0;
      for (int64_t c = 0; c < 50; ++c) {
        for (int i = 0; i < 3; ++i) {
          ASSERT_TRUE(db->InsertRow("ORD", {oid++, c, c + i}).ok());
        }
      }
      AddBuyerAndSellerCascades(db.get());
      ASSERT_TRUE(db->Checkpoint().ok());

      injector->ResetCounts();
      injector->Arm(fault_sites::kDiskWrite, occurrence);
      auto report = db->BulkDelete(ForgetTwoColumnCustomers(),
                                   Strategy::kVerticalSortMerge);
      if (!injector->tripped()) {
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        EXPECT_GT(occurrence, 1u);
        break;
      }
      injector->Disarm();
      ASSERT_TRUE(db->SimulateCrashAndRecover().ok())
          << "threads " << threads << ", write " << occurrence;
      ASSERT_TRUE(db->VerifyIntegrity().ok())
          << "threads " << threads << ", write " << occurrence;
      const uint64_t customers = db->GetTable("CUSTOMER")->table->tuple_count();
      const uint64_t orders = db->GetTable("ORD")->table->tuple_count();
      if (customers == 100u) {
        EXPECT_EQ(orders, 150u) << "threads " << threads << ", write "
                                << occurrence;
      } else {
        EXPECT_EQ(customers, 97u);
        EXPECT_EQ(orders, 150u - kTwoColumnOrders)
            << "threads " << threads << ", write " << occurrence;
        EXPECT_EQ(OrphanedOrders(db.get()), 0u);
      }
    }
  }
}

// With two legs on one table, one leg's key index can be the other leg's
// non-unique secondary, whose pass runs after the commit, with the table
// open to updaters. The index stays off-line (side-file protocol) until
// that last pass: an order inserted when it starts reuses a slot the pass
// is about to clear, with the same buyer. An on-line index would take the
// insert directly while the slot's old entry is still in it, and refuse it
// as a duplicate. The side-file applies it after the pass; direct
// propagation marks the slot's old entry undeletable, so the pass keeps it
// for the new row. Customers 0..9; every order's buyer is 0, orders 0..9
// are sold by 5, orders 10..19 by 6; forgetting customer 5 dooms orders
// 0..9 through their seller only.
class ConstraintsConcurrencyTest
    : public ::testing::TestWithParam<ConcurrencyProtocol> {};

TEST_P(ConstraintsConcurrencyTest, SharedIndexStaysOfflineUntilItsLastPass) {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  options.concurrency = GetParam();
  Database* raw = nullptr;
  Rid inserted;
  options.phase_begin_hook = [&](const std::string& phase) {
    if (phase != "cascade:ORD.C/index:ORD.B") return;
    auto rid = raw->InsertRow("ORD", {100, 0, 6});
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    inserted = *rid;
  };
  auto db = *Database::Create(options);
  raw = db.get();
  ASSERT_TRUE(db->CreateTable("CUSTOMER", *Schema::PaperStyle(2, 64)).ok());
  ASSERT_TRUE(db->CreateIndex("CUSTOMER", "A", {.unique = true}).ok());
  ASSERT_TRUE(db->CreateTable("ORD", *Schema::PaperStyle(3, 64)).ok());
  ASSERT_TRUE(db->CreateIndex("ORD", "A", {.unique = true}).ok());
  ASSERT_TRUE(db->CreateIndex("ORD", "B").ok());
  for (int64_t c = 0; c < 10; ++c) {
    ASSERT_TRUE(db->InsertRow("CUSTOMER", {c, c * 10}).ok());
  }
  for (int64_t o = 0; o < 20; ++o) {
    ASSERT_TRUE(db->InsertRow("ORD", {o, 0, o < 10 ? 5 : 6}).ok());
  }
  AddBuyerAndSellerCascades(db.get());

  BulkDeleteSpec spec;
  spec.table = "CUSTOMER";
  spec.key_column = "A";
  spec.keys = {5};
  auto report = db->BulkDelete(spec, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->cascaded_rows, 10u);
  ASSERT_TRUE(inserted.valid()) << "the hook never ran";
  EXPECT_EQ(db->GetTable("ORD")->table->tuple_count(), 11u);
  auto buyers = db->GetIndex("ORD", "B")->tree->Search(0);
  ASSERT_TRUE(buyers.ok());
  EXPECT_EQ(std::count(buyers->begin(), buyers->end(), inserted), 1);
  Status integrity = db->VerifyIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ConstraintsConcurrencyTest,
    ::testing::Values(ConcurrencyProtocol::kSideFile,
                      ConcurrencyProtocol::kDirectPropagation),
    [](const ::testing::TestParamInfo<ConcurrencyProtocol>& info) {
      return std::string(info.param == ConcurrencyProtocol::kSideFile
                             ? "SideFile"
                             : "DirectPropagation");
    });

}  // namespace
}  // namespace bulkdel
