#include "table/heap_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "table/heap_page.h"
#include "util/random.h"

namespace bulkdel {
namespace {

Schema SmallSchema() {
  return *Schema::PaperStyle(/*n_ints=*/3, /*tuple_size=*/64);
}

class HeapTableTest : public ::testing::Test {
 protected:
  HeapTableTest() : pool_(&disk_, 64 * kPageSize), schema_(SmallSchema()) {}

  std::vector<char> MakeTuple(int64_t a, int64_t b, int64_t c) {
    std::vector<char> t(schema_.tuple_size(), 0);
    schema_.SetInt(t.data(), 0, a);
    schema_.SetInt(t.data(), 1, b);
    schema_.SetInt(t.data(), 2, c);
    return t;
  }

  DiskManager disk_;
  BufferPool pool_;
  Schema schema_;
};

TEST(HeapPageTest, CapacityMatchesLayout) {
  for (uint32_t ts : {16u, 64u, 256u, 512u, 1024u}) {
    uint16_t cap = HeapPage::CapacityFor(ts);
    EXPECT_GT(cap, 0u);
    // header + bitmap + tuples must fit.
    EXPECT_LE(8u + (cap + 7u) / 8u + cap * ts, kPageSize);
    // one more would not fit.
    EXPECT_GT(8u + (cap + 8u) / 8u + (cap + 1u) * ts, kPageSize);
  }
}

TEST(HeapPageTest, InsertDeleteRoundTrip) {
  alignas(8) char buf[kPageSize];
  HeapPage page(buf, 64);
  page.Init();
  EXPECT_TRUE(page.IsEmpty());
  char tuple[64];
  std::memset(tuple, 7, sizeof(tuple));
  int s0 = page.Insert(tuple);
  ASSERT_GE(s0, 0);
  EXPECT_TRUE(page.SlotOccupied(static_cast<uint16_t>(s0)));
  EXPECT_EQ(page.live_count(), 1);
  EXPECT_TRUE(page.Delete(static_cast<uint16_t>(s0)));
  EXPECT_FALSE(page.Delete(static_cast<uint16_t>(s0)));  // double delete
  EXPECT_TRUE(page.IsEmpty());
}

TEST(HeapPageTest, FillsToCapacityThenRejects) {
  alignas(8) char buf[kPageSize];
  HeapPage page(buf, 128);
  page.Init();
  char tuple[128] = {};
  uint16_t cap = HeapPage::CapacityFor(128);
  for (uint16_t i = 0; i < cap; ++i) {
    ASSERT_GE(page.Insert(tuple), 0) << "slot " << i;
  }
  EXPECT_TRUE(page.IsFull());
  EXPECT_EQ(page.Insert(tuple), -1);
}

TEST_F(HeapTableTest, InsertGetDelete) {
  auto table = HeapTable::Create(&pool_, schema_);
  ASSERT_TRUE(table.ok());
  auto t = MakeTuple(1, 2, 3);
  auto rid = table->Insert(t.data());
  ASSERT_TRUE(rid.ok());
  std::vector<char> out(schema_.tuple_size());
  ASSERT_TRUE(table->Get(*rid, out.data()).ok());
  EXPECT_EQ(schema_.GetInt(out.data(), 0), 1);
  EXPECT_EQ(schema_.GetInt(out.data(), 2), 3);
  EXPECT_EQ(table->tuple_count(), 1u);

  std::vector<char> deleted(schema_.tuple_size());
  ASSERT_TRUE(table->Delete(*rid, deleted.data()).ok());
  EXPECT_EQ(schema_.GetInt(deleted.data(), 1), 2);
  EXPECT_EQ(table->tuple_count(), 0u);
  EXPECT_TRUE(table->Get(*rid, out.data()).IsNotFound());
  EXPECT_TRUE(table->Delete(*rid).IsNotFound());
}

TEST_F(HeapTableTest, ScanVisitsAllInInsertionOrder) {
  auto table = *HeapTable::Create(&pool_, schema_);
  constexpr int kN = 1000;
  for (int i = 0; i < kN; ++i) {
    auto t = MakeTuple(i, i * 2, i * 3);
    ASSERT_TRUE(table.Insert(t.data()).ok());
  }
  int64_t expect = 0;
  ASSERT_TRUE(table
                  .Scan([&](const Rid&, const char* tuple) {
                    EXPECT_EQ(schema_.GetInt(tuple, 0), expect);
                    ++expect;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(expect, kN);
  EXPECT_GT(table.num_data_pages(), 1u);
}

TEST_F(HeapTableTest, DeletedSlotsAreReused) {
  auto table = *HeapTable::Create(&pool_, schema_);
  std::vector<Rid> rids;
  for (int i = 0; i < 500; ++i) {
    auto t = MakeTuple(i, 0, 0);
    rids.push_back(*table.Insert(t.data()));
  }
  uint32_t pages_before = table.num_data_pages();
  for (int i = 0; i < 500; i += 2) ASSERT_TRUE(table.Delete(rids[i]).ok());
  for (int i = 0; i < 250; ++i) {
    auto t = MakeTuple(1000 + i, 0, 0);
    ASSERT_TRUE(table.Insert(t.data()).ok());
  }
  EXPECT_EQ(table.num_data_pages(), pages_before);  // no growth: slots reused
  EXPECT_EQ(table.tuple_count(), 500u);
}

TEST_F(HeapTableTest, BulkDeleteSortedRidsOnePassAndIdempotent) {
  auto table = *HeapTable::Create(&pool_, schema_);
  std::vector<Rid> rids;
  for (int i = 0; i < 2000; ++i) {
    auto t = MakeTuple(i, 0, 0);
    rids.push_back(*table.Insert(t.data()));
  }
  // Delete every third tuple.
  std::vector<Rid> doomed;
  for (size_t i = 0; i < rids.size(); i += 3) doomed.push_back(rids[i]);
  std::sort(doomed.begin(), doomed.end());

  std::vector<int64_t> seen;
  uint64_t deleted = 0, missing = 0;
  ASSERT_TRUE(table
                  .BulkDeleteSortedRids(
                      doomed,
                      [&](const Rid&, const char* tuple) {
                        seen.push_back(schema_.GetInt(tuple, 0));
                      },
                      &deleted, &missing)
                  .ok());
  EXPECT_EQ(deleted, doomed.size());
  EXPECT_EQ(missing, 0u);
  EXPECT_EQ(seen.size(), doomed.size());
  EXPECT_EQ(table.tuple_count(), 2000u - doomed.size());

  // Re-execution is a no-op (crash-recovery idempotence).
  ASSERT_TRUE(table.BulkDeleteSortedRids(doomed, nullptr, &deleted, &missing)
                  .ok());
  EXPECT_EQ(deleted, 0u);
  EXPECT_EQ(missing, doomed.size());
  EXPECT_EQ(table.tuple_count(), 2000u - doomed.size());

  // A resumed pass sees the dead tuples' bytes again, deleting nothing.
  std::vector<int64_t> dead;
  ASSERT_TRUE(table
                  .BulkDeleteSortedRids(
                      doomed,
                      [&](const Rid&, const char* tuple) {
                        dead.push_back(schema_.GetInt(tuple, 0));
                      },
                      &deleted, &missing, /*with_dead=*/true)
                  .ok());
  EXPECT_EQ(deleted, 0u);
  EXPECT_EQ(missing, doomed.size());
  EXPECT_EQ(dead, seen);
  EXPECT_EQ(table.tuple_count(), 2000u - doomed.size());
}

TEST_F(HeapTableTest, ScanDeleteIfMatchesPredicate) {
  auto table = *HeapTable::Create(&pool_, schema_);
  for (int i = 0; i < 1000; ++i) {
    auto t = MakeTuple(i, 0, 0);
    ASSERT_TRUE(table.Insert(t.data()).ok());
  }
  uint64_t deleted = 0;
  std::set<uint64_t> dead_rids;  // packed
  ASSERT_TRUE(table
                  .ScanDeleteIf(
                      [&](const Rid&, const char* tuple) {
                        return schema_.GetInt(tuple, 0) % 2 == 0;
                      },
                      [&](const Rid& rid, const char*) {
                        dead_rids.insert(rid.Pack());
                      },
                      &deleted)
                  .ok());
  EXPECT_EQ(deleted, 500u);
  EXPECT_EQ(dead_rids.size(), 500u);
  EXPECT_EQ(table.tuple_count(), 500u);
  ASSERT_TRUE(table
                  .Scan([&](const Rid&, const char* tuple) {
                    EXPECT_EQ(schema_.GetInt(tuple, 0) % 2, 1);
                    return Status::OK();
                  })
                  .ok());

  // With dead slots offered, the predicate also sees free slots' bytes: the
  // rows deleted above (and never-used slots, whose bytes are zero). Only
  // live matches are deleted and counted.
  int dead_matches = 0;
  ASSERT_TRUE(table
                  .ScanDeleteIf(
                      [&](const Rid&, const char* tuple) {
                        return schema_.GetInt(tuple, 0) % 4 == 0 ||
                               schema_.GetInt(tuple, 0) % 4 == 1;
                      },
                      [&](const Rid& rid, const char* tuple) {
                        if (dead_rids.count(rid.Pack()) == 0) return;
                        EXPECT_EQ(schema_.GetInt(tuple, 0) % 4, 0);
                        ++dead_matches;
                      },
                      &deleted, /*with_dead=*/true)
                  .ok());
  EXPECT_EQ(dead_matches, 250);
  EXPECT_EQ(deleted, 250u);
  EXPECT_EQ(table.tuple_count(), 250u);
}

TEST_F(HeapTableTest, ReopenAfterFlushMeta) {
  PageId header;
  {
    auto table = *HeapTable::Create(&pool_, schema_);
    header = table.header_page();
    for (int i = 0; i < 100; ++i) {
      auto t = MakeTuple(i, 0, 0);
      ASSERT_TRUE(table.Insert(t.data()).ok());
    }
    ASSERT_TRUE(table.FlushMeta().ok());
  }
  auto reopened = HeapTable::Open(&pool_, schema_, header);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->tuple_count(), 100u);
  int rows = 0;
  ASSERT_TRUE(reopened
                  ->Scan([&](const Rid&, const char*) {
                    ++rows;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(rows, 100);
}

TEST_F(HeapTableTest, RecountFromScanRepairsStaleCount) {
  auto table = *HeapTable::Create(&pool_, schema_);
  for (int i = 0; i < 50; ++i) {
    auto t = MakeTuple(i, 0, 0);
    ASSERT_TRUE(table.Insert(t.data()).ok());
  }
  ASSERT_TRUE(table.RecountFromScan().ok());
  EXPECT_EQ(table.tuple_count(), 50u);
}

TEST_F(HeapTableTest, DropFreesAllPages) {
  uint32_t free_before = disk_.NumFreePages();
  auto table = *HeapTable::Create(&pool_, schema_);
  for (int i = 0; i < 500; ++i) {
    auto t = MakeTuple(i, 0, 0);
    ASSERT_TRUE(table.Insert(t.data()).ok());
  }
  uint32_t pages = table.num_data_pages();
  ASSERT_TRUE(table.Drop().ok());
  EXPECT_EQ(disk_.NumFreePages(), free_before + pages + 1);  // + header
}

TEST_F(HeapTableTest, RandomizedAgainstReferenceModel) {
  auto table = *HeapTable::Create(&pool_, schema_);
  Random rng(42);
  std::map<uint64_t, int64_t> model;  // packed rid -> A value
  int64_t next_a = 0;
  for (int step = 0; step < 5000; ++step) {
    if (model.empty() || rng.Bernoulli(0.6)) {
      auto t = MakeTuple(next_a, 0, 0);
      Rid rid = *table.Insert(t.data());
      ASSERT_EQ(model.count(rid.Pack()), 0u) << "RID reused while live";
      model[rid.Pack()] = next_a++;
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      Rid rid = Rid::Unpack(it->first);
      std::vector<char> out(schema_.tuple_size());
      ASSERT_TRUE(table.Delete(rid, out.data()).ok());
      EXPECT_EQ(schema_.GetInt(out.data(), 0), it->second);
      model.erase(it);
    }
  }
  EXPECT_EQ(table.tuple_count(), model.size());
  size_t visited = 0;
  ASSERT_TRUE(table
                  .Scan([&](const Rid& rid, const char* tuple) {
                    auto it = model.find(rid.Pack());
                    EXPECT_NE(it, model.end());
                    if (it != model.end()) {
                      EXPECT_EQ(schema_.GetInt(tuple, 0), it->second);
                    }
                    ++visited;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(visited, model.size());
}

}  // namespace
}  // namespace bulkdel
