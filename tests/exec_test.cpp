// Tests for the ⋉̸ building blocks the executors compose: sort + merge
// passes (SortKeys/SortKeyRids/SortRids feeding the BTree/HeapTable bulk
// passes), classic hash, and range-partitioned hash, against a common
// reference setup.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "exec/delete_list.h"
#include "exec/hash_delete.h"
#include "exec/partitioned_delete.h"
#include "sort/external_sort.h"
#include "util/random.h"

namespace bulkdel {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : pool_(&disk_, 512 * kPageSize) {}

  /// Builds an index over n entries with key = i * 2, rid = (i+1, i%16).
  BTree MakeIndex(int n) {
    auto tree = *BTree::Create(&pool_);
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(tree.Insert(i * 2,
                              Rid(static_cast<PageId>(i + 1),
                                  static_cast<uint16_t>(i % 16)))
                      .ok());
    }
    return tree;
  }

  DiskManager disk_;
  BufferPool pool_;
};

TEST(U64HashSetTest, InsertContains) {
  U64HashSet set(100);
  for (uint64_t v = 0; v < 100; ++v) set.Insert(v * 7919);
  for (uint64_t v = 0; v < 100; ++v) {
    EXPECT_TRUE(set.Contains(v * 7919));
    EXPECT_FALSE(set.Contains(v * 7919 + 1));
  }
  EXPECT_EQ(set.size(), 100u);
}

TEST(U64HashSetTest, GrowsBeyondExpectation) {
  U64HashSet set(4);
  for (uint64_t v = 0; v < 10000; ++v) set.Insert(v);
  EXPECT_EQ(set.size(), 10000u);
  for (uint64_t v = 0; v < 10000; ++v) EXPECT_TRUE(set.Contains(v));
  EXPECT_FALSE(set.Contains(10000));
}

TEST(U64HashSetTest, DuplicateInsertIdempotent) {
  U64HashSet set(4);
  set.Insert(42);
  set.Insert(42);
  EXPECT_EQ(set.size(), 1u);
}

TEST(U64HashSetTest, SentinelValueHandled) {
  // key -1 casts to the all-ones pattern, which doubles as the empty-slot
  // sentinel internally; membership must still be exact.
  U64HashSet set(4);
  EXPECT_FALSE(set.Contains(~0ULL));
  set.Insert(5);
  EXPECT_FALSE(set.Contains(~0ULL));
  set.Insert(~0ULL);
  EXPECT_TRUE(set.Contains(~0ULL));
  set.Insert(~0ULL);
  EXPECT_EQ(set.size(), 2u);
}

TEST(U64HashSetTest, EstimateBytesMonotone) {
  EXPECT_LE(U64HashSet::EstimateBytes(10), U64HashSet::EstimateBytes(1000));
  U64HashSet set(1000);
  EXPECT_LE(set.bytes(), U64HashSet::EstimateBytes(1000));
}

/// Checks `set` against a std::set reference over every RID in
/// [page_lo, page_hi] x [0, max_slot] plus `extra` probes.
void ExpectRidSetMatches(const RidSet& set, const std::vector<Rid>& rids,
                         PageId page_lo, PageId page_hi, uint16_t max_slot,
                         const std::vector<Rid>& extra) {
  std::set<uint64_t> ref;
  for (const Rid& rid : rids) ref.insert(rid.Pack());
  for (PageId p = page_lo; p <= page_hi; ++p) {
    for (uint32_t s = 0; s <= max_slot; ++s) {
      Rid rid(p, static_cast<uint16_t>(s));
      ASSERT_EQ(set.Contains(rid), ref.count(rid.Pack()) == 1)
          << rid.ToString();
    }
  }
  for (const Rid& rid : extra) {
    EXPECT_EQ(set.Contains(rid), ref.count(rid.Pack()) == 1)
        << rid.ToString();
  }
}

TEST(RidSetTest, EmptyListContainsNothing) {
  RidSet set(std::vector<Rid>{});
  EXPECT_TRUE(set.is_bitmap());
  EXPECT_EQ(set.bytes(), 0u);
  ExpectRidSetMatches(set, {}, 0, 3, 7,
                      {Rid(kInvalidPageId, 0xFFFF), Rid(0, 0xFFFF)});
}

TEST(RidSetTest, DenseBitmapMatchesReference) {
  // 10% of the slots of pages [100, 400) with 16 slots a page: the span's
  // bitmap (300 pages x 16 bits = 600 B) is far below the hash set's bytes.
  Random rng(42);
  std::vector<Rid> rids;
  for (PageId p = 100; p < 400; ++p) {
    for (uint16_t s = 0; s < 16; ++s) {
      if (rng.Uniform(10) == 0) rids.emplace_back(p, s);
    }
  }
  // Both ends of the page span, slot 0 and the table's highest slot (15),
  // and duplicates.
  rids.emplace_back(100, 0);
  rids.emplace_back(399, 15);
  rids.emplace_back(100, 0);
  rids.emplace_back(250, 7);
  rids.emplace_back(250, 7);
  RidSet set(rids);
  EXPECT_TRUE(set.is_bitmap());
  EXPECT_LE(set.bytes(), U64HashSet::EstimateBytes(rids.size()));
  // Outside the span: the pages just beyond it, page 0, slots above the
  // highest, the invalid page.
  ExpectRidSetMatches(set, rids, 98, 401, 17,
                      {Rid(0, 0), Rid(0, 15), Rid(100, 16), Rid(399, 0xFFFF),
                       Rid(kInvalidPageId, 0), Rid(kInvalidPageId, 0xFFFF)});
}

TEST(RidSetTest, BitmapCoversPageZeroAndSlotZero) {
  std::vector<Rid> rids = {Rid(0, 0), Rid(0, 3), Rid(2, 0), Rid(5, 3)};
  RidSet set(rids);
  EXPECT_TRUE(set.is_bitmap());
  ExpectRidSetMatches(set, rids, 0, 7, 5, {Rid(kInvalidPageId, 0)});
}

TEST(RidSetTest, SparseListFallsBackToHashSet) {
  // Three RIDs a million pages apart: the span's bitmap would dwarf a hash
  // set of three items, so the set is that hash set.
  std::vector<Rid> rids = {Rid(0, 0), Rid(1000000, 0xFFFF),
                           Rid(2000000, 5), Rid(1000000, 0xFFFF)};
  RidSet set(rids);
  EXPECT_FALSE(set.is_bitmap());
  EXPECT_LE(set.bytes(), U64HashSet::EstimateBytes(rids.size()));
  ExpectRidSetMatches(
      set, rids, 0, 2, 7,
      {Rid(999999, 0xFFFF), Rid(1000000, 0xFFFE), Rid(1000001, 0xFFFF),
       Rid(2000000, 5), Rid(2000000, 4), Rid(kInvalidPageId, 0xFFFF)});
}

TEST(RidSetTest, HighestSlotWidensTheBitmap) {
  // One page holding slot 0xFFFF: 2^16 bits = 8 KB, over the hash set's
  // bytes for two items, so the set falls back. A highest slot of 1000 takes
  // 10 bits a page (128 B for one page) and stays a bitmap.
  RidSet wide(std::vector<Rid>{Rid(7, 0), Rid(7, 0xFFFF)});
  EXPECT_FALSE(wide.is_bitmap());
  EXPECT_TRUE(wide.Contains(Rid(7, 0xFFFF)));
  EXPECT_FALSE(wide.Contains(Rid(7, 0xFFFE)));
  std::vector<Rid> many;
  for (uint16_t s = 0; s <= 1000; s += 4) many.emplace_back(7, s);
  RidSet dense(many);
  EXPECT_TRUE(dense.is_bitmap());
  ExpectRidSetMatches(dense, many, 6, 8, 1100, {});
}

TEST_F(ExecTest, SortedKeysMergeDeleteFromIndex) {
  auto tree = MakeIndex(5000);
  std::vector<int64_t> keys;
  Random rng(7);
  std::set<int64_t> chosen;
  while (chosen.size() < 500) {
    chosen.insert(static_cast<int64_t>(rng.Uniform(5000)) * 2);
  }
  keys.assign(chosen.begin(), chosen.end());
  // Shuffle to prove the sort restores leaf order.
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  std::vector<Rid> deleted;
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(SortKeys(&disk_, 1 << 20, &keys).ok());
  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  ASSERT_TRUE(tree.BulkDeleteSortedKeys(keys, ReorgMode::kFreeAtEmpty,
                                        &deleted, &stats)
                  .ok());
  EXPECT_EQ(stats.entries_deleted, 500u);
  EXPECT_EQ(deleted.size(), 500u);
  EXPECT_EQ(tree.entry_count(), 4500u);
  for (int64_t k : chosen) EXPECT_TRUE(tree.Search(k)->empty());
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(ExecTest, HashDeleteIndexByRidsMatchesMergeResult) {
  auto tree_a = MakeIndex(4000);
  auto tree_b = MakeIndex(4000);
  std::vector<Rid> rids;
  for (int i = 0; i < 4000; i += 3) {
    rids.emplace_back(static_cast<PageId>(i + 1),
                      static_cast<uint16_t>(i % 16));
  }
  BtreeBulkDeleteStats hash_stats;
  ASSERT_TRUE(HashDeleteIndexByRids(&tree_a, rids, ReorgMode::kFreeAtEmpty,
                                    &hash_stats)
                  .ok());
  // Equivalent merge by exact entries, fed in reverse so the sort matters.
  std::vector<KeyRid> entries;
  for (int i = 0; i < 4000; i += 3) {
    entries.emplace_back(i * 2, Rid(static_cast<PageId>(i + 1),
                                    static_cast<uint16_t>(i % 16)));
  }
  std::reverse(entries.begin(), entries.end());
  BtreeBulkDeleteStats merge_stats;
  ASSERT_TRUE(SortKeyRids(&disk_, 1 << 20, &entries).ok());
  ASSERT_TRUE(tree_b.BulkDeleteSortedEntries(entries, ReorgMode::kFreeAtEmpty,
                                             &merge_stats)
                  .ok());
  EXPECT_EQ(hash_stats.entries_deleted, merge_stats.entries_deleted);
  EXPECT_EQ(tree_a.entry_count(), tree_b.entry_count());
  ASSERT_TRUE(tree_a.CheckInvariants().ok());
  ASSERT_TRUE(tree_b.CheckInvariants().ok());
}

TEST_F(ExecTest, PartitionedHashSinglePartitionWhenFits) {
  auto tree = MakeIndex(2000);
  std::vector<KeyRid> entries;
  for (int i = 0; i < 2000; i += 5) {
    entries.emplace_back(i * 2, Rid(static_cast<PageId>(i + 1),
                                    static_cast<uint16_t>(i % 16)));
  }
  PartitionedDeleteStats stats;
  ASSERT_TRUE(PartitionedHashDeleteIndex(&tree, &disk_, 1 << 20, entries,
                                         ReorgMode::kFreeAtEmpty, &stats)
                  .ok());
  EXPECT_EQ(stats.partitions, 1);
  EXPECT_EQ(stats.pages_spilled, 0);
  EXPECT_EQ(stats.btree.entries_deleted, entries.size());
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(ExecTest, PartitionedHashManyPartitionsUnderTinyBudget) {
  auto tree = MakeIndex(8000);
  std::vector<KeyRid> entries;
  for (int i = 0; i < 8000; i += 2) {
    entries.emplace_back(i * 2, Rid(static_cast<PageId>(i + 1),
                                    static_cast<uint16_t>(i % 16)));
  }
  // Tiny budget: forces several range partitions plus staging I/O.
  PartitionedDeleteStats stats;
  ASSERT_TRUE(PartitionedHashDeleteIndex(&tree, &disk_, 8 * 1024, entries,
                                         ReorgMode::kFreeAtEmpty, &stats)
                  .ok());
  EXPECT_GT(stats.partitions, 1);
  EXPECT_GT(stats.pages_spilled, 0);
  EXPECT_EQ(stats.btree.entries_deleted, entries.size());
  EXPECT_EQ(tree.entry_count(), 4000u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  // Every surviving key is odd-indexed.
  ASSERT_TRUE(tree.ScanAll([](int64_t k, const Rid&, uint16_t) {
                    EXPECT_NE(k % 4, 0) << k;
                    return Status::OK();
                  })
                  .ok());
  // Scratch pages all freed.
  EXPECT_EQ(disk_.NumFreePages() + tree.num_leaves() + tree.num_inner_nodes() + 1,
            disk_.NumAllocatedPages());
}

TEST_F(ExecTest, PartitionedHashBoundedLeafTraffic) {
  auto tree = MakeIndex(8000);
  // Narrow key range: only a slice of the leaves should be visited.
  std::vector<KeyRid> entries;
  for (int i = 1000; i < 1200; ++i) {
    entries.emplace_back(i * 2, Rid(static_cast<PageId>(i + 1),
                                    static_cast<uint16_t>(i % 16)));
  }
  PartitionedDeleteStats stats;
  ASSERT_TRUE(PartitionedHashDeleteIndex(&tree, &disk_, 1 << 20, entries,
                                         ReorgMode::kFreeAtEmpty, &stats)
                  .ok());
  EXPECT_EQ(stats.btree.entries_deleted, 200u);
  EXPECT_LT(stats.btree.leaves_visited, tree.num_leaves() / 2);
}

TEST_F(ExecTest, PartitionedHashEmptyListIsNoop) {
  auto tree = MakeIndex(100);
  PartitionedDeleteStats stats;
  ASSERT_TRUE(PartitionedHashDeleteIndex(&tree, &disk_, 1 << 20, {},
                                         ReorgMode::kFreeAtEmpty, &stats)
                  .ok());
  EXPECT_EQ(stats.partitions, 0);
  EXPECT_EQ(stats.btree.entries_deleted, 0u);
  EXPECT_EQ(tree.entry_count(), 100u);
}

TEST_F(ExecTest, MergeDeleteEmptyKeyListIsNoop) {
  auto tree = MakeIndex(100);
  std::vector<int64_t> keys;
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(SortKeys(&disk_, 1 << 20, &keys).ok());
  ASSERT_TRUE(tree.BulkDeleteSortedKeys(keys, ReorgMode::kFreeAtEmpty, nullptr,
                                        &stats)
                  .ok());
  EXPECT_EQ(stats.entries_deleted, 0u);
  EXPECT_EQ(tree.entry_count(), 100u);
}

TEST_F(ExecTest, HashDeleteNegativeKeys) {
  auto tree = *BTree::Create(&pool_);
  for (int64_t k = -50; k < 50; ++k) {
    ASSERT_TRUE(tree.Insert(k, Rid(1, static_cast<uint16_t>(k + 50))).ok());
  }
  // -1 is the internal hash-set sentinel pattern; it must still delete.
  // Same probe as the executor's classic-hash key-index pass.
  U64HashSet set(3);
  for (int64_t k : {-1, -50, 49}) set.Insert(static_cast<uint64_t>(k));
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(tree.BulkDeleteByPredicate(
                      [&](int64_t key, const Rid&) {
                        return set.Contains(static_cast<uint64_t>(key));
                      },
                      ReorgMode::kFreeAtEmpty, &stats)
                  .ok());
  EXPECT_EQ(stats.entries_deleted, 3u);
  EXPECT_TRUE(tree.Search(-1)->empty());
  EXPECT_EQ(tree.entry_count(), 97u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(ExecTest, SortedRidsTablePassProjectsFeeds) {
  Schema schema = *Schema::PaperStyle(3, 64);
  auto table = *HeapTable::Create(&pool_, schema);
  std::vector<Rid> rids;
  for (int64_t i = 0; i < 3000; ++i) {
    std::vector<char> tuple(schema.tuple_size(), 0);
    schema.SetInt(tuple.data(), 0, i);
    schema.SetInt(tuple.data(), 1, i * 10);
    schema.SetInt(tuple.data(), 2, i * 100);
    rids.push_back(*table.Insert(tuple.data()));
  }
  std::vector<Rid> doomed;
  for (size_t i = 0; i < rids.size(); i += 4) doomed.push_back(rids[i]);
  // Shuffle: SortRids must restore physical order.
  Random rng(9);
  for (size_t i = doomed.size(); i > 1; --i) {
    std::swap(doomed[i - 1], doomed[rng.Uniform(i)]);
  }
  ASSERT_TRUE(SortRids(&disk_, 1 << 20, &doomed).ok());
  ASSERT_TRUE(std::is_sorted(doomed.begin(), doomed.end()));
  // Project columns 1 and 2 of every deleted tuple: the (value, RID) feeds
  // of the two secondary-index passes (the split streams of Fig. 3).
  std::vector<KeyRid> feed_b;
  std::vector<KeyRid> feed_c;
  uint64_t deleted = 0;
  ASSERT_TRUE(table
                  .BulkDeleteSortedRids(
                      doomed,
                      [&](const Rid& rid, const char* tuple) {
                        feed_b.emplace_back(schema.GetInt(tuple, 1), rid);
                        feed_c.emplace_back(schema.GetInt(tuple, 2), rid);
                      },
                      &deleted)
                  .ok());
  EXPECT_EQ(deleted, doomed.size());
  ASSERT_EQ(feed_b.size(), doomed.size());
  ASSERT_EQ(feed_c.size(), doomed.size());
  // Feed pairs are consistent: value of column 2 = 10x value of column 1,
  // and every projected RID is one of the doomed rows, in physical order.
  for (size_t i = 0; i < feed_b.size(); ++i) {
    EXPECT_EQ(feed_b[i].key * 10, feed_c[i].key);
    EXPECT_TRUE(feed_b[i].rid == feed_c[i].rid);
    EXPECT_TRUE(feed_b[i].rid == doomed[i]);
  }
  EXPECT_EQ(table.tuple_count(), 3000u - doomed.size());
}

TEST_F(ExecTest, ExtractKeysFromTable) {
  Schema schema = *Schema::PaperStyle(2, 0);
  auto d_table = *HeapTable::Create(&pool_, schema);
  for (int64_t i = 0; i < 100; ++i) {
    std::vector<char> tuple(schema.tuple_size(), 0);
    schema.SetInt(tuple.data(), 0, i * 3);
    schema.SetInt(tuple.data(), 1, -i);
    ASSERT_TRUE(d_table.Insert(tuple.data()).ok());
  }
  auto keys = ExtractKeysFromTable(&d_table, 0);
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 100u);
  EXPECT_EQ((*keys)[10], 30);
  EXPECT_FALSE(ExtractKeysFromTable(&d_table, 5).ok());
}

TEST_F(ExecTest, ExtractKeysFromTableStopsAtBound) {
  Schema schema = *Schema::PaperStyle(2, 0);
  auto d_table = *HeapTable::Create(&pool_, schema);
  for (int64_t i = 0; i < 100; ++i) {
    std::vector<char> tuple(schema.tuple_size(), 0);
    schema.SetInt(tuple.data(), 0, i);
    ASSERT_TRUE(d_table.Insert(tuple.data()).ok());
  }
  // Fewer allowed keys than rows: the scan stops with ResourceExhausted.
  auto over = ExtractKeysFromTable(&d_table, 0, /*max_keys=*/10);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted)
      << over.status().ToString();
  // A bound equal to the row count is not exceeded.
  auto exact = ExtractKeysFromTable(&d_table, 0, /*max_keys=*/100);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->size(), 100u);
  EXPECT_EQ(exact->back(), 99);
}

}  // namespace
}  // namespace bulkdel
