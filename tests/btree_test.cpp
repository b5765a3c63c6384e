#include "btree/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "util/random.h"

namespace bulkdel {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&disk_, 256 * kPageSize) {}

  /// Tiny fan-out so small tests exercise splits, multiple levels and
  /// free-at-empty cascades.
  BTree MakeSmallFanout(bool unique = false) {
    IndexOptions opts;
    opts.unique = unique;
    opts.max_leaf_entries = 4;
    opts.max_inner_entries = 4;
    return *BTree::Create(&pool_, opts);
  }

  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(BTreeTest, EmptyTree) {
  auto tree = *BTree::Create(&pool_);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.entry_count(), 0u);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  auto rids = tree.Search(42);
  ASSERT_TRUE(rids.ok());
  EXPECT_TRUE(rids->empty());
}

TEST_F(BTreeTest, InsertAndSearch) {
  auto tree = *BTree::Create(&pool_);
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree.Insert(k, Rid(1, static_cast<uint16_t>(k % 100))).ok());
  }
  EXPECT_EQ(tree.entry_count(), 1000u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (int64_t k : {0, 1, 499, 998, 999}) {
    auto rids = tree.Search(k);
    ASSERT_TRUE(rids.ok());
    ASSERT_EQ(rids->size(), 1u);
    EXPECT_EQ((*rids)[0].slot, static_cast<uint16_t>(k % 100));
  }
  EXPECT_TRUE(tree.Search(1000)->empty());
  EXPECT_TRUE(tree.Search(-1)->empty());
}

TEST_F(BTreeTest, SplitsGrowHeight) {
  auto tree = MakeSmallFanout();
  for (int64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "after insert " << k;
  }
  EXPECT_GE(tree.height(), 4);
}

TEST_F(BTreeTest, ReverseAndAlternatingInsertOrders) {
  auto tree = MakeSmallFanout();
  for (int64_t k = 499; k >= 0; --k) ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  int64_t prev = -1;
  ASSERT_TRUE(tree
                  .ScanAll([&](int64_t k, const Rid&, uint16_t) {
                    EXPECT_GT(k, prev);
                    prev = k;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(prev, 499);

  // A sorted stream of odd keys interleaved into an even-keyed tree (the
  // side-file catch-up's insert order) lands every key in scan order.
  auto interleaved = MakeSmallFanout();
  for (int64_t k = 0; k < 2000; k += 2) {
    ASSERT_TRUE(interleaved.Insert(k, Rid(1, 0)).ok());
  }
  for (int64_t k = 1; k < 2000; k += 2) {
    ASSERT_TRUE(interleaved.Insert(k, Rid(1, 0)).ok());
  }
  ASSERT_TRUE(interleaved.CheckInvariants().ok());
  EXPECT_EQ(interleaved.entry_count(), 2000u);
  int64_t expect = 0;
  ASSERT_TRUE(interleaved
                  .ScanAll([&](int64_t k, const Rid&, uint16_t) {
                    EXPECT_EQ(k, expect++);
                    return Status::OK();
                  })
                  .ok());
}

TEST_F(BTreeTest, DuplicateKeysDifferentRids) {
  auto tree = MakeSmallFanout();
  for (uint16_t s = 0; s < 50; ++s) {
    ASSERT_TRUE(tree.Insert(7, Rid(1, s)).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  auto rids = tree.Search(7);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 50u);
  // Exact composite duplicate rejected.
  EXPECT_EQ(tree.Insert(7, Rid(1, 3)).code(), StatusCode::kAlreadyExists);
  // Delete one specific (key, rid).
  ASSERT_TRUE(tree.Delete(7, Rid(1, 25)).ok());
  EXPECT_EQ(tree.Search(7)->size(), 49u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(BTreeTest, UniqueIndexRejectsDuplicateKey) {
  auto tree = MakeSmallFanout(/*unique=*/true);
  for (int64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(tree.Insert(k, Rid(1, static_cast<uint16_t>(k))).ok());
  }
  for (int64_t k = 0; k < 200; ++k) {
    EXPECT_EQ(tree.Insert(k, Rid(2, 0)).code(), StatusCode::kAlreadyExists)
        << k;
  }
  // A rejected insert leaves the tree unchanged.
  EXPECT_EQ(tree.entry_count(), 200u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  // After deleting, the key becomes insertable again, even with a different
  // (larger or smaller) RID — the stale-separator edge case.
  ASSERT_TRUE(tree.Delete(100, Rid(1, 100)).ok());
  ASSERT_TRUE(tree.Insert(100, Rid(9999, 9)).ok());
  EXPECT_EQ(tree.Insert(100, Rid(0, 0)).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(BTreeTest, TraditionalDeleteFreesEmptyPages) {
  auto tree = MakeSmallFanout();
  for (int64_t k = 0; k < 300; ++k) ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
  uint32_t leaves_full = tree.num_leaves();
  for (int64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(tree.Delete(k, Rid(1, 0)).ok());
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "after delete " << k;
  }
  EXPECT_EQ(tree.entry_count(), 0u);
  EXPECT_EQ(tree.num_leaves(), 1u);  // collapsed back to an empty root leaf
  EXPECT_EQ(tree.height(), 1);
  EXPECT_LT(tree.num_leaves(), leaves_full);
  // Tree is reusable after total wipe.
  ASSERT_TRUE(tree.Insert(5, Rid(1, 1)).ok());
  EXPECT_EQ(tree.Search(5)->size(), 1u);
}

TEST_F(BTreeTest, DeleteNotFound) {
  auto tree = *BTree::Create(&pool_);
  ASSERT_TRUE(tree.Insert(1, Rid(1, 1)).ok());
  EXPECT_TRUE(tree.Delete(2, Rid(1, 1)).IsNotFound());
  EXPECT_TRUE(tree.Delete(1, Rid(1, 2)).IsNotFound());
}

TEST_F(BTreeTest, RangeScan) {
  auto tree = MakeSmallFanout();
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree.Insert(k * 2, Rid(1, 0)).ok());  // even keys only
  }
  std::vector<int64_t> seen;
  ASSERT_TRUE(tree
                  .RangeScan(25, 51,
                             [&](int64_t k, const Rid&) {
                               seen.push_back(k);
                               return Status::OK();
                             })
                  .ok());
  std::vector<int64_t> expect;
  for (int64_t k = 26; k <= 50; k += 2) expect.push_back(k);
  EXPECT_EQ(seen, expect);
}

TEST_F(BTreeTest, BulkLoadMatchesIncrementalInsert) {
  std::vector<KeyRid> entries;
  for (int64_t k = 0; k < 5000; ++k) {
    entries.emplace_back(k * 3, Rid(static_cast<PageId>(k / 7 + 1),
                                    static_cast<uint16_t>(k % 7)));
  }
  auto tree = *BTree::Create(&pool_);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  EXPECT_EQ(tree.entry_count(), entries.size());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  size_t i = 0;
  ASSERT_TRUE(tree
                  .ScanAll([&](int64_t k, const Rid& rid, uint16_t) {
                    EXPECT_EQ(k, entries[i].key);
                    EXPECT_EQ(rid, entries[i].rid);
                    ++i;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(i, entries.size());
  // Point lookups work on a bulk-loaded tree.
  EXPECT_EQ(tree.Search(3 * 1234)->size(), 1u);
  // Inserts after bulk load keep invariants.
  ASSERT_TRUE(tree.Insert(1, Rid(999, 0)).ok());
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(BTreeTest, BulkLoadEmptyAndFillFactor) {
  auto tree = *BTree::Create(&pool_);
  ASSERT_TRUE(tree.BulkLoad({}).ok());
  EXPECT_EQ(tree.entry_count(), 0u);
  ASSERT_TRUE(tree.CheckInvariants().ok());

  std::vector<KeyRid> entries;
  for (int64_t k = 0; k < 2000; ++k) entries.emplace_back(k, Rid(1, 0));
  ASSERT_TRUE(tree.BulkLoad(entries, 1.0).ok());
  uint32_t leaves_full = tree.num_leaves();
  ASSERT_TRUE(tree.BulkLoad(entries, 0.5).ok());
  EXPECT_GT(tree.num_leaves(), leaves_full * 3 / 2);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_FALSE(tree.BulkLoad(entries, 1.5).ok());
  EXPECT_FALSE(tree.BulkLoad(entries, 0.0).ok());
}

TEST_F(BTreeTest, ConfigurableFanoutControlsHeight) {
  // The paper's Experiment 3: shrink the inner fan-out to raise the height.
  std::vector<KeyRid> entries;
  for (int64_t k = 0; k < 3000; ++k) entries.emplace_back(k, Rid(1, 0));

  IndexOptions wide;
  auto tree_wide = *BTree::Create(&pool_, wide);
  ASSERT_TRUE(tree_wide.BulkLoad(entries).ok());

  IndexOptions narrow;
  narrow.max_inner_entries = 4;
  auto tree_narrow = *BTree::Create(&pool_, narrow);
  ASSERT_TRUE(tree_narrow.BulkLoad(entries).ok());

  EXPECT_GT(tree_narrow.height(), tree_wide.height());
  ASSERT_TRUE(tree_narrow.CheckInvariants().ok());
}

TEST_F(BTreeTest, BulkDeleteSortedKeysBasic) {
  auto tree = *BTree::Create(&pool_);
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(
        tree.Insert(k, Rid(static_cast<PageId>(k + 1), 0)).ok());
  }
  std::vector<int64_t> doomed;
  for (int64_t k = 0; k < 2000; k += 4) doomed.push_back(k);

  std::vector<Rid> deleted_rids;
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(tree.BulkDeleteSortedKeys(doomed, ReorgMode::kFreeAtEmpty,
                                        &deleted_rids, &stats)
                  .ok());
  EXPECT_EQ(stats.entries_deleted, doomed.size());
  EXPECT_EQ(deleted_rids.size(), doomed.size());
  EXPECT_EQ(tree.entry_count(), 2000u - doomed.size());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (int64_t k : doomed) EXPECT_TRUE(tree.Search(k)->empty());
  EXPECT_EQ(tree.Search(1)->size(), 1u);
  // The deleted RIDs come back in key order: rid.page == key+1 ascending.
  for (size_t i = 1; i < deleted_rids.size(); ++i) {
    EXPECT_LT(deleted_rids[i - 1].page, deleted_rids[i].page);
  }
}

TEST_F(BTreeTest, BulkDeleteSortedKeysRemovesAllDuplicates) {
  auto tree = *BTree::Create(&pool_);
  for (int64_t k = 0; k < 100; ++k) {
    for (uint16_t s = 0; s < 5; ++s) {
      ASSERT_TRUE(tree.Insert(k, Rid(1, static_cast<uint16_t>(k * 8 + s))).ok());
    }
  }
  std::vector<int64_t> doomed = {10, 11, 50};
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(
      tree.BulkDeleteSortedKeys(doomed, ReorgMode::kFreeAtEmpty, nullptr, &stats)
          .ok());
  EXPECT_EQ(stats.entries_deleted, 15u);
  EXPECT_TRUE(tree.Search(10)->empty());
  EXPECT_TRUE(tree.Search(11)->empty());
  EXPECT_EQ(tree.Search(12)->size(), 5u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(BTreeTest, BulkDeleteMissingKeysIsIdempotent) {
  auto tree = *BTree::Create(&pool_);
  for (int64_t k = 0; k < 100; ++k) ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
  std::vector<int64_t> doomed = {-5, 10, 10000};
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(
      tree.BulkDeleteSortedKeys(doomed, ReorgMode::kFreeAtEmpty, nullptr, &stats)
          .ok());
  EXPECT_EQ(stats.entries_deleted, 1u);
  ASSERT_TRUE(
      tree.BulkDeleteSortedKeys(doomed, ReorgMode::kFreeAtEmpty, nullptr, &stats)
          .ok());
  EXPECT_EQ(stats.entries_deleted, 0u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(BTreeTest, BulkDeleteEverything) {
  auto tree = MakeSmallFanout();
  std::vector<int64_t> all;
  for (int64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
    all.push_back(k);
  }
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(
      tree.BulkDeleteSortedKeys(all, ReorgMode::kFreeAtEmpty, nullptr, &stats)
          .ok());
  EXPECT_EQ(tree.entry_count(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.num_leaves(), 1u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ASSERT_TRUE(tree.Insert(1, Rid(1, 1)).ok());
  EXPECT_EQ(tree.Search(1)->size(), 1u);
}

TEST_F(BTreeTest, BulkDeleteSortedEntriesExactComposites) {
  auto tree = *BTree::Create(&pool_);
  for (int64_t k = 0; k < 100; ++k) {
    for (uint16_t s = 0; s < 3; ++s) {
      ASSERT_TRUE(tree.Insert(k, Rid(1, s)).ok());
    }
  }
  // Remove only the middle duplicate of some keys.
  std::vector<KeyRid> doomed;
  for (int64_t k = 0; k < 100; k += 10) doomed.emplace_back(k, Rid(1, 1));
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(tree.BulkDeleteSortedEntries(doomed, ReorgMode::kFreeAtEmpty,
                                           &stats)
                  .ok());
  EXPECT_EQ(stats.entries_deleted, doomed.size());
  EXPECT_EQ(tree.Search(0)->size(), 2u);
  EXPECT_EQ(tree.Search(1)->size(), 3u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(BTreeTest, BulkDeleteByPredicateRidProbe) {
  auto tree = *BTree::Create(&pool_);
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(
        tree.Insert(k, Rid(static_cast<PageId>(k % 10 + 1), 0)).ok());
  }
  // Hash-style probe: delete all entries pointing into pages {3, 7}.
  std::set<PageId> doomed_pages = {3, 7};
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(tree.BulkDeleteByPredicate(
                      [&](int64_t, const Rid& rid) {
                        return doomed_pages.count(rid.page) > 0;
                      },
                      ReorgMode::kFreeAtEmpty, &stats)
                  .ok());
  EXPECT_EQ(stats.entries_deleted, 200u);
  EXPECT_EQ(tree.entry_count(), 800u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(BTreeTest, BulkDeleteByPredicateRangeBounded) {
  auto tree = *BTree::Create(&pool_);
  for (int64_t k = 0; k < 1000; ++k) ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(tree.BulkDeleteByPredicate(
                      [](int64_t k, const Rid&) { return k % 2 == 0; },
                      ReorgMode::kFreeAtEmpty, &stats, 100, 199)
                  .ok());
  EXPECT_EQ(stats.entries_deleted, 50u);
  EXPECT_TRUE(tree.Search(100)->empty());
  EXPECT_EQ(tree.Search(98)->size(), 1u);   // below range survives
  EXPECT_EQ(tree.Search(200)->size(), 1u);  // above range survives
  EXPECT_LT(stats.leaves_visited, tree.num_leaves());  // bounded scan
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(BTreeTest, UndeletableEntriesSurviveBulkDelete) {
  auto tree = *BTree::Create(&pool_);
  for (int64_t k = 0; k < 100; ++k) {
    uint16_t flags = (k == 50) ? BTreeNode::kEntryUndeletable : 0;
    ASSERT_TRUE(tree.Insert(k, Rid(1, static_cast<uint16_t>(k)), flags).ok());
  }
  std::vector<int64_t> doomed = {49, 50, 51};
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(
      tree.BulkDeleteSortedKeys(doomed, ReorgMode::kFreeAtEmpty, nullptr, &stats)
          .ok());
  EXPECT_EQ(stats.entries_deleted, 2u);
  EXPECT_EQ(stats.skipped_undeletable, 1u);
  EXPECT_EQ(tree.Search(50)->size(), 1u);
  // Bringing the index back on-line clears the markers.
  ASSERT_TRUE(tree.ClearUndeletableFlags().ok());
  ASSERT_TRUE(
      tree.BulkDeleteSortedKeys(doomed, ReorgMode::kFreeAtEmpty, nullptr, &stats)
          .ok());
  EXPECT_EQ(stats.entries_deleted, 1u);
  EXPECT_TRUE(tree.Search(50)->empty());
}

TEST_F(BTreeTest, ReopenFromMetaPage) {
  PageId meta;
  {
    auto tree = *BTree::Create(&pool_);
    meta = tree.meta_page();
    for (int64_t k = 0; k < 500; ++k)
      ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
    ASSERT_TRUE(tree.FlushMeta().ok());
  }
  auto tree = BTree::Open(&pool_, meta);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->entry_count(), 500u);
  EXPECT_EQ(tree->Search(123)->size(), 1u);
  ASSERT_TRUE(tree->CheckInvariants().ok());
}

TEST_F(BTreeTest, DropReturnsAllPages) {
  uint32_t allocated_before = disk_.NumAllocatedPages();
  uint32_t free_before = disk_.NumFreePages();
  {
    auto tree = *BTree::Create(&pool_);
    for (int64_t k = 0; k < 2000; ++k)
      ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
    ASSERT_TRUE(tree.Drop().ok());
  }
  uint32_t in_use_before = allocated_before - free_before;
  uint32_t in_use_after = disk_.NumAllocatedPages() - disk_.NumFreePages();
  EXPECT_EQ(in_use_after, in_use_before);
}

TEST_F(BTreeTest, MergeLookupSortedKeysReadOnly) {
  auto tree = *BTree::Create(&pool_);
  for (int64_t k = 0; k < 1000; ++k) {
    for (uint16_t s = 0; s < 2; ++s) {
      ASSERT_TRUE(tree.Insert(k, Rid(1, static_cast<uint16_t>(k * 2 + s))).ok());
    }
  }
  std::vector<int64_t> probes = {-10, 0, 5, 5, 999, 5000};
  // Note: duplicate probe keys are visited once per matching *entry* per
  // distinct probe position; the canonical use passes unique keys.
  std::vector<int64_t> unique_probes = {-10, 0, 5, 999, 5000};
  uint64_t visits = 0;
  ASSERT_TRUE(tree.MergeLookupSortedKeys(unique_probes,
                                         [&](int64_t, const Rid&) {
                                           ++visits;
                                           return Status::OK();
                                         })
                  .ok());
  EXPECT_EQ(visits, 6u);  // keys 0, 5, 999 × 2 duplicates
  auto count = tree.CountMatchingSortedKeys(unique_probes);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u);
  // Nothing was deleted.
  EXPECT_EQ(tree.entry_count(), 2000u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  (void)probes;
}

TEST_F(BTreeTest, RecountFromScanRepairsMeta) {
  auto tree = MakeSmallFanout();
  for (int64_t k = 0; k < 300; ++k) ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
  ASSERT_TRUE(tree.RecountFromScan().ok());
  EXPECT_EQ(tree.entry_count(), 300u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

// A descent through a corrupt inner node reports kCorruption instead of
// reading separators past the page or following a child of the wrong level.
TEST_F(BTreeTest, DescentThroughCorruptInnerNodeIsCorruption) {
  auto tree = *BTree::Create(&pool_);
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree.Insert(k, Rid(1, static_cast<uint16_t>(k % 100))).ok());
  }
  ASSERT_GT(tree.height(), 1);
  // Rewrites the root page in place through the pool.
  auto with_root = [&](auto&& mutate) {
    auto guard = pool_.FetchPage(tree.root());
    ASSERT_TRUE(guard.ok());
    mutate(guard->data());
    guard->MarkDirty();
  };
  auto expect_corruption = [&](const char* what) {
    auto rids = tree.Search(1000);
    ASSERT_FALSE(rids.ok()) << what;
    EXPECT_EQ(rids.status().code(), StatusCode::kCorruption)
        << what << ": " << rids.status().ToString();
    EXPECT_EQ(tree.Delete(1000, Rid(1, 0)).code(), StatusCode::kCorruption)
        << what;
  };

  uint16_t count = 0;
  with_root([&](char* page) {
    count = BTreeNode(page).count();
    BTreeNode(page).set_count(0xffff);
  });
  expect_corruption("separator count above the page capacity");

  with_root([&](char* page) { BTreeNode(page).set_count(count); });
  ASSERT_TRUE(tree.Search(1000).ok());

  // The root claims one level more than its children are at (byte 0 of a
  // node is its level).
  with_root([&](char* page) { page[0] = static_cast<char>(page[0] + 1); });
  expect_corruption("child one level short");
}

// The traditional delete's parent fix-up descends through the same checked
// descent as every lookup: an inner node on the way whose separator count
// exceeds a page is kCorruption, not a read past the page.
TEST_F(BTreeTest, TraditionalDeleteThroughOverfullInnerNodeIsCorruption) {
  auto tree = MakeSmallFanout();
  for (int64_t k = 0; k < 200; ++k) ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
  ASSERT_GE(tree.height(), 3);
  // The level-1 node on key 100's path claims more separators than fit.
  PageId level1 = tree.root();
  for (int level = tree.height() - 1; level > 1; --level) {
    auto guard = pool_.FetchPage(level1);
    ASSERT_TRUE(guard.ok());
    BTreeNode node(guard->data());
    level1 = node.Child(node.ChildIndexFor(KeyRid(100, Rid(1, 0))));
  }
  {
    auto guard = pool_.FetchPage(level1);
    ASSERT_TRUE(guard.ok());
    BTreeNode(guard->data())
        .set_count(static_cast<uint16_t>(BTreeNode::InnerPageCapacity() + 1));
    guard->MarkDirty();
  }
  EXPECT_EQ(tree.Delete(100, Rid(1, 0)).code(), StatusCode::kCorruption);
}

// No bulk pass returns a page to the allocator: the leaves a pass empties and
// the inner nodes its finish replaces stay allocated, and out of the tree,
// until the caller frees the detached pages.
TEST_F(BTreeTest, BulkPassFreesNoPageUntilTheCallerFreesTheDetachedOnes) {
  auto tree = MakeSmallFanout();
  for (int64_t k = 0; k < 200; ++k) ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
  const uint32_t free_before = disk_.NumFreePages();
  const uint32_t inner_before = tree.num_inner_nodes();
  std::vector<int64_t> doomed;
  for (int64_t k = 40; k < 120; ++k) doomed.push_back(k);
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(
      tree.BulkDeleteSortedKeys(doomed, ReorgMode::kFreeAtEmpty, nullptr, &stats)
          .ok());
  ASSERT_GT(stats.leaves_freed, 0u);
  EXPECT_EQ(disk_.NumFreePages(), free_before);
  ASSERT_TRUE(tree.CheckInvariants().ok());

  std::vector<PageId> detached = tree.TakeDetachedPages();
  EXPECT_EQ(detached.size(), stats.leaves_freed + inner_before);
  EXPECT_TRUE(tree.TakeDetachedPages().empty());
  EXPECT_EQ(disk_.NumFreePages(), free_before);
  for (PageId page : detached) ASSERT_TRUE(pool_.DeletePage(page).ok());
  EXPECT_EQ(disk_.NumFreePages(), free_before + detached.size());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.entry_count(), 120u);
  EXPECT_EQ(tree.Search(39)->size(), 1u);
  EXPECT_EQ(tree.Search(120)->size(), 1u);
}

// A crash after the finish published the new inner levels but before the
// write that points the left survivor past the emptied leaves leaves them
// in the forward chain. The pass's re-run must walk into them again, since
// the left survivor's range covers their keys, and splice them out.
TEST_F(BTreeTest, RerunAfterALostLeftSpliceDetachesTheLeavesAgain) {
  auto tree = MakeSmallFanout();
  for (int64_t k = 0; k < 200; ++k) ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
  auto chain = tree.LeafChain();
  ASSERT_TRUE(chain.ok());
  ASSERT_GT(chain->size(), 6u);
  // Every key of leaves 3 and 4: the pass starts inside the emptied run.
  std::vector<int64_t> doomed;
  for (size_t i = 3; i <= 4; ++i) {
    auto guard = pool_.FetchPage((*chain)[i]);
    ASSERT_TRUE(guard.ok());
    BTreeNode node(guard->data());
    for (uint16_t pos = 0; pos < node.count(); ++pos) {
      doomed.push_back(node.LeafKey(pos));
    }
  }
  ASSERT_TRUE(
      tree.BulkDeleteSortedKeys(doomed, ReorgMode::kFreeAtEmpty, nullptr).ok());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  {
    auto guard = pool_.FetchPage((*chain)[2]);
    ASSERT_TRUE(guard.ok());
    BTreeNode(guard->data()).set_right_sibling((*chain)[3]);
    guard->MarkDirty();
  }
  ASSERT_FALSE(tree.CheckInvariants().ok());

  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(
      tree.BulkDeleteSortedKeys(doomed, ReorgMode::kFreeAtEmpty, nullptr, &stats)
          .ok());
  EXPECT_EQ(stats.entries_deleted, 0u);
  EXPECT_EQ(stats.leaves_freed, 2u);
  Status inv = tree.CheckInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
  EXPECT_EQ(tree.entry_count(), 200u - doomed.size());
}

TEST_F(BTreeTest, LeafChainCoversAllLeaves) {
  auto tree = MakeSmallFanout();
  for (int64_t k = 0; k < 200; ++k) ASSERT_TRUE(tree.Insert(k, Rid(1, 0)).ok());
  auto chain = tree.LeafChain();
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->size(), tree.num_leaves());
}

}  // namespace
}  // namespace bulkdel
