// Property-style randomized testing of the B-link tree against a reference
// model (std::multimap over composite entries), across fan-outs, duplicate
// densities and reorganization modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "btree/btree.h"
#include "util/random.h"

namespace bulkdel {
namespace {

struct PropertyParam {
  uint16_t leaf_cap;     // 0 = page capacity
  uint16_t inner_cap;    // 0 = page capacity
  int key_space;         // duplicates density: smaller => more duplicates
  ReorgMode reorg;
  const char* name;
};

std::string ParamName(const ::testing::TestParamInfo<PropertyParam>& info) {
  return info.param.name;
}

class BTreePropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  BTreePropertyTest() : pool_(&disk_, 512 * kPageSize) {}

  BTree MakeTree() {
    IndexOptions opts;
    opts.max_leaf_entries = GetParam().leaf_cap;
    opts.max_inner_entries = GetParam().inner_cap;
    return *BTree::Create(&pool_, opts);
  }

  /// Verifies the tree holds exactly the model's entries, in order.
  void ExpectMatchesModel(BTree& tree, const std::set<KeyRid>& model) {
    ASSERT_TRUE(tree.CheckInvariants().ok());
    ASSERT_EQ(tree.entry_count(), model.size());
    auto it = model.begin();
    Status s = tree.ScanAll([&](int64_t k, const Rid& rid, uint16_t) {
      if (it == model.end()) {
        return Status::Internal("tree has extra entries");
      }
      if (!(KeyRid(k, rid) == *it)) {
        return Status::Internal("tree/model mismatch at key " +
                                std::to_string(k));
      }
      ++it;
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(it == model.end());
  }

  DiskManager disk_;
  BufferPool pool_;
};

TEST_P(BTreePropertyTest, RandomInsertDeleteInterleaving) {
  auto tree = MakeTree();
  std::set<KeyRid> model;
  Random rng(20260707);
  const int key_space = GetParam().key_space;

  for (int step = 0; step < 4000; ++step) {
    if (model.empty() || rng.Bernoulli(0.65)) {
      KeyRid e(rng.UniformInt(0, key_space - 1),
               Rid(static_cast<PageId>(rng.Uniform(50) + 1),
                   static_cast<uint16_t>(rng.Uniform(64))));
      Status s = tree.Insert(e.key, e.rid);
      if (model.count(e) > 0) {
        EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        model.insert(e);
      }
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(tree.Delete(it->key, it->rid).ok());
      model.erase(it);
    }
  }
  ExpectMatchesModel(tree, model);
}

TEST_P(BTreePropertyTest, BulkDeleteKeysMatchesModel) {
  auto tree = MakeTree();
  std::set<KeyRid> model;
  Random rng(777);
  const int key_space = GetParam().key_space;

  for (int i = 0; i < 3000; ++i) {
    KeyRid e(rng.UniformInt(0, key_space - 1),
             Rid(static_cast<PageId>(i / 32 + 1),
                 static_cast<uint16_t>(i % 32)));
    if (model.insert(e).second) {
      ASSERT_TRUE(tree.Insert(e.key, e.rid).ok());
    }
  }

  // Several successive bulk deletes of random key subsets.
  for (int round = 0; round < 4; ++round) {
    std::set<int64_t> doomed_set;
    for (int i = 0; i < key_space / 5; ++i) {
      doomed_set.insert(rng.UniformInt(0, key_space - 1));
    }
    std::vector<int64_t> doomed(doomed_set.begin(), doomed_set.end());

    uint64_t expect_deleted = 0;
    for (auto it = model.begin(); it != model.end();) {
      if (doomed_set.count(it->key) > 0) {
        it = model.erase(it);
        ++expect_deleted;
      } else {
        ++it;
      }
    }

    BtreeBulkDeleteStats stats;
    ASSERT_TRUE(
        tree.BulkDeleteSortedKeys(doomed, GetParam().reorg, nullptr, &stats)
            .ok());
    EXPECT_EQ(stats.entries_deleted, expect_deleted) << "round " << round;
    ExpectMatchesModel(tree, model);
  }
}

TEST_P(BTreePropertyTest, BulkDeleteEntriesMatchesModel) {
  auto tree = MakeTree();
  std::set<KeyRid> model;
  Random rng(991);
  const int key_space = GetParam().key_space;

  for (int i = 0; i < 3000; ++i) {
    KeyRid e(rng.UniformInt(0, key_space - 1),
             Rid(static_cast<PageId>(i / 32 + 1),
                 static_cast<uint16_t>(i % 32)));
    if (model.insert(e).second) {
      ASSERT_TRUE(tree.Insert(e.key, e.rid).ok());
    }
  }
  // Delete a random half of the exact composite entries.
  std::vector<KeyRid> doomed;
  for (const KeyRid& e : model) {
    if (rng.Bernoulli(0.5)) doomed.push_back(e);
  }
  for (const KeyRid& e : doomed) model.erase(e);

  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(
      tree.BulkDeleteSortedEntries(doomed, GetParam().reorg, &stats).ok());
  EXPECT_EQ(stats.entries_deleted, doomed.size());
  ExpectMatchesModel(tree, model);

  // Inserting after a reorganized bulk delete keeps invariants.
  for (int i = 0; i < 200; ++i) {
    KeyRid e(rng.UniformInt(0, key_space - 1),
             Rid(static_cast<PageId>(1000 + i), 0));
    if (model.insert(e).second) {
      ASSERT_TRUE(tree.Insert(e.key, e.rid).ok());
    }
  }
  ExpectMatchesModel(tree, model);
}

TEST_P(BTreePropertyTest, BulkDeleteByRidPredicateMatchesModel) {
  auto tree = MakeTree();
  std::set<KeyRid> model;
  Random rng(1234);
  const int key_space = GetParam().key_space;

  for (int i = 0; i < 3000; ++i) {
    KeyRid e(rng.UniformInt(0, key_space - 1),
             Rid(static_cast<PageId>(rng.Uniform(100) + 1),
                 static_cast<uint16_t>(rng.Uniform(16))));
    if (model.insert(e).second) {
      ASSERT_TRUE(tree.Insert(e.key, e.rid).ok());
    }
  }
  // Probe by RID set, like the classic-hash plan.
  std::set<uint64_t> rid_set;
  for (const KeyRid& e : model) {
    if (rng.Bernoulli(0.3)) rid_set.insert(e.rid.Pack());
  }
  uint64_t expect = 0;
  for (auto it = model.begin(); it != model.end();) {
    if (rid_set.count(it->rid.Pack()) > 0) {
      it = model.erase(it);
      ++expect;
    } else {
      ++it;
    }
  }
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(tree.BulkDeleteByPredicate(
                      [&](int64_t, const Rid& rid) {
                        return rid_set.count(rid.Pack()) > 0;
                      },
                      GetParam().reorg, &stats)
                  .ok());
  EXPECT_EQ(stats.entries_deleted, expect);
  ExpectMatchesModel(tree, model);
}

TEST_P(BTreePropertyTest, ReorgModesPreserveContentAndImprovePacking) {
  auto tree = MakeTree();
  std::set<KeyRid> model;
  for (int64_t k = 0; k < 4000; ++k) {
    KeyRid e(k, Rid(1, 0));
    model.insert(e);
    ASSERT_TRUE(tree.Insert(e.key, e.rid).ok());
  }
  uint32_t leaves_before = tree.num_leaves();

  // Delete 70% of entries so leaves get sparse.
  std::vector<int64_t> doomed;
  for (int64_t k = 0; k < 4000; ++k) {
    if (k % 10 < 7) {
      doomed.push_back(k);
      model.erase(KeyRid(k, Rid(1, 0)));
    }
  }
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(
      tree.BulkDeleteSortedKeys(doomed, GetParam().reorg, nullptr, &stats).ok());
  ExpectMatchesModel(tree, model);

  if (GetParam().reorg != ReorgMode::kFreeAtEmpty) {
    // Compaction must shrink the leaf level substantially.
    EXPECT_LT(tree.num_leaves(), leaves_before / 2);
  }
}

// ---------------------------------------------------------------------------
// One-pass leaf compaction in the four bulk loops: full leaves with doomed
// entries in every shape (whole leaf, every other entry, runs at either end)
// and kEntryUndeletable markers interleaved, against a multiset model of
// (key, rid, flags).
// ---------------------------------------------------------------------------

using Entry = std::tuple<int64_t, uint64_t, uint16_t>;

/// The point-delete layout: 7 full leaves, doomed as
///   leaf 0: every entry (the leftmost leaf empties),
///   leaf 1: every other entry,
///   leaf 2: a run at the left end, leaf 3: a run at the right end,
///   leaf 4: every entry, two of them pinned (the leaf survives with two),
///   leaf 5: every other entry with one doomed and one spared entry pinned,
///   leaf 6: every entry (the rightmost leaf empties).
struct PointLayout {
  static constexpr int64_t kLeaves = 7;
  std::set<int64_t> pinned;
  std::vector<int64_t> doomed;  // ascending
  uint64_t doomed_pinned = 0;
};

class LeafCompactionTest : public ::testing::Test {
 protected:
  static constexpr int64_t kLeafCap = 8;
  static constexpr uint16_t kPinned = BTreeNode::kEntryUndeletable;

  LeafCompactionTest() : pool_(&disk_, 256 * kPageSize) {}

  static Rid RidOf(int64_t k) {
    return Rid(static_cast<PageId>(1 + k / kLeafCap),
               static_cast<uint16_t>(k % kLeafCap));
  }
  /// Key of entry `pos` in leaf `leaf` of a tree from MakeFullLeaves.
  static int64_t KeyAt(int64_t leaf, int64_t pos) {
    return leaf * kLeafCap + pos;
  }

  /// `leaves` full leaves of kLeafCap entries (key k, RID RidOf(k)); keys in
  /// `pinned` carry kEntryUndeletable. Mirrors the tree into `model_`.
  BTree MakeFullLeaves(int64_t leaves, const std::set<int64_t>& pinned) {
    IndexOptions opts;
    opts.max_leaf_entries = kLeafCap;
    opts.max_inner_entries = 4;
    BTree tree = *BTree::Create(&pool_, opts);
    std::vector<KeyRid> entries;
    for (int64_t k = 0; k < leaves * kLeafCap; ++k) {
      entries.emplace_back(k, RidOf(k));
    }
    EXPECT_TRUE(tree.BulkLoad(entries).ok());
    for (int64_t k : pinned) {
      // Re-inserting into the leaf it just left keeps that leaf full.
      EXPECT_TRUE(tree.Delete(k, RidOf(k)).ok());
      EXPECT_TRUE(tree.Insert(k, RidOf(k), kPinned).ok());
    }
    EXPECT_EQ(tree.num_leaves(), static_cast<uint32_t>(leaves));
    model_.clear();
    for (const KeyRid& e : entries) {
      model_.emplace(e.key, e.rid.Pack(), pinned.count(e.key) ? kPinned : 0);
    }
    return tree;
  }

  /// Removes every doomed, unpinned entry from the model; returns how many.
  uint64_t ApplyToModel(const std::vector<int64_t>& doomed) {
    uint64_t removed = 0;
    for (int64_t k : doomed) {
      auto it = model_.find(Entry(k, RidOf(k).Pack(), 0));
      if (it != model_.end()) {
        model_.erase(it);
        ++removed;
      }
    }
    return removed;
  }

  static PointLayout MakePointLayout() {
    PointLayout l;
    l.pinned = {KeyAt(4, 2), KeyAt(4, 5), KeyAt(5, 1), KeyAt(5, 4)};
    for (int64_t pos = 0; pos < kLeafCap; ++pos) {
      l.doomed.push_back(KeyAt(0, pos));
      if (pos % 2 == 0) l.doomed.push_back(KeyAt(1, pos));
      if (pos < 3) l.doomed.push_back(KeyAt(2, pos));
      if (pos >= kLeafCap - 3) l.doomed.push_back(KeyAt(3, pos));
      l.doomed.push_back(KeyAt(4, pos));
      if (pos % 2 == 1) l.doomed.push_back(KeyAt(5, pos));
      l.doomed.push_back(KeyAt(6, pos));
    }
    std::sort(l.doomed.begin(), l.doomed.end());
    for (int64_t k : l.doomed) l.doomed_pinned += l.pinned.count(k);
    return l;
  }

  void ExpectMatchesModel(BTree& tree) {
    Status inv = tree.CheckInvariants();
    ASSERT_TRUE(inv.ok()) << inv.ToString();
    std::vector<Entry> got;
    ASSERT_TRUE(tree.ScanAll([&](int64_t k, const Rid& rid, uint16_t flags) {
                      got.emplace_back(k, rid.Pack(), flags);
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(got, std::vector<Entry>(model_.begin(), model_.end()));
    EXPECT_EQ(tree.entry_count(), model_.size());
  }

  DiskManager disk_;
  BufferPool pool_;
  std::multiset<Entry> model_;
};

TEST_F(LeafCompactionTest, SortedKeysCompactsEveryShape) {
  PointLayout l = MakePointLayout();
  BTree tree = MakeFullLeaves(PointLayout::kLeaves, l.pinned);
  uint64_t expect_deleted = ApplyToModel(l.doomed);
  std::vector<Rid> deleted_rids;
  std::vector<int64_t> seen;
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(tree.BulkDeleteSortedKeys(
                      l.doomed, ReorgMode::kFreeAtEmpty, &deleted_rids,
                      &stats, [&](int64_t k, const Rid&) { seen.push_back(k); })
                  .ok());
  EXPECT_EQ(stats.entries_deleted, expect_deleted);
  EXPECT_EQ(stats.skipped_undeletable, l.doomed_pinned);
  // Free-at-empty still reclaims the two emptied leaves.
  EXPECT_EQ(stats.leaves_freed, 2u);
  EXPECT_EQ(tree.num_leaves(), PointLayout::kLeaves - 2);
  EXPECT_EQ(tree.LeafChain()->size(), size_t{PointLayout::kLeaves - 2});
  // Callbacks and the RID list see the removed entries in key order.
  ASSERT_EQ(seen.size(), expect_deleted);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  ASSERT_EQ(deleted_rids.size(), expect_deleted);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(deleted_rids[i], RidOf(seen[i]));
  }
  ExpectMatchesModel(tree);
}

TEST_F(LeafCompactionTest, SortedEntriesCompactsEveryShape) {
  PointLayout l = MakePointLayout();
  BTree tree = MakeFullLeaves(PointLayout::kLeaves, l.pinned);
  uint64_t expect_deleted = ApplyToModel(l.doomed);
  std::vector<KeyRid> entries;
  for (int64_t k : l.doomed) entries.emplace_back(k, RidOf(k));
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(
      tree.BulkDeleteSortedEntries(entries, ReorgMode::kFreeAtEmpty, &stats)
          .ok());
  EXPECT_EQ(stats.entries_deleted, expect_deleted);
  EXPECT_EQ(stats.skipped_undeletable, l.doomed_pinned);
  EXPECT_EQ(stats.leaves_freed, 2u);
  EXPECT_EQ(tree.num_leaves(), PointLayout::kLeaves - 2);
  ExpectMatchesModel(tree);
}

TEST_F(LeafCompactionTest, ByPredicateCompactsEveryShape) {
  PointLayout l = MakePointLayout();
  BTree tree = MakeFullLeaves(PointLayout::kLeaves, l.pinned);
  uint64_t expect_deleted = ApplyToModel(l.doomed);
  std::set<uint64_t> doomed_rids;
  for (int64_t k : l.doomed) doomed_rids.insert(RidOf(k).Pack());
  std::vector<int64_t> seen;
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(tree.BulkDeleteByPredicate(
                      [&](int64_t, const Rid& rid) {
                        return doomed_rids.count(rid.Pack()) == 1;
                      },
                      ReorgMode::kFreeAtEmpty, &stats, std::nullopt,
                      std::nullopt,
                      [&](int64_t k, const Rid&) { seen.push_back(k); })
                  .ok());
  EXPECT_EQ(stats.entries_deleted, expect_deleted);
  EXPECT_EQ(stats.skipped_undeletable, l.doomed_pinned);
  EXPECT_EQ(stats.leaves_freed, 2u);
  EXPECT_EQ(tree.num_leaves(), PointLayout::kLeaves - 2);
  EXPECT_EQ(seen.size(), expect_deleted);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  ExpectMatchesModel(tree);
}

TEST_F(LeafCompactionTest, ByPredicateBoundedRangeStopsAtHi) {
  // [lo, hi] = leaf 1 position 3 .. leaf 3 position 4, predicate true for
  // every entry: only that run goes, the leaves past hi are never compacted.
  BTree tree = MakeFullLeaves(5, {KeyAt(2, 1), KeyAt(2, 6)});
  std::vector<int64_t> doomed;
  for (int64_t k = KeyAt(1, 3); k <= KeyAt(3, 4); ++k) doomed.push_back(k);
  uint64_t expect_deleted = ApplyToModel(doomed);
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(tree.BulkDeleteByPredicate([](int64_t, const Rid&) {
                    return true;
                  },
                                         ReorgMode::kFreeAtEmpty, &stats,
                                         KeyAt(1, 3), KeyAt(3, 4))
                  .ok());
  EXPECT_EQ(stats.entries_deleted, expect_deleted);
  EXPECT_EQ(stats.skipped_undeletable, 2u);
  EXPECT_EQ(stats.leaves_freed, 0u);
  ExpectMatchesModel(tree);
}

TEST_F(LeafCompactionTest, RangeBoundaryLeavesCompactEveryShape) {
  // [lo, hi] = leaf 1 position 5 .. leaf 5 position 2: leaf 1 loses a run at
  // its right end and leaf 5 one at its left end. Leaf 3 has every other
  // entry pinned, so it takes the per-entry loop and keeps exactly those;
  // leaves 2 and 4 are dropped whole by the leaf-run path.
  std::set<int64_t> pinned;
  for (int64_t pos = 0; pos < kLeafCap; pos += 2) pinned.insert(KeyAt(3, pos));
  BTree tree = MakeFullLeaves(7, pinned);
  int64_t lo = KeyAt(1, 5);
  int64_t hi = KeyAt(5, 2);
  std::vector<int64_t> doomed;
  for (int64_t k = lo; k <= hi; ++k) doomed.push_back(k);
  uint64_t expect_deleted = ApplyToModel(doomed);
  std::vector<Rid> deleted_rids;
  std::vector<int64_t> seen;
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(tree.BulkDeleteRange(
                      lo, hi, ReorgMode::kFreeAtEmpty, &deleted_rids, &stats,
                      nullptr,
                      [&](int64_t k, const Rid&) { seen.push_back(k); })
                  .ok());
  EXPECT_EQ(stats.entries_deleted, expect_deleted);
  EXPECT_EQ(stats.skipped_undeletable, pinned.size());
  EXPECT_EQ(stats.leaves_dropped, 2u);
  EXPECT_EQ(deleted_rids.size(), expect_deleted);
  // Per-entry removals: 3 + 4 (leaf 3's unpinned) + 3.
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  ExpectMatchesModel(tree);
}

TEST_F(LeafCompactionTest, RangeEmptiesAFullRootLeaf) {
  // A one-leaf tree never takes the leaf-run path: the per-entry loop
  // removes the whole full leaf, which stays as the empty root.
  BTree tree = MakeFullLeaves(1, {});
  std::vector<int64_t> doomed;
  for (int64_t k = 0; k < kLeafCap; ++k) doomed.push_back(k);
  ApplyToModel(doomed);
  BtreeBulkDeleteStats stats;
  ASSERT_TRUE(tree.BulkDeleteRange(0, kLeafCap - 1, ReorgMode::kFreeAtEmpty,
                                   nullptr, &stats)
                  .ok());
  EXPECT_EQ(stats.entries_deleted, static_cast<uint64_t>(kLeafCap));
  EXPECT_EQ(tree.num_leaves(), 1u);
  ExpectMatchesModel(tree);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreePropertyTest,
    ::testing::Values(
        PropertyParam{4, 4, 500, ReorgMode::kFreeAtEmpty, "TinyFanoutFreeAtEmpty"},
        PropertyParam{4, 4, 500, ReorgMode::kCompactAndRebuild,
                      "TinyFanoutCompact"},
        PropertyParam{4, 4, 500, ReorgMode::kIncrementalBaseNode,
                      "TinyFanoutIncremental"},
        PropertyParam{16, 8, 200, ReorgMode::kFreeAtEmpty,
                      "SmallFanoutManyDuplicates"},
        PropertyParam{16, 8, 1000000, ReorgMode::kCompactAndRebuild,
                      "SmallFanoutUniqueKeys"},
        PropertyParam{0, 0, 5000, ReorgMode::kFreeAtEmpty,
                      "PageFanoutFreeAtEmpty"},
        PropertyParam{0, 0, 5000, ReorgMode::kIncrementalBaseNode,
                      "PageFanoutIncremental"}),
    ParamName);

}  // namespace
}  // namespace bulkdel
