// google-benchmark micro suite for the B-link tree and the bulk-delete
// primitives: wall-clock costs of the core operations at memory-resident
// scale (the figure benches measure simulated disk time; this one measures
// CPU).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "btree/btree.h"
#include "exec/hash_delete.h"
#include "storage/buffer_pool.h"
#include "util/random.h"

namespace bulkdel {
namespace {

struct TreeFixture {
  TreeFixture(int64_t n, size_t pool_pages = 4096)
      : pool(&disk, pool_pages * kPageSize) {
    tree = std::make_unique<BTree>(*BTree::Create(&pool));
    Random rng(7);
    for (int64_t i = 0; i < n; ++i) {
      (void)tree->Insert(static_cast<int64_t>(rng.Next() >> 16),
                         Rid(static_cast<PageId>(i + 1),
                             static_cast<uint16_t>(i % 32)));
    }
  }
  DiskManager disk;
  BufferPool pool;
  std::unique_ptr<BTree> tree;
};

void BM_Insert(benchmark::State& state) {
  TreeFixture f(state.range(0));
  Random rng(99);
  int64_t i = 0;
  for (auto _ : state) {
    (void)f.tree->Insert(static_cast<int64_t>(rng.Next() >> 8),
                         Rid(static_cast<PageId>(1000000 + i), 0));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Insert)->Arg(10000)->Arg(100000);

void BM_Search(benchmark::State& state) {
  TreeFixture f(state.range(0));
  Random rng(7);
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < state.range(0); ++i) {
    keys.push_back(static_cast<int64_t>(rng.Next() >> 16));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tree->Search(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Search)->Arg(10000)->Arg(100000);

void BM_TraditionalDelete(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    TreeFixture f(state.range(0));
    std::vector<KeyRid> entries;
    (void)f.tree->ScanAll([&](int64_t k, const Rid& rid, uint16_t) {
      entries.emplace_back(k, rid);
      return Status::OK();
    });
    state.ResumeTiming();
    for (size_t i = 0; i < entries.size(); i += 10) {
      (void)f.tree->Delete(entries[i].key, entries[i].rid);
    }
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(entries.size() / 10));
  }
}
BENCHMARK(BM_TraditionalDelete)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_BulkDeleteSortedKeys(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    TreeFixture f(state.range(0));
    std::vector<int64_t> keys;
    (void)f.tree->ScanAll([&](int64_t k, const Rid&, uint16_t) {
      if (keys.size() % 10 == 0 || keys.empty() || keys.back() != k) {
        // take every ~10th distinct key
      }
      keys.push_back(k);
      return Status::OK();
    });
    std::vector<int64_t> doomed;
    for (size_t i = 0; i < keys.size(); i += 10) doomed.push_back(keys[i]);
    state.ResumeTiming();
    (void)f.tree->BulkDeleteSortedKeys(doomed, ReorgMode::kFreeAtEmpty,
                                       nullptr);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(doomed.size()));
  }
}
BENCHMARK(BM_BulkDeleteSortedKeys)->Arg(50000)->Unit(benchmark::kMillisecond);

/// A fresh tree bulk-loaded (full leaves) from `entries`.
struct LoadedTree {
  explicit LoadedTree(const std::vector<KeyRid>& entries)
      : pool(&disk, 4096 * kPageSize) {
    tree = std::make_unique<BTree>(*BTree::Create(&pool));
    (void)tree->BulkLoad(entries);
  }
  DiskManager disk;
  BufferPool pool;
  std::unique_ptr<BTree> tree;
};

/// `n` (key, RID) entries sorted by key. RIDs pack 16 rows to a heap page,
/// the layout of a 256-byte-tuple table; with `scatter_keys` the key order
/// is a permutation of the RID order (a secondary index), otherwise key i
/// sits on row i.
std::vector<KeyRid> TableEntries(int64_t n, bool scatter_keys) {
  std::vector<KeyRid> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int64_t key = scatter_keys ? (i * 104729) % n : i;
    entries.emplace_back(key, Rid(static_cast<PageId>(1 + i / 16),
                                  static_cast<uint16_t>(i % 16)));
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

/// The by-RID ⋉̸ on a secondary index: 10% random RIDs of the table.
void BM_BulkDeleteByRid(benchmark::State& state) {
  std::vector<KeyRid> entries = TableEntries(state.range(0), true);
  std::vector<Rid> doomed;
  Random rng(7);
  for (const KeyRid& e : entries) {
    if (rng.Uniform(10) == 0) doomed.push_back(e.rid);
  }
  std::unique_ptr<LoadedTree> t;
  for (auto _ : state) {
    state.PauseTiming();
    t.reset();
    t = std::make_unique<LoadedTree>(entries);
    state.ResumeTiming();
    Status s =
        HashDeleteIndexByRids(t->tree.get(), doomed, ReorgMode::kFreeAtEmpty);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BulkDeleteByRid)->Arg(100000)->Unit(benchmark::kMillisecond);

/// 1024 contiguous keys: whole leaves die entry by entry, the case where
/// per-entry removal is quadratic in the leaf size.
void BM_BulkDeleteClusteredKeys(benchmark::State& state) {
  std::vector<KeyRid> entries = TableEntries(state.range(0), false);
  std::vector<int64_t> doomed;
  for (int64_t k = state.range(0) / 2; k < state.range(0) / 2 + 1024; ++k) {
    doomed.push_back(k);
  }
  std::unique_ptr<LoadedTree> t;
  for (auto _ : state) {
    state.PauseTiming();
    t.reset();
    t = std::make_unique<LoadedTree>(entries);
    state.ResumeTiming();
    Status s = t->tree->BulkDeleteSortedKeys(doomed, ReorgMode::kFreeAtEmpty,
                                             nullptr);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doomed.size()));
}
BENCHMARK(BM_BulkDeleteClusteredKeys)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

void BM_BulkLoad(benchmark::State& state) {
  std::vector<KeyRid> entries;
  for (int64_t i = 0; i < state.range(0); ++i) {
    entries.emplace_back(i * 3, Rid(static_cast<PageId>(i + 1), 0));
  }
  for (auto _ : state) {
    state.PauseTiming();
    DiskManager disk;
    BufferPool pool(&disk, 4096 * kPageSize);
    auto tree = *BTree::Create(&pool);
    state.ResumeTiming();
    (void)tree.BulkLoad(entries);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(entries.size()));
  }
}
BENCHMARK(BM_BulkLoad)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_LeafScan(benchmark::State& state) {
  TreeFixture f(state.range(0));
  for (auto _ : state) {
    uint64_t n = 0;
    (void)f.tree->ScanAll([&](int64_t, const Rid&, uint16_t) {
      ++n;
      return Status::OK();
    });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LeafScan)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bulkdel

BENCHMARK_MAIN();
