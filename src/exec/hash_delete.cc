#include "exec/hash_delete.h"

namespace bulkdel {

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t Mix(uint64_t v) {
  // SplitMix64 finalizer: good avalanche for packed RIDs and keys.
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ULL;
  v ^= v >> 27;
  v *= 0x94d049bb133111ebULL;
  v ^= v >> 31;
  return v;
}
}  // namespace

size_t U64HashSet::EstimateBytes(size_t n) {
  return RoundUpPow2(std::max<size_t>(n * 2, 16)) * sizeof(uint64_t);
}

U64HashSet::U64HashSet(size_t expected_items) {
  size_t cap = RoundUpPow2(std::max<size_t>(expected_items * 2, 16));
  slots_.assign(cap, kEmpty);
  mask_ = cap - 1;
}

size_t U64HashSet::Probe(uint64_t v) const {
  size_t i = Mix(v) & mask_;
  while (slots_[i] != kEmpty && slots_[i] != v) {
    i = (i + 1) & mask_;
  }
  return i;
}

void U64HashSet::Insert(uint64_t v) {
  if (v == kEmpty) {
    if (!has_sentinel_) {
      has_sentinel_ = true;
      ++size_;
    }
    return;
  }
  size_t i = Probe(v);
  if (slots_[i] == v) return;
  slots_[i] = v;
  ++size_;
  if (size_ * 2 > slots_.size()) Grow();
}

bool U64HashSet::Contains(uint64_t v) const {
  if (v == kEmpty) return has_sentinel_;
  return slots_[Probe(v)] == v;
}

void U64HashSet::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, kEmpty);
  mask_ = slots_.size() - 1;
  size_ = 0;
  for (uint64_t v : old) {
    if (v != kEmpty) Insert(v);
  }
}

Status HashDeleteIndexByRids(BTree* index, const std::vector<Rid>& rids,
                             ReorgMode reorg, BtreeBulkDeleteStats* stats) {
  U64HashSet set(rids.size());
  for (const Rid& rid : rids) set.Insert(rid.Pack());
  return index->BulkDeleteByPredicate(
      [&](int64_t, const Rid& rid) { return set.Contains(rid.Pack()); },
      reorg, stats);
}

}  // namespace bulkdel
