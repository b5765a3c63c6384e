#include "exec/hash_delete.h"

#include <algorithm>
#include <bit>

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

RidSet::RidSet(size_t n, const std::function<Rid(size_t)>& rid_at) {
  if (n == 0) return;
  uint64_t lo = ~0ULL;
  uint64_t hi = 0;
  for (size_t i = 0; i < n; ++i) {
    Rid rid = rid_at(i);
    lo = std::min<uint64_t>(lo, rid.page);
    hi = std::max<uint64_t>(hi, rid.page);
    max_slot_ = std::max(max_slot_, rid.slot);
  }
  slot_bits_ = std::bit_width(max_slot_);
  uint64_t words = (((hi - lo + 1) << slot_bits_) + 63) / 64;
  if (words * sizeof(uint64_t) > U64HashSet::EstimateBytes(n)) {
    hash_ = std::make_unique<U64HashSet>(n);
    for (size_t i = 0; i < n; ++i) hash_->Insert(rid_at(i).Pack());
    return;
  }
  min_page_ = lo;
  page_span_ = hi - lo + 1;
  bits_.assign(words, 0);
  for (size_t i = 0; i < n; ++i) {
    Rid rid = rid_at(i);
    uint64_t bit = ((rid.page - min_page_) << slot_bits_) | rid.slot;
    bits_[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
}

Status HashDeleteIndexByRids(BTree* index, const std::vector<Rid>& rids,
                             ReorgMode reorg, BtreeBulkDeleteStats* stats) {
  RidSet set(rids);
  return index->BulkDeleteByPredicate(
      [&](int64_t, const Rid& rid) { return set.Contains(rid); }, reorg,
      stats);
}

}  // namespace bulkdel
