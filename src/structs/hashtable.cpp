#include "structs/hashtable.hpp"

#include <algorithm>
#include <bit>

namespace wstm::structs {

HashTable::BucketData::BucketData(const BucketData& other)
    : size_(other.size_), cap_(other.cap_) {
  if (!other.spilled()) {
    // The whole fixed-size array: one straight-line copy, no length branch.
    std::copy_n(other.inline_, kInlineKeys, inline_);
    return;
  }
  heap_ = new long[cap_];
  std::copy_n(other.heap_, size_, heap_);
}

bool HashTable::BucketData::contains(long key) const noexcept {
  return std::binary_search(begin(), end(), key);
}

bool HashTable::BucketData::insert(long key) {
  long* k = keys();
  long* const pos = std::lower_bound(k, k + size_, key);
  if (pos != k + size_ && *pos == key) return false;
  if (size_ < cap_) {
    std::copy_backward(pos, k + size_, k + size_ + 1);
    *pos = key;
  } else {
    // Full: move every key into a heap array twice the size.
    const std::uint32_t cap = cap_ * 2;
    long* const heap = new long[cap];
    long* const at = std::copy(k, pos, heap);
    *at = key;
    std::copy(pos, k + size_, at + 1);
    if (spilled()) delete[] heap_;
    heap_ = heap;
    cap_ = cap;
  }
  ++size_;
  return true;
}

bool HashTable::BucketData::erase(long key) {
  long* k = keys();
  long* const pos = std::lower_bound(k, k + size_, key);
  if (pos == k + size_ || *pos != key) return false;
  std::copy(pos + 1, k + size_, pos);
  --size_;
  if (spilled() && size_ <= kInlineKeys) {
    // Small again: back into the block, so its clones stop allocating.
    long* const heap = heap_;
    std::copy_n(heap, size_, inline_);
    delete[] heap;
    cap_ = kInlineKeys;
  }
  return true;
}

HashTable::HashTable(std::size_t buckets)
    : bucket_count_(std::bit_ceil(std::max<std::size_t>(buckets, 1))),
      slots_(std::make_unique_for_overwrite<Slot[]>(bucket_count_)) {}

std::uint64_t HashTable::mix(long key) noexcept {
  // Fibonacci hashing over a splitmix-style finalizer.
  auto x = static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  return x;
}

HashTable::Bucket& HashTable::bucket_for(long key) noexcept {
  return slots_[mix(key) & (bucket_count_ - 1)].bucket;
}

bool HashTable::insert(stm::Tx& tx, long key) {
  Bucket& b = bucket_for(key);
  if (b.open_read(tx)->contains(key)) return false;
  return b.open_write(tx)->insert(key);
}

bool HashTable::remove(stm::Tx& tx, long key) {
  Bucket& b = bucket_for(key);
  if (!b.open_read(tx)->contains(key)) return false;
  return b.open_write(tx)->erase(key);
}

bool HashTable::contains(stm::Tx& tx, long key) {
  return bucket_for(key).open_read(tx)->contains(key);
}

std::vector<long> HashTable::quiescent_elements() const {
  std::vector<long> out;
  for (std::size_t i = 0; i < bucket_count_; ++i) {
    const BucketData* data = slots_[i].bucket.peek();
    out.insert(out.end(), data->begin(), data->end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wstm::structs
