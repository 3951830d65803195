#include "structs/hashtable.hpp"

#include <algorithm>
#include <bit>

namespace wstm::structs {

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
  const BucketData* data = b.open_read(tx);
  const auto it = std::lower_bound(data->keys.begin(), data->keys.end(), key);
  if (it != data->keys.end() && *it == key) return false;
  BucketData* mut = b.open_write(tx);
  mut->keys.insert(std::lower_bound(mut->keys.begin(), mut->keys.end(), key), key);
  return true;
}

bool HashTable::remove(stm::Tx& tx, long key) {
  Bucket& b = bucket_for(key);
  const BucketData* data = b.open_read(tx);
  const auto it = std::lower_bound(data->keys.begin(), data->keys.end(), key);
  if (it == data->keys.end() || *it != key) return false;
  BucketData* mut = b.open_write(tx);
  const auto mit = std::lower_bound(mut->keys.begin(), mut->keys.end(), key);
  mut->keys.erase(mit);
  return true;
}

bool HashTable::contains(stm::Tx& tx, long key) {
  const BucketData* data = bucket_for(key).open_read(tx);
  return std::binary_search(data->keys.begin(), data->keys.end(), key);
}

std::vector<long> HashTable::quiescent_elements() const {
  std::vector<long> out;
  for (std::size_t i = 0; i < bucket_count_; ++i) {
    const BucketData* data = slots_[i].bucket.peek();
    out.insert(out.end(), data->keys.begin(), data->keys.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wstm::structs
