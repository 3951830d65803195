// Transactional chained hash table (extension): fixed power-of-two bucket
// array, each bucket a TObject holding a small sorted key vector. Conflicts
// are confined to a bucket, so contention falls with the table size — the
// substrate STAMP's genome benchmark uses for segment deduplication, and a
// fourth int-set shape (point-contention, no traversal chains) alongside
// List / RBTree / SkipList.
#pragma once

#include <memory>

#include "structs/intset.hpp"

namespace wstm::structs {

class HashTable final : public TxIntSet {
 public:
  /// `buckets` is rounded up to a power of two (default 64).
  explicit HashTable(std::size_t buckets = 64);
  ~HashTable() override = default;

  bool insert(stm::Tx& tx, long key) override;
  bool remove(stm::Tx& tx, long key) override;
  bool contains(stm::Tx& tx, long key) override;
  std::vector<long> quiescent_elements() const override;
  std::string kind() const override { return "hashtable"; }

  std::size_t bucket_count() const noexcept { return bucket_count_; }

 private:
  struct BucketData {
    std::vector<long> keys;  // sorted, unique
  };
  using Bucket = stm::TObject<BucketData>;
  /// Buckets live in place, one per 128-byte slot: a lookup touches the
  /// bucket's own line instead of a pointer array and then the object.
  /// 128 rather than 64 (a bucket is one line) is measured: packed 64-byte
  /// slots made the Zipf-skewed serve-zipf benchmark's median transaction
  /// latency 14 % worse (10 of 10 run pairs, 4-CPU Xeon VM). The likely
  /// cause is the adjacent-line prefetcher pairing each hot bucket with its
  /// neighbour.
  struct alignas(128) Slot {
    Bucket bucket;
  };

  Bucket& bucket_for(long key) noexcept;
  static std::uint64_t mix(long key) noexcept;

  std::size_t bucket_count_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace wstm::structs
