// Transactional chained hash table (extension): fixed power-of-two bucket
// array, each bucket a TObject holding a small sorted key array. Conflicts
// are confined to a bucket, so contention falls with the table size — the
// substrate STAMP's genome benchmark uses for segment deduplication, and a
// fourth int-set shape (point-contention, no traversal chains) alongside
// List / RBTree / SkipList.
#pragma once

#include <cstdint>
#include <memory>

#include "structs/intset.hpp"

namespace wstm::structs {

class HashTable final : public TxIntSet {
 public:
  /// Keys a bucket holds inside its version block. A bucket that grows
  /// past this moves all of its keys into one heap array, and moves them
  /// back once it shrinks to this size again. 7 fills the pool's 64-byte
  /// class; 15 (a 128-byte block) is measured worse: 16 % more peak RSS on
  /// the 2^18-bucket benchmark table and 11 % higher median latency on the
  /// Zipf serve benchmark (EXPERIMENTS.md, "Bucket keys in the version
  /// block").
  static constexpr std::uint32_t kInlineKeys = 7;

  /// `buckets` is rounded up to a power of two (default 64).
  explicit HashTable(std::size_t buckets = 64);
  ~HashTable() override = default;

  bool insert(stm::Tx& tx, long key) override;
  bool remove(stm::Tx& tx, long key) override;
  bool contains(stm::Tx& tx, long key) override;
  std::vector<long> quiescent_elements() const override;
  /// Buckets live in place: a hash table makes no nodes.
  std::vector<const void*> quiescent_nodes() const override { return {}; }
  std::string kind() const override { return "hashtable"; }

  std::size_t bucket_count() const noexcept { return bucket_count_; }

 private:
  /// One bucket version: its keys, sorted and unique. Up to kInlineKeys of
  /// them live in the block itself, so a lookup reads the committed version
  /// and its keys from one cache line instead of chasing a pointer to a
  /// separate key buffer, and a clone (DSTM locator or orec redo log) is
  /// one pool-block copy with no global-allocator call. Past kInlineKeys
  /// the union holds a pointer to a heap array of capacity `cap_`.
  class BucketData {
   public:
    BucketData() noexcept : inline_{} {}
    BucketData(const BucketData& other);
    BucketData& operator=(const BucketData&) = delete;
    ~BucketData() {
      if (spilled()) delete[] heap_;
    }

    const long* begin() const noexcept { return spilled() ? heap_ : inline_; }
    const long* end() const noexcept { return begin() + size_; }
    bool contains(long key) const noexcept;
    /// False if `key` was already present.
    bool insert(long key);
    /// False if `key` was absent.
    bool erase(long key);

   private:
    bool spilled() const noexcept { return cap_ > kInlineKeys; }
    long* keys() noexcept { return spilled() ? heap_ : inline_; }

    std::uint32_t size_ = 0;
    std::uint32_t cap_ = kInlineKeys;
    union {
      long* heap_;
      long inline_[kInlineKeys];
    };
  };
  static_assert(sizeof(BucketData) == 8 + 8 * kInlineKeys,
                "a bucket version is its two counts and its in-place keys");

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
