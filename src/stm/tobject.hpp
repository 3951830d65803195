// Transactional objects: the DSTM locator protocol (Herlihy, Luchangco,
// Moir, Scherer, PODC'03), as used by DSTM2 with visible reads.
//
// Every TObject holds an atomic pointer to an immutable Locator naming an
// owner transaction and two versions of the payload:
//
//     current committed version =  new_version  if owner committed (or none)
//                                  old_version  if owner aborted or active
//
// A writer acquires the object by CASing in a fresh locator whose
// old_version is the current committed version and whose new_version is a
// private clone it then mutates. An *active* previous owner is a conflict
// handed to the contention manager; because ownership can be stolen right
// after a remote status CAS, the protocol is obstruction-free — nobody ever
// waits for a preempted thread unless the contention manager chooses to.
//
// Visible reads: striped per-object reader records with one bit per thread
// slot, spread over K cache-line-padded words (stripe = slot % K, bit =
// slot / K). Writers resolve against every active reader in their
// acquire-time snapshot by scanning the stripes; combined with the "check
// own status before every open" rule in the runtime this yields consistent
// views without read-set validation (see DESIGN.md §5, §11). The record
// lives out of line and is allocated by the object's first visible read, so
// objects that are never read visibly (the orec engine's) stay one cache
// line.
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <utility>

#include "stm/fwd.hpp"
#include "stm/tx.hpp"
#include "util/cacheline.hpp"
#include "util/pool.hpp"

namespace wstm::stm {

class Tx;

/// Striped visible-reader records (SNZI-lite). The old single 64-bit bitmap
/// made every reader of a hot object RMW the same cache line — a CAS retry
/// storm at high thread counts — and capped the process at 64 visible
/// readers. K independent cache-line-padded words indexed by thread slot
/// spread the announce/clear traffic K ways and raise the ceiling to
/// K * 64 slots. Writers resolve readers by scanning all K stripes; the
/// scan is K cache-line loads, paid only on write acquisition.
struct ReaderStripes {
  static constexpr unsigned kStripes = 4;
  /// Max thread slots representable (must cover Runtime::kMaxThreads).
  static constexpr unsigned kCapacity = kStripes * 64;

  static constexpr unsigned stripe_of(unsigned slot) noexcept {
    return slot % kStripes;
  }
  static constexpr std::uint64_t bit_of(unsigned slot) noexcept {
    return std::uint64_t{1} << (slot / kStripes);
  }
  /// Inverse of (stripe_of, bit index): the slot a set bit belongs to.
  static constexpr unsigned slot_at(unsigned stripe, unsigned bit) noexcept {
    return bit * kStripes + stripe;
  }

  /// Tests `slot`'s bit without ordering (the owner is the only writer of
  /// its own bit, so a relaxed self-test cannot race).
  bool announced(unsigned slot) const noexcept {
    return (stripe_[stripe_of(slot)]->load(std::memory_order_relaxed) &
            bit_of(slot)) != 0;
  }

  /// Sets `slot`'s bit. seq_cst on success: the visible-read flag protocol
  /// requires the announcement to be ordered before the subsequent locator
  /// load in the single total order (see DESIGN.md §5). Returns the number
  /// of failed CAS iterations — the residual stripe contention metric.
  unsigned announce(unsigned slot) noexcept {
    std::atomic<std::uint64_t>& s = *stripe_[stripe_of(slot)];
    const std::uint64_t bit = bit_of(slot);
    unsigned retries = 0;
    std::uint64_t cur = s.load(std::memory_order_relaxed);
    while (!s.compare_exchange_weak(cur, cur | bit, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
      ++retries;
    }
    return retries;
  }

  /// Clears `slot`'s bit (attempt cleanup). acq_rel: pairs with a resolving
  /// writer's stripe scan so a cleared reader is never resolved against a
  /// stale snapshot longer than necessary; no seq_cst needed because a
  /// spurious extra resolution is benign. Returns failed CAS iterations.
  unsigned clear(unsigned slot) noexcept {
    std::atomic<std::uint64_t>& s = *stripe_[stripe_of(slot)];
    const std::uint64_t mask = ~bit_of(slot);
    unsigned retries = 0;
    std::uint64_t cur = s.load(std::memory_order_relaxed);
    while (!s.compare_exchange_weak(cur, cur & mask, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      ++retries;
    }
    return retries;
  }

  /// Snapshot of one stripe's word (writer-side resolve scan).
  std::uint64_t load_stripe(unsigned stripe, std::memory_order mo) const noexcept {
    return stripe_[stripe]->load(mo);
  }

 private:
  CacheAligned<std::atomic<std::uint64_t>> stripe_[kStripes]{};
};

/// Type-erased locator. Lives in a pool block (see util/pool.hpp); immutable
/// after installation except for `dead_version`, written exactly once by the
/// (single) replacing writer just before the locator is retired; concurrent
/// readers never touch it.
struct Locator {
  TxDesc* owner;        // nullptr for the initial "stable" locator
  void* old_version;    // committed version before `owner` (may be null)
  void* new_version;    // owner's private clone / the committed version
  void* dead_version;   // set by the replacer: the version that lost
  void (*destroy)(void*);

  /// EBR deleter: frees the superseded version, drops the owner ref, and
  /// recycles the locator's block.
  static void reclaim(void* locator_ptr);
};

/// Non-template core of a transactional object. All protocol logic lives in
/// the runtime (one non-template translation unit); this class only owns
/// the locator chain head and the striped visible-reader record. One cache
/// line: the record (four padded stripes) is allocated on first visible
/// read, see reader_record().
class alignas(kCacheLine) TObjectBase {
 public:
  /// Clones `src` into a block of `pool` (nullptr → global allocation); the
  /// result must be freed with `destroy`.
  using CloneFn = void* (*)(const void* src, util::Pool* pool);
  using DestroyFn = void (*)(void*);

  /// Takes ownership of `initial_version` (a pool_new-style headered block).
  /// `payload_size` is sizeof the concrete payload — the size-class hint
  /// that lets the runtime route clones through the per-thread pools.
  TObjectBase(void* initial_version, CloneFn clone, DestroyFn destroy,
              std::uint32_t payload_size)
      : loc_(util::pool_new<Locator>(
            nullptr, Locator{nullptr, nullptr, initial_version, nullptr, destroy})),
        clone_(clone),
        destroy_(destroy),
        payload_size_(payload_size) {}

  /// Must only run at quiescence (e.g. after EBR grace for an unlinked
  /// node): frees the installed locator and every surviving version. Under
  /// the orec backend the latest committed payload lives in orec_body_ (the
  /// locator then still owns the initial version).
  ~TObjectBase() {
    if (ReaderStripes* r = readers_.load(std::memory_order_relaxed)) {
      r->~ReaderStripes();
      util::Pool::deallocate(r);
    }
    if (void* b = orec_body_.load(std::memory_order_relaxed)) destroy_(b);
    Locator* l = loc_.load(std::memory_order_relaxed);
    if (l->owner != nullptr) l->owner->release();
    if (l->old_version != nullptr) destroy_(l->old_version);
    if (l->new_version != nullptr) destroy_(l->new_version);
    util::Pool::deallocate(l);
  }

  TObjectBase(const TObjectBase&) = delete;
  TObjectBase& operator=(const TObjectBase&) = delete;

  /// Unsynchronized read of the current committed version. Only meaningful
  /// at quiescence (validation in tests, sizing between benchmark phases).
  const void* quiescent_version() const noexcept {
    // Orec backend: the redo-log write-back target supersedes the (frozen)
    // initial locator. Null outside orec mode, so DSTM pays one load.
    if (const void* b = orec_body_.load(std::memory_order_acquire)) return b;
    const Locator* l = loc_.load(std::memory_order_acquire);
    if (l->owner == nullptr) return l->new_version;
    return l->owner->status.load(std::memory_order_acquire) == TxStatus::kCommitted
               ? l->new_version
               : l->old_version;
  }

  /// True once a visible read has allocated this object's reader record.
  bool has_reader_records() const noexcept {
    return readers_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  friend class Runtime;
  friend class Tx;
  friend class DstmBackend;
  friend class OrecEngine;

  /// Clone for acquisition: pooled when the payload fits a size class,
  /// global pass-through otherwise (the hint keeps oversize payloads off the
  /// pool path without a per-clone branch in the template).
  void* make_clone(util::Pool* pool, const void* src) const {
    return clone_(src, payload_size_ <= util::Pool::kMaxBlock ? pool : nullptr);
  }

  /// The visible-reader record, installed on first use. The pointer is
  /// written once (null -> record) and never changes until ~TObjectBase.
  /// seq_cst load and CAS: a writer that later finds the pointer null must
  /// be ordered before the install in the single total order, so this
  /// reader's subsequent locator load sees that writer (DESIGN.md §11.2).
  /// The loser of a racing install frees its own block.
  ReaderStripes& reader_record(util::Pool* pool) {
    ReaderStripes* r = readers_.load(std::memory_order_seq_cst);
    if (r != nullptr) [[likely]] return *r;
    ReaderStripes* fresh = util::pool_new<ReaderStripes>(pool);
    if (readers_.compare_exchange_strong(r, fresh, std::memory_order_seq_cst)) return *fresh;
    fresh->~ReaderStripes();
    util::Pool::deallocate(fresh);
    return *r;
  }

  std::atomic<Locator*> loc_;
  /// Visible-read mode only; null until the first visible read.
  std::atomic<ReaderStripes*> readers_{nullptr};
  CloneFn clone_;
  DestroyFn destroy_;
  std::uint32_t payload_size_;
  /// Orec backend only: the latest committed payload, installed by a
  /// committer's write-back while it holds this object's orec lock; null
  /// means "still the initial version" (owned by loc_). A TObject belongs
  /// to exactly one Runtime, so the two engines never mix on one object.
  std::atomic<void*> orec_body_{nullptr};
  /// Orec backend only: first-touch id driving the object -> orec hash
  /// (0 = not yet assigned). Ids, not addresses, so the orec mapping — and
  /// with it every conflict and lock-acquisition order — is identical
  /// across runs and processes, which the deterministic checker's replay
  /// and the cross-variant decision-parity tests rely on.
  std::atomic<std::uint64_t> orec_id_{0};
};
static_assert(sizeof(TObjectBase) == kCacheLine,
              "TObjectBase must stay one cache line: the reader record lives out of line");

/// Typed transactional object. T must be copy-constructible (clone-on-write).
template <typename T>
class TObject : public TObjectBase {
 public:
  template <typename... Args>
  explicit TObject(Args&&... args)
      : TObjectBase(util::pool_new<T>(nullptr, std::forward<Args>(args)...), &clone_impl,
                    &destroy_impl, static_cast<std::uint32_t>(sizeof(T))) {}

  /// Opens for reading inside `tx`; the returned snapshot is valid for the
  /// duration of the transaction attempt.
  const T* open_read(Tx& tx);

  /// Opens for writing inside `tx`; returns the private mutable clone that
  /// becomes the committed version if the transaction commits.
  T* open_write(Tx& tx);

  const T* peek() const noexcept { return static_cast<const T*>(quiescent_version()); }

 private:
  static void* clone_impl(const void* p, util::Pool* pool) {
    return util::pool_new<T>(pool, *static_cast<const T*>(p));
  }
  static void destroy_impl(void* p) {
    static_cast<T*>(p)->~T();
    util::Pool::deallocate(p);
  }
};

}  // namespace wstm::stm
