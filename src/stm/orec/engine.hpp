// Lazy TL2-style execution engine over the Backend concept (DESIGN.md §12).
//
// Reads sample (orec, body, orec) sandwiches against an attempt-local read
// version rv (TxLogs::rv, a commit-clock sample) and extend rv by
// revalidating the read set when they trip over a younger version. Writes buffer redo-log clones — nothing is locked
// until commit, where the engine acquires the write set's orecs in address
// order, validates the read set, takes a commit timestamp from the shared
// commit clock, flips status, writes back and releases. Conflicts (a locked
// orec at read/lock time, a locked entry at validation time) go through
// Runtime::arbitrate, so the whole CM family — window managers, frame
// scheduling, the escalation ladder and the irrevocable serial-fallback
// token — applies to this engine exactly as it does to DSTM.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "stm/backend.hpp"
#include "stm/orec/orec.hpp"
#include "stm/orec/ptr_index.hpp"
#include "stm/runtime.hpp"

namespace wstm::stm {

class OrecEngine final : public Backend {
 public:
  OrecEngine(Runtime& rt, std::uint32_t log2_orecs);
  ~OrecEngine() override;

  BackendKind kind() const noexcept override { return BackendKind::kOrec; }
  void begin(ThreadCtx& tc) override;
  const void* open_read(ThreadCtx& tc, TObjectBase& obj) override;
  void* open_write(ThreadCtx& tc, TObjectBase& obj) override;
  bool commit(ThreadCtx& tc) override;
  void end(ThreadCtx& tc, bool committed) override;

  OrecTable& table() noexcept { return table_; }

 private:
  struct ReadEntry {
    std::atomic<std::uint64_t>* orec;
    std::uint64_t seen;  // unlocked word observed at first read (version<<1)
  };
  struct WriteEntry {
    TObjectBase* obj;
    std::atomic<std::uint64_t>* orec;
    void* clone;  // redo-log payload (pool block via TObjectBase::make_clone)
  };
  struct LockEntry {
    std::atomic<std::uint64_t>* orec;
    std::uint64_t saved;  // unlocked word our lock CAS replaced
  };

  /// Per-slot transaction logs, owned by the engine and reused across
  /// attempts (vectors and index maps keep their capacity, clones come from
  /// the thread's slab pool — the hot path allocates nothing in steady
  /// state). Indexed by ThreadCtx::slot(), so slot recycling reuses logs;
  /// begin() resets them.
  struct TxLogs {
    /// Read version: every version <= rv was written back before the
    /// snapshot was taken (set at begin, raised by extend).
    std::uint64_t rv = 0;
    std::vector<ReadEntry> reads;
    PtrIndex read_index;  // orec address -> reads index (dedup)
    std::vector<WriteEntry> writes;
    PtrIndex write_index;  // object address -> writes index
    std::vector<std::uint32_t> lock_order;  // writes indexes, orec-sorted
    std::vector<LockEntry> locks;           // held commit locks, in order
  };

  TxLogs& logs(ThreadCtx& tc);

  /// The orec covering `obj`, assigning its first-touch id on demand.
  std::atomic<std::uint64_t>& orec_of(TObjectBase& obj);

  /// The committed payload of `obj`: the write-back slot when a committer
  /// has ever published one, else the (frozen) initial version.
  static const void* committed_body(const TObjectBase& obj) noexcept;

  /// One consistent (orec word, payload) sample of `obj`, arbitrating
  /// against active lock holders and extending rv past younger versions.
  /// `point`/`kind` make the loop read like the matching DSTM open
  /// (kRead/kReadWrite for reads, kWrite/kWriteWrite for write opens).
  const void* read_consistent(ThreadCtx& tc, TObjectBase& obj,
                              std::atomic<std::uint64_t>& orec, check::Point point,
                              ConflictKind kind, std::uint64_t& word_out);

  /// Record (orec, word) in the read log, deduplicating by orec address.
  void record_read(ThreadCtx& tc, std::atomic<std::uint64_t>& orec, std::uint64_t word);

  /// Extend rv: sample the clock, revalidate the whole read set (aborts
  /// self on failure), advance rv to the sample.
  void extend(ThreadCtx& tc);

  /// Revalidate every read entry against its recorded word. Entries locked
  /// by an active enemy are CM-arbitrated (the enemy is mid-commit over
  /// something we read); entries locked by ourselves compare the pre-lock
  /// saved word. Aborts self on any entry whose version moved on.
  void validate_read_set(ThreadCtx& tc);

  /// Non-aborting ghost pass for the checker: would validate_read_set
  /// succeed right now? (Used to flag the seeded skip-validation bug.)
  bool ghost_read_set_valid(ThreadCtx& tc);

  /// Sorted, CM-arbitrated acquisition of the write set's orecs. Fills
  /// lg.locks; throws TxAbort on kAbortSelf (end() releases whatever was
  /// already held).
  void acquire_locks(ThreadCtx& tc);

  /// Install redo-log clones as the committed bodies (retiring replaced
  /// ones through EBR) and release all locks at version `wv`.
  void writeback_and_release(ThreadCtx& tc, std::uint64_t wv);

  /// The saved pre-lock word for an orec we hold (linear scan of lg.locks;
  /// the held set is small).
  std::uint64_t saved_word_of(const TxLogs& lg, const std::atomic<std::uint64_t>* orec) const;

  Runtime& rt_;
  OrecTable table_;
  /// First-touch id source for orec_of (ids start at 1; 0 = unassigned).
  std::atomic<std::uint64_t> next_obj_id_{0};
  std::array<std::unique_ptr<TxLogs>, Runtime::kMaxThreads> logs_;
};

}  // namespace wstm::stm
