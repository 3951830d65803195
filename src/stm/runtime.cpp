// The DSTM locator protocol with visible reads. See tobject.hpp for the
// protocol overview and DESIGN.md §5 for the consistency argument.
#include "stm/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <new>
#include <stdexcept>
#include <thread>

#include "stm/orec/engine.hpp"
#include "trace/recorder.hpp"

namespace wstm::stm {

namespace {
/// Releases the slot reference held by the current_tx_ published pointer;
/// deferred through EBR so enemies dereferencing the pointer stay safe.
void release_desc_ref(void* desc_ptr) { static_cast<TxDesc*>(desc_ptr)->release(); }

/// Seeded-bug helper (stale_reader_record): the readers announced on `live`
/// as of this call, copied into a per-thread scratch record; null when the
/// object has no record yet.
const ReaderStripes* copy_of_readers(const ReaderStripes* live) {
  if (live == nullptr) return nullptr;
  static thread_local ReaderStripes copy;
  for (unsigned slot = 0; slot < ReaderStripes::kCapacity; ++slot) {
    if (copy.announced(slot)) copy.clear(slot);
    if (live->announced(slot)) copy.announce(slot);
  }
  return &copy;
}
}  // namespace

/// The DSTM locator engine behind the Backend interface (DESIGN.md §12):
/// thin forwarding onto the Runtime protocol bodies below, kept as Runtime
/// methods so porting the engine onto the backend concept stayed
/// behavior-preserving line for line.
class DstmBackend final : public Backend {
 public:
  explicit DstmBackend(Runtime& rt) : rt_(rt) {}
  BackendKind kind() const noexcept override { return BackendKind::kDstm; }

  // Visible reads validate nothing, so an attempt has no snapshot to take.
  void begin(ThreadCtx& /*tc*/) override {}

  const void* open_read(ThreadCtx& tc, TObjectBase& obj) override {
    return rt_.dstm_open_read(tc, obj);
  }
  void* open_write(ThreadCtx& tc, TObjectBase& obj) override {
    return rt_.dstm_open_write(tc, obj);
  }
  bool commit(ThreadCtx& tc) override { return rt_.dstm_commit(tc); }

  void end(ThreadCtx& tc, bool /*committed*/) override {
    // Every read-set object has its record: this thread announced on it.
    for (TObjectBase* obj : tc.read_set_) {
      obj->readers_.load(std::memory_order_relaxed)->clear(tc.slot_);
    }
    tc.read_set_.clear();
  }

 private:
  Runtime& rt_;
};

Runtime::Runtime(cm::ManagerPtr manager, Config config)
    : manager_(std::move(manager)), config_(config) {
  if (!manager_) throw std::invalid_argument("Runtime requires a contention manager");
  if (!config_.visible_reads) {
    throw std::invalid_argument(
        "RuntimeConfig::visible_reads must be true: DSTM reads are always visible; "
        "use backend = kOrec for invisible reads");
  }
  if (config_.backend == BackendKind::kOrec) {
    backend_ = std::make_unique<OrecEngine>(*this, config_.orec_table_bits);
  } else {
    backend_ = std::make_unique<DstmBackend>(*this);
  }
  time_every_tx_ =
      config_.recorder != nullptr || config_.liveness.enabled || manager_->orders_by_age();
  manager_->attach_recorder(config_.recorder);
  manager_->attach_wait_hooks(&park_waiter_);
  for (auto& p : parked_on_) p->store(-1, std::memory_order_relaxed);
  if (config_.liveness.enabled) {
    liveness_owned_ = std::make_unique<resilience::LivenessManager>(config_.liveness);
    liveness_ = liveness_owned_.get();
    // The monitor thread is a real-time mechanism; under the deterministic
    // checker it would observe the virtual clock racily and break replay,
    // so only the worker-driven parts of the ladder run there.
    if (config_.checker == nullptr && config_.liveness.watchdog_period_ns > 0) {
      try {
        // The watchdog dereferences published descriptors when kicking, so
        // it needs its own EBR slot (workers are then capped at 63). If the
        // domain is full, detection still runs but kicks are disabled.
        watchdog_ebr_ = ebr_.attach();
      } catch (...) {
      }
      liveness_->start_watchdog([this](unsigned slot) { watchdog_kick(slot); });
    }
  }
  if (config_.chaos.enabled && config_.checker == nullptr) {
    chaos_owned_ = std::make_unique<resilience::ChaosInjector>(config_.chaos);
    chaos_ = chaos_owned_.get();
  }
}

Runtime::~Runtime() {
  // Quiescence-safe teardown: refuse new attempts and drain in-flight ones
  // (bounded) before the watchdog and the thread registry go away.
  shutdown();
  if (liveness_ != nullptr) liveness_->stop_watchdog();
  if (watchdog_ebr_.attached()) watchdog_ebr_.detach();
  std::lock_guard<std::mutex> lock(attach_mutex_);
  for (unsigned i = 0; i < kMaxThreads; ++i) {
    // detach_locked skips contexts the caller already detached (the slot
    // array only holds live ones, so no double handling is possible).
    if (threads_[i]) detach_locked(*threads_[i]);
  }
}

void Runtime::shutdown() noexcept {
  stopping_.store(true, std::memory_order_seq_cst);
  const std::int64_t deadline = now_ns() + config_.shutdown_drain_timeout_ns;
  // Kicking stragglers requires dereferencing published descriptors, which
  // needs an EBR pin; use a scratch handle so shutdown works from any
  // thread. With all kMaxThreads slots taken we only wait (attach throws).
  ebr::Handle scratch;
  bool have_scratch = false;
  try {
    scratch = ebr_.attach();
    have_scratch = true;
  } catch (...) {
  }
  // Every in-flight attempt is pinned (begin_attempt pins before it checks
  // stopping_), so the drain is over once no slot of the domain is pinned.
  // The scratch handle pins only while kicking, never during the poll.
  while (ebr_.any_pinned()) {
    if (config_.shutdown_drain_timeout_ns > 0 && now_ns() >= deadline) break;
    if (have_scratch) {
      // Abort in-flight stragglers so contention-manager waits unwind into
      // the retry loop, where the stopping gate turns them into
      // RuntimeStoppedError. A published Active descriptor is an attempt
      // still running. Irrevocable holders refuse the kill and drain by
      // committing.
      scratch.pin();
      for (unsigned i = 0; i < kMaxThreads; ++i) {
        TxDesc* d = current_tx_[i]->load(std::memory_order_acquire);
        if (d != nullptr && d->is_active() && d->try_abort()) signal_status_change(nullptr, d);
      }
      scratch.unpin();
    }
    std::this_thread::yield();
  }
  if (have_scratch) scratch.detach();
}

void Runtime::watchdog_kick(unsigned slot) {
  if (!watchdog_ebr_.attached()) return;
  watchdog_ebr_.pin();
  // A stalled attempt holds objects open; aborting it lets conflicting
  // threads proceed, and the victim unwinds at its next schedule point.
  // try_abort refuses irrevocable holders by itself.
  if (TxDesc* d = current_tx_[slot]->load(std::memory_order_acquire)) {
    if (d->try_abort()) signal_status_change(nullptr, d);
  }
  watchdog_ebr_.unpin();
}

ThreadCtx& Runtime::attach_thread() {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  for (unsigned i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (slot_used_[i].compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
      const std::uint64_t seed = config_.seed * 0x9e3779b97f4a7c15ULL + i + 1;
      threads_[i].reset(new ThreadCtx(this, i, ebr_.attach(), seed));
      threads_[i]->pool_ = util::Pool::acquire();
      threads_[i]->ebr_.set_pool(threads_[i]->pool_);
      threads_[i]->ebr_.set_sync_counter(&threads_[i]->metrics_.ebr_shard_syncs);
      return *threads_[i];
    }
  }
  throw std::runtime_error("Runtime: all thread slots in use");
}

void Runtime::detach_thread(ThreadCtx& tc) {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  detach_locked(tc);
}

void Runtime::detach_locked(ThreadCtx& tc) {
  const unsigned slot = tc.slot_;
  // Idempotence: a second detach of the same context (or a detach racing
  // the destructor) must not touch a slot that has moved on.
  if (tc.detached_ || threads_[slot].get() != &tc) return;
  // Drop the published descriptor's slot reference (no enemy can be pinned
  // on it once this thread has stopped running transactions and the caller
  // serializes detach with workload completion).
  TxDesc* prev = current_tx_[slot]->exchange(nullptr, std::memory_order_acq_rel);
  if (prev != nullptr) prev->release();
  tc.detached_ = true;
  // Release the EBR slot now (pending garbage moves to the domain) and park
  // the pool for the next attacher; the context itself is retired, not
  // destroyed, so stale references stay valid until Runtime teardown.
  tc.ebr_.detach();
  if (tc.pool_ != nullptr) {
    util::Pool::park(tc.pool_);
    tc.pool_ = nullptr;
  }
  retired_threads_.push_back(std::move(threads_[slot]));
  slot_used_[slot].store(false, std::memory_order_release);
}

std::uint32_t Runtime::liveness_pre_begin(ThreadCtx& tc, std::int64_t first_begin) {
  const resilience::LivenessConfig& lc = liveness_->config();

  // Hard deadline across attempts: surface a structured error instead of
  // retrying forever. The logical transaction ends here; its escalation
  // state resets so the *next* transaction starts clean.
  if (lc.deadline_ns > 0) {
    const std::int64_t age = now_ns() - first_begin;
    if (age > lc.deadline_ns) {
      const std::uint32_t aborts = tc.consecutive_aborts_;
      tc.metrics_.timeouts++;
      tc.consecutive_aborts_ = 0;
      tc.escalation_level_ = 0;
      throw resilience::TxTimeoutError(tc.slot_, aborts, age);
    }
  }

  // Collect watchdog detections here so the trace event is recorded by the
  // ring's owning thread (once the attempt's serial exists).
  tc.pending_watchdog_flags_ = liveness_->take_flags(tc.slot_);
  if (tc.pending_watchdog_flags_ != 0) tc.metrics_.watchdog_flags++;

  const std::uint32_t aborts = tc.consecutive_aborts_;
  std::uint32_t level = 0;
  if (aborts >= lc.serial_after) {
    level = 3;
  } else if (aborts >= lc.boost_after) {
    level = 2;
  } else if (aborts >= lc.backoff_after) {
    level = 1;
  }
  tc.escalation_level_ = level;
  tc.attempt_irrevocable_ = false;
  if (level == 0) return 0;

  tc.metrics_.escalations++;
  if (level < 3 && lc.backoff_base_us > 0) {
    // Capped randomized exponential backoff, drawn from the thread RNG so
    // seeded runs stay reproducible. Skipped at level 3: the transaction is
    // about to run serially, delaying it only extends the storm.
    const std::uint32_t over = aborts - lc.backoff_after;
    const std::uint64_t cap =
        std::min<std::uint64_t>(static_cast<std::uint64_t>(lc.backoff_base_us)
                                    << std::min<std::uint32_t>(over, 10),
                                lc.backoff_cap_us);
    const std::uint64_t us = tc.rng_.below(cap + 1);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  if (level >= 3 && liveness_->try_acquire_token(tc.slot_)) {
    // Token acquisition is strictly non-blocking: a failed CAS means "run
    // this attempt boosted"; blocking here would deadlock the serialized
    // deterministic executor (the waiter holds the execution token).
    tc.attempt_irrevocable_ = true;
    tc.metrics_.serial_fallbacks++;
  }
  return level;
}

TxDesc* Runtime::begin_attempt(ThreadCtx& tc, std::int64_t first_begin, bool is_retry) {
  sched_point(check::Point::kBegin);  // no descriptor yet: directives ignored

  // Unwind protection until the descriptor is published: anything that
  // throws in between (the liveness deadline check, the stopping gate, the
  // pool allocation) must not leak the EBR pin — shutdown() would wait on
  // it until the drain timeout — nor the serial-fallback token, which has
  // no other release path and would disable serial fallback for the rest
  // of the run.
  struct BeginGuard {
    Runtime* rt;
    ThreadCtx* tc;
    bool pinned = false;
    bool armed = true;
    ~BeginGuard() {
      if (!armed) return;
      if (tc->attempt_irrevocable_) {
        tc->attempt_irrevocable_ = false;
        rt->liveness_->release_token(tc->slot_);
      }
      if (pinned) tc->ebr_.unpin();
    }
  } guard{this, &tc};

  // Garbage bound: wait, unpinned, while a stalled pin elsewhere keeps this
  // thread's limbo over kMaxPendingRetires.
  if (tc.ebr_.pending() > kMaxPendingRetires) [[unlikely]] wait_for_reclaim(tc);

  // Shutdown gate, Dekker-paired with shutdown(): the pin's seq_cst slot
  // store is ordered against its seq_cst store of stopping_, so either we
  // observe stopping_ and refuse, or its poll of the pinned slots observes
  // our pin and waits for this attempt to finish. The pin comes before the
  // escalation ladder so that a retrier asleep in its backoff (at most
  // backoff_cap_us) is drained too, rather than waking after shutdown()
  // returned.
  tc.ebr_.pin();
  guard.pinned = true;
  std::uint32_t level = 0;
  if (liveness_ != nullptr) level = liveness_pre_begin(tc, first_begin);
  if (stopping_.load(std::memory_order_seq_cst)) [[unlikely]] {
    throw resilience::RuntimeStoppedError(tc.slot_);
  }

  auto* desc = new (util::Pool::allocate(tc.pool_, sizeof(TxDesc))) TxDesc();
  desc->thread_slot = tc.slot_;
  desc->serial = ++tc.serial_;
  // A timed first attempt reuses the stamp atomically() just took; timed
  // retries read the clock again, untimed attempts never do.
  desc->begin_ns = is_retry && first_begin != kUnstamped ? now_ns() : first_begin;
  desc->first_begin_ns = first_begin;
  if (level >= 2) {
    // Escalation state becomes visible to enemies with the descriptor
    // itself: both fields are set before the publishing exchange below, so
    // no enemy ever observes a half-escalated attempt. Level 1 is purely a
    // backoff stage (already slept in liveness_pre_begin) and carries no
    // arbitration boost.
    desc->boost.store(level, std::memory_order_relaxed);
    if (tc.attempt_irrevocable_) desc->irrevocable.store(true, std::memory_order_relaxed);
  }

  // Publish with the constructor's reference, which belongs to the slot
  // pointer: it is released via EBR once the next attempt replaces it, so
  // it outlives this attempt and the executing thread needs none of its own.
  // Only this thread writes its slot while it runs transactions (detach is
  // serialized after them), so a load and a release store replace an
  // exchange; the release pairs with enemies' acquire in tx_of_slot.
  std::atomic<TxDesc*>& published = *current_tx_[tc.slot_];
  TxDesc* prev = published.load(std::memory_order_relaxed);
  published.store(desc, std::memory_order_release);
  if (prev != nullptr) tc.ebr_.retire(prev, &release_desc_ref);

  tc.current_ = desc;
  guard.armed = false;  // published: commit/abort cleanup owns the state now
  tc.waited_this_attempt_ = false;
  backend_->begin(tc);
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kBegin, desc->serial, is_retry ? 1 : 0);
    if (liveness_ != nullptr) {
      if (tc.pending_watchdog_flags_ != 0) {
        rec->record(tc.slot_, trace::EventKind::kWatchdog, desc->serial,
                    tc.pending_watchdog_flags_, trace::kNoEnemy, tc.consecutive_aborts_,
                    static_cast<std::uint64_t>(desc->begin_ns - first_begin));
      }
      if (level > 0) {
        rec->record(tc.slot_, trace::EventKind::kEscalate, desc->serial,
                    static_cast<std::uint8_t>(level), trace::kNoEnemy, tc.consecutive_aborts_);
      }
      if (tc.attempt_irrevocable_) {
        rec->record(tc.slot_, trace::EventKind::kSerialToken, desc->serial, 1);
      }
    }
  }
  tc.pending_watchdog_flags_ = 0;
  if (liveness_ != nullptr) {
    liveness_->note_attempt_begin(tc.slot_, desc->begin_ns, first_begin,
                                  tc.consecutive_aborts_);
  }
  manager_->on_begin(tc, *desc, is_retry);
  // After on_begin: the manager resets per-attempt priority state there
  // (WindowCM redraws pi2 and drops to low), so the boost must land last.
  if (level >= 2) manager_->on_boost(tc, *desc, level);
  return desc;
}

bool Runtime::finish_attempt_commit(ThreadCtx& tc) {
  if (sched_point(check::Point::kCommit) == check::Action::kInjectAbort) {
    injected_abort(tc);  // spurious abort at the commit boundary
  }
  const bool committed = backend_->commit(tc);
  cleanup_attempt(tc, committed);
  return committed;
}

bool Runtime::dstm_commit(ThreadCtx& tc) {
  TxDesc* desc = tc.current_;
  // Chaos: delayed commit (sleep between the decision and the status CAS —
  // the classic window for lost-update bugs) or a spurious late abort.
  if (chaos_ != nullptr) [[unlikely]] chaos_at_commit(tc);
  if (config_.bugs.blind_commit) [[unlikely]] {
    // SEEDED BUG: a plain store cannot detect a remote kill that landed
    // between the last open and here — the enemy already proceeded on our
    // old version, so "committing" anyway loses the update.
    desc->status.store(TxStatus::kCommitted, std::memory_order_seq_cst);
    hand_blind_commit_allocs(tc);
    // SEEDED BUG (park-lost-wakeup): drop the commit-path unpark edge.
    if (!config_.bugs.park_lost_wakeup) signal_status_change(&tc, desc);
    return true;
  }
  TxStatus expected = TxStatus::kActive;
  const bool committed = desc->status.compare_exchange_strong(
      expected, TxStatus::kCommitted, std::memory_order_seq_cst);
  // Commit is a status transition: waiters parked on this descriptor must
  // wake. The seeded park-lost-wakeup bug elides exactly this edge (the
  // abort-path edges stay), turning a missed commit notification into
  // bounded timeout stalls in real mode and a detected violation under the
  // checker. A lost CAS means a remote killer owns the transition — and the
  // unpark — instead.
  if (committed && !config_.bugs.park_lost_wakeup) [[likely]] {
    signal_status_change(&tc, desc);
  }
  // false: killed by an enemy between the last open and the commit point.
  return committed;
}

void Runtime::hand_blind_commit_allocs(ThreadCtx& tc) {
  // A lost update can orphan what this attempt made: the checker takes it,
  // to free what its structure no longer reaches.
  if (check::SchedulerHook* hook = config_.checker) {
    for (const auto& a : tc.allocs_) hook->on_blind_commit_alloc(a.ptr, a.deleter);
  }
}

void Runtime::finish_attempt_abort(ThreadCtx& tc) {
  sched_point(check::Point::kAbort);  // visibility only: directives ignored
  TxDesc* desc = tc.current_;
  // Demote before the kill, mirroring abort_self: a user exception escaping
  // the lambda of an irrevocable attempt lands here with the flag still
  // set, and try_abort refuses irrevocable descriptors — without the
  // demotion the status would stay kActive forever and enemies would wait
  // on the dead attempt indefinitely.
  demote_irrevocable(tc, desc);
  desc->try_abort();  // may already be aborted (remote kill or restart())
  signal_status_change(&tc, desc);
  cleanup_attempt(tc, /*committed=*/false);
}

void Runtime::demote_irrevocable(ThreadCtx& tc, TxDesc* desc) {
  if (liveness_ == nullptr || !desc->irrevocable.load(std::memory_order_relaxed)) return;
  desc->irrevocable.store(false, std::memory_order_release);
  liveness_->release_token(tc.slot_);
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kSerialToken, desc->serial, 0);
  }
}

void Runtime::cleanup_attempt(ThreadCtx& tc, bool committed) {
  TxDesc* desc = tc.current_;
  // Engine teardown first, while still pinned: DSTM clears reader stripes;
  // orec releases still-held commit locks and
  // drops unapplied redo-log clones.
  backend_->end(tc, committed);

  // Timed attempts only: one clock read serves elapsed-time and
  // response-time accounting (and the trace event, whose recorder makes
  // every attempt timed). Untimed attempts read no clock at all.
  const bool timed = desc->stamped();
  const std::int64_t end_ns = timed ? now_ns() : 0;
  const std::int64_t elapsed = timed ? end_ns - desc->begin_ns : 0;
  if (committed) {
    for (const auto& r : tc.commit_retires_) tc.ebr_.retire(r.ptr, r.deleter);
    tc.commit_retires_.clear();
    tc.allocs_.clear();  // ownership passed to the data structure
    tc.metrics_.commits++;
    tc.metrics_.committed_ns += elapsed;
    if (timed) {
      tc.metrics_.timed_commits++;
      tc.metrics_.response_ns += end_ns - desc->first_begin_ns;
    }
    if (trace::Recorder* rec = config_.recorder) {
      rec->record(tc.slot_, trace::EventKind::kCommit, desc->serial, 0, trace::kNoEnemy,
                  static_cast<std::uint64_t>(elapsed),
                  static_cast<std::uint64_t>(end_ns - desc->first_begin_ns));
    }
    manager_->on_commit(tc, *desc);
    // Chaos: EBR reclamation pressure — retire a burst of dummy blocks
    // while still pinned, stressing epoch advancement and the retire-chunk
    // machinery under concurrent load.
    if (chaos_ != nullptr) [[unlikely]] {
      if (const std::uint32_t burst = chaos_->ebr_pressure_due(tc.slot_)) {
        tc.metrics_.chaos_faults++;
        for (std::uint32_t i = 0; i < burst; ++i) {
          tc.ebr_.retire(::operator new(64), [](void* p) { ::operator delete(p); });
        }
        if (trace::Recorder* rec = config_.recorder) {
          rec->record(tc.slot_, trace::EventKind::kChaos, desc->serial,
                      static_cast<std::uint8_t>(resilience::ChaosInjector::Fault::kEbrPressure),
                      trace::kNoEnemy, burst);
        }
      }
    }
  } else {
    for (const auto& a : tc.allocs_) a.deleter(a.ptr);
    tc.allocs_.clear();
    tc.commit_retires_.clear();
    tc.metrics_.aborts++;
    tc.metrics_.wasted_ns += elapsed;
    if (trace::Recorder* rec = config_.recorder) {
      // The offline analyzer attributes the killer by joining the winner's
      // conflict events.
      rec->record(tc.slot_, trace::EventKind::kAbort, desc->serial,
                  tc.injected_abort_ ? 1 : 0, trace::kNoEnemy,
                  static_cast<std::uint64_t>(elapsed));
    }
    manager_->on_abort(tc, *desc);
  }
  if (tc.waited_this_attempt_) tc.metrics_.waits++;

  // Escalation bookkeeping for the logical transaction (cheap enough to
  // keep unconditional; only the liveness layer reads it).
  if (committed) {
    tc.consecutive_aborts_ = 0;
    tc.escalation_level_ = 0;
  } else {
    tc.consecutive_aborts_++;
  }
  if (liveness_ != nullptr) {
    // The commit path releases the serial-fallback token here; every abort
    // path (abort_self, finish_attempt_abort) already demoted before its
    // try_abort, for which demote_irrevocable is a no-op.
    demote_irrevocable(tc, desc);
    tc.attempt_irrevocable_ = false;
    liveness_->note_attempt_end(tc.slot_, committed);
  }

  tc.injected_abort_ = false;
  tc.current_ = nullptr;
  tc.ebr_.unpin();  // ends the attempt for shutdown()'s drain as well
}

void Runtime::wait_for_reclaim(ThreadCtx& tc) {
  // The deterministic checker runs one virtual thread at a time: the thread
  // holding the epoch back cannot move while this one waits.
  if (config_.checker != nullptr) return;
  tc.metrics_.reclaim_waits++;
  const std::int64_t deadline = now_ns() + kReclaimWaitNs;
  while (tc.ebr_.reclaim() > kMaxPendingRetires && now_ns() < deadline) {
    std::this_thread::yield();
  }
}

void Runtime::maybe_emulate_preemption(ThreadCtx& tc) {
  const std::uint32_t permille = config_.preempt_yield_permille;
  if (permille != 0 && tc.rng_.below(1000) < permille) std::this_thread::yield();
}

void Runtime::note_conflict(ThreadCtx& tc, const TxDesc& enemy) {
  if (tc.last_enemy_slot_ == enemy.thread_slot && tc.last_enemy_serial_ == enemy.serial) {
    tc.metrics_.repeat_conflicts++;
  } else {
    tc.last_enemy_slot_ = enemy.thread_slot;
    tc.last_enemy_serial_ = enemy.serial;
  }
}

void Runtime::trace_conflict(ThreadCtx& tc, const TxDesc& enemy, ConflictKind kind,
                             Resolution res) {
  trace::Recorder* rec = config_.recorder;
  if (rec == nullptr) return;
  const std::uint64_t serial = tc.current_->serial;
  rec->record(tc.slot_, trace::EventKind::kConflict, serial, trace::pack_conflict(kind, res),
              enemy.thread_slot, enemy.serial);
  if (res == Resolution::kRetry) {
    rec->record(tc.slot_, trace::EventKind::kWait, serial, 0, enemy.thread_slot, enemy.serial);
  }
}

void Runtime::ensure_alive(ThreadCtx& tc) {
  if (!tc.current_->is_active()) throw TxAbort{};
}

void Runtime::abort_self(ThreadCtx& tc) {
  TxDesc* desc = tc.current_;
  // Irrevocability means "enemies cannot kill us", not "we cannot fail
  // ourselves" (orec read-set validation, restart(), injected faults).
  // Demote first so try_abort goes through and the token frees up.
  demote_irrevocable(tc, desc);
  desc->try_abort();
  signal_status_change(&tc, desc);
  throw TxAbort{};
}

Resolution Runtime::arbitrate(ThreadCtx& tc, TxDesc& me, TxDesc& enemy, ConflictKind kind) {
  if (liveness_ == nullptr) [[likely]] {
    return manager_->resolve(tc, me, enemy, kind);
  }
  // Serial fallback short-circuits every manager policy: the token holder
  // cannot lose a conflict, and everyone else waits for it. `me` reads its
  // own flag (owner-written), `enemy` needs acquire.
  if (me.irrevocable.load(std::memory_order_relaxed)) return Resolution::kAbortEnemy;
  // The hard deadline is also enforced here: conflict loops (a Greedy-style
  // kRetry spin, or parking behind the token holder) are the one place an
  // attempt can wait unboundedly without reaching begin_attempt again.
  const resilience::LivenessConfig& lc = liveness_->config();
  if (lc.deadline_ns > 0) {
    const std::int64_t age = now_ns() - me.first_begin_ns;
    if (age > lc.deadline_ns) {
      const std::uint32_t aborts = tc.consecutive_aborts_;
      tc.metrics_.timeouts++;
      tc.consecutive_aborts_ = 0;
      tc.escalation_level_ = 0;
      // Unwinds through atomically()'s catch(...): finish_attempt_abort
      // cleans the attempt, then the error reaches the caller.
      throw resilience::TxTimeoutError(tc.slot_, aborts, age);
    }
  }
  if (enemy.irrevocable.load(std::memory_order_acquire)) {
    // Waiting out the serial-token holder. In wait mode the holder's commit
    // fires this descriptor's unpark edge, so park instead of burning the
    // scheduler; the 100µs slice only bounds a missed edge.
    if (!park_until_inactive(tc, me, enemy, 100'000)) yield_safe();
    return Resolution::kRetry;  // the caller's loop re-examines the enemy
  }
  return manager_->resolve_with_boost(tc, me, enemy, kind);
}

bool Runtime::park_until_inactive(ThreadCtx& tc, const TxDesc& me, const TxDesc& enemy,
                                  std::int64_t max_wait_ns) noexcept {
  if (config_.arbitration != ArbitrationMode::kWait) [[likely]] return false;
  // Serial-token holders never park: the token's contract is that the
  // attempt runs to completion, and everyone else waits for *it*.
  if (tc.attempt_irrevocable_) return false;
  if (max_wait_ns <= 0 || &me == &enemy) return false;
  const unsigned enemy_slot = enemy.thread_slot;
  if (enemy_slot >= kMaxThreads) return false;
  // Deadlock freedom by refusal: if the enemy's park chain already reaches
  // back to this slot, parking would close a waiter cycle — fall back to
  // the caller's abort/yield path instead. The walk follows thread slots
  // only (never descriptor pointers, whose pool storage may be recycled);
  // slot reuse can at worst refuse a safe park, never admit a cycle.
  if (park_would_cycle(tc.slot_, enemy_slot)) return false;

  if (config_.checker != nullptr) {
    // Checker mode: the park is a schedule point. The executor marks this
    // virtual thread blocked at kPark arrival and keeps it ineligible until
    // the enemy's kUnpark edge (or a deadlock-oracle force-wake) clears it.
    // Spurious-wakeup semantics as in real mode: the caller re-checks.
    if (enemy.status.load(std::memory_order_acquire) != TxStatus::kActive) return true;
    parked_on_[tc.slot_]->store(static_cast<int>(enemy_slot), std::memory_order_seq_cst);
    check::ParkEdge edge{&me, &enemy};
    sched_point(check::Point::kPark, &edge);
    parked_on_[tc.slot_]->store(-1, std::memory_order_release);
    tc.metrics_.parks++;
    return true;
  }

  // Bound the slice by the liveness deadline: a parked transaction must
  // still reach its TxTimeoutError, so never sleep past the attempt's
  // remaining budget.
  std::int64_t slice = max_wait_ns;
  std::int64_t t0 = 0;
  if (liveness_ != nullptr) {
    const std::int64_t deadline_ns = liveness_->config().deadline_ns;
    if (deadline_ns > 0) {
      t0 = now_ns();
      const std::int64_t remaining = me.first_begin_ns + deadline_ns - t0;
      if (remaining <= 0) return false;  // arbitrate()'s deadline check fires
      slice = std::min(slice, remaining);
    }
  }
  if (t0 == 0) t0 = now_ns();
  // seq_cst publish before the wait: two threads parking on each other both
  // publish before they walk (inside park_would_cycle on the next attempt)
  // — at least one of any forming cycle observes the other and refuses.
  parked_on_[tc.slot_]->store(static_cast<int>(enemy_slot), std::memory_order_seq_cst);
  if (liveness_ != nullptr) liveness_->set_parked(tc.slot_, true);
  const ParkingLot::ParkResult r = parking_lot_.park(enemy, slice);
  const std::int64_t woke = now_ns();
  if (liveness_ != nullptr) {
    liveness_->set_parked(tc.slot_, false);
    liveness_->heartbeat(tc.slot_, woke);  // waking *is* progress
  }
  parked_on_[tc.slot_]->store(-1, std::memory_order_release);
  tc.metrics_.parks++;
  tc.metrics_.park_ns += static_cast<std::uint64_t>(woke - t0);
  if (r.spurious) tc.metrics_.spurious_wakeups++;
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kPark, me.serial, r.spurious ? 1 : 0,
                enemy_slot, static_cast<std::uint64_t>(woke - t0), enemy.serial);
  }
  return true;
}

void Runtime::signal_status_change(ThreadCtx* tc, const TxDesc* desc) noexcept {
  if (config_.arbitration != ArbitrationMode::kWait) [[likely]] return;
  if (desc == nullptr) return;
  if (config_.checker != nullptr) {
    // The unpark edge is a schedule point: the executor wakes every virtual
    // thread blocked on `desc` at arrival. Watchdog/shutdown callers pass a
    // null tc and never run under the checker, so sched_point's thread-local
    // vid is always valid here.
    sched_point(check::Point::kUnpark, desc);
    return;
  }
  const unsigned woken = parking_lot_.unpark_all(desc);
  if (woken == 0 || tc == nullptr) return;
  tc->metrics_.unparks += woken;
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc->slot_, trace::EventKind::kUnpark, desc->serial, 0, desc->thread_slot,
                woken);
  }
}

bool Runtime::park_would_cycle(unsigned waiter_slot, unsigned enemy_slot) const noexcept {
  unsigned cur = enemy_slot;
  for (unsigned hops = 0; hops < kMaxThreads; ++hops) {
    if (cur == waiter_slot) return true;
    const int next = parked_on_[cur]->load(std::memory_order_seq_cst);
    if (next < 0 || static_cast<unsigned>(next) >= kMaxThreads) return false;
    cur = static_cast<unsigned>(next);
  }
  return true;  // chain longer than the thread count: refuse conservatively
}

void Runtime::chaos_at_open(ThreadCtx& tc) {
  const auto inj = chaos_->at_open(tc.rng_);
  if (inj.fault == resilience::ChaosInjector::Fault::kNone) return;
  tc.metrics_.chaos_faults++;
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kChaos, tc.current_->serial,
                static_cast<std::uint8_t>(inj.fault), trace::kNoEnemy, inj.slept_us);
  }
  // The serial-fallback holder is exempt from spurious aborts: the token's
  // contract is that the attempt runs to completion.
  if (inj.fault == resilience::ChaosInjector::Fault::kSpuriousAbort &&
      !tc.current_->irrevocable.load(std::memory_order_relaxed)) {
    abort_self(tc);
  }
}

void Runtime::chaos_at_commit(ThreadCtx& tc) {
  const auto inj = chaos_->at_commit(tc.rng_, tc.attempt_irrevocable_);
  if (inj.fault == resilience::ChaosInjector::Fault::kNone) return;
  tc.metrics_.chaos_faults++;
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kChaos, tc.current_->serial,
                static_cast<std::uint8_t>(inj.fault), trace::kNoEnemy, inj.slept_us);
  }
  if (inj.fault == resilience::ChaosInjector::Fault::kSpuriousAbort) {
    abort_self(tc);  // same unwinding as a failed commit-time validation
  }
}

void Runtime::injected_abort(ThreadCtx& tc) {
  tc.injected_abort_ = true;
  tc.metrics_.injected_aborts++;
  abort_self(tc);
}

void Runtime::open_prologue(ThreadCtx& tc) {
  maybe_emulate_preemption(tc);
  // One clock read per open, taken only when the watchdog consumes it —
  // the same one-read discipline cleanup_attempt uses; configurations
  // without the liveness layer never pay for now_ns() here.
  if (liveness_ != nullptr) liveness_->heartbeat(tc.slot_, now_ns());
  if (chaos_ != nullptr) [[unlikely]] chaos_at_open(tc);
}

const void* Runtime::dstm_open_read(ThreadCtx& tc, TObjectBase& obj) {
  TxDesc* me = tc.current_;

  // Announce visibility first (flag protocol: the stripe bit-set must
  // precede the locator load so an acquiring writer either sees our bit in
  // its stripe scan or we see its locator — both orders get the conflict
  // resolved). The first visible read of the object installs its record.
  ReaderStripes& readers = obj.reader_record(tc.pool_);
  if (!readers.announced(tc.slot_)) {
    readers.announce(tc.slot_);
    tc.read_set_.push_back(&obj);
  }

  for (;;) {
    if (sched_point(check::Point::kRead, &obj) == check::Action::kInjectAbort) {
      injected_abort(tc);
    }
    ensure_alive(tc);
    Locator* l = obj.loc_.load(std::memory_order_seq_cst);
    TxDesc* owner = l->owner;
    const TxStatus st =
        owner == nullptr || owner == me ? TxStatus::kCommitted
                                        : owner->status.load(std::memory_order_acquire);
    if (st != TxStatus::kActive) {
      // Re-check our own status after the load: a writer that committed the
      // version we are about to return and conflicts with an earlier read of
      // ours killed us before its commit CAS, so the kill is visible here.
      // Without this a killed reader would run on a mix of old and new
      // versions (e.g. erase a key its bucket no longer holds).
      ensure_alive(tc);
      manager_->on_open(tc, *me);
      return st == TxStatus::kAborted ? l->old_version : l->new_version;
    }
    // Active enemy writer.
    tc.metrics_.rw_conflicts++;
    note_conflict(tc, *owner);
    const Resolution res = arbitrate(tc, *me, *owner, ConflictKind::kReadWrite);
    trace_conflict(tc, *owner, ConflictKind::kReadWrite, res);
    if (res == Resolution::kAbortEnemy) {
      // Loop re-reads; even if the enemy committed we proceed. The kill is
      // a status transition, so fire its unpark edge.
      if (owner->try_abort()) signal_status_change(&tc, owner);
    } else if (res == Resolution::kAbortSelf) {
      abort_self(tc);
    } else {
      tc.waited_this_attempt_ = true;  // kRetry after an internal wait
    }
  }
}

void* Runtime::dstm_open_write(ThreadCtx& tc, TObjectBase& obj) {
  TxDesc* me = tc.current_;

  for (;;) {
    if (sched_point(check::Point::kWrite, &obj) == check::Action::kInjectAbort) {
      injected_abort(tc);
    }
    ensure_alive(tc);
    Locator* l = obj.loc_.load(std::memory_order_seq_cst);
    TxDesc* owner = l->owner;
    if (owner == me) {
      manager_->on_open(tc, *me);
      return l->new_version;  // already acquired in this attempt
    }

    void* current = nullptr;
    void* dead = nullptr;
    if (owner == nullptr) {
      current = l->new_version;
    } else {
      const TxStatus st = owner->status.load(std::memory_order_acquire);
      if (st == TxStatus::kCommitted) {
        current = l->new_version;
        dead = l->old_version;
      } else if (st == TxStatus::kAborted) {
        current = l->old_version;
        dead = l->new_version;
      } else {
        tc.metrics_.ww_conflicts++;
        note_conflict(tc, *owner);
        const Resolution res = arbitrate(tc, *me, *owner, ConflictKind::kWriteWrite);
        trace_conflict(tc, *owner, ConflictKind::kWriteWrite, res);
        if (res == Resolution::kAbortEnemy) {
          if (owner->try_abort()) signal_status_change(&tc, owner);
        } else if (res == Resolution::kAbortSelf) {
          abort_self(tc);
        } else {
          tc.waited_this_attempt_ = true;
        }
        continue;
      }
    }

    void* clone = obj.make_clone(tc.pool_, current);
    auto* fresh = new (util::Pool::allocate(tc.pool_, sizeof(Locator)))
        Locator{me, current, clone, nullptr, obj.destroy_};
    me->add_ref();
    // SEEDED BUG (stale_reader_record): the reader record read before the
    // acquiring CAS misses every reader that announces, or installs the
    // record, between this sample and the CAS.
    const ReaderStripes* const early_readers =
        config_.bugs.stale_reader_record
            ? copy_of_readers(obj.readers_.load(std::memory_order_seq_cst))
            : nullptr;
    const check::Action cas_act = sched_point(check::Point::kCas, &obj);
    if (cas_act == check::Action::kInjectAbort) {
      obj.destroy_(fresh->new_version);
      util::Pool::deallocate(fresh);
      me->release();
      injected_abort(tc);
    }
    if (cas_act != check::Action::kFailCas &&
        obj.loc_.compare_exchange_strong(l, fresh, std::memory_order_seq_cst)) {
      // `l` is now unreachable for new opens; readers pinned in EBR may
      // still hold it, so retire rather than free. The losing version dies
      // with it.
      l->dead_version = dead;
      tc.ebr_.retire(l, &Locator::reclaim);
      // Ghost oracle input (checker builds only, under the schedule token,
      // so the CAS instant is this step): the readers announced now.
      std::vector<const TxDesc*> announced;
      if (config_.checker != nullptr) announced = announced_readers(tc, obj);
      // SEEDED BUG (skip_reader_abort): acquiring without resolving the
      // visible readers leaves them on snapshots this write supersedes.
      if (!config_.bugs.skip_reader_abort) {
        // The record pointer is loaded after the CAS (DESIGN.md §11.2).
        resolve_readers(tc, obj,
                        config_.bugs.stale_reader_record
                            ? early_readers
                            : obj.readers_.load(std::memory_order_seq_cst));
      }
      // The clone's base is a fresh observation: re-check our own status
      // for the same reason as in dstm_open_read.
      ensure_alive(tc);
      // Every reader announced at the CAS must be resolved by now (aborted,
      // or finished before we could abort it); one still running may hold
      // a version this write supersedes.
      for (const TxDesc* r : announced) {
        if (r->is_active()) {
          config_.checker->on_opacity_violation(
              "a writer acquired an object and left a reader announced before its CAS "
              "unresolved");
          break;
        }
      }
      manager_->on_open(tc, *me);
      return fresh->new_version;
    }
    // Lost the install race; roll back the speculative locator.
    obj.destroy_(fresh->new_version);
    util::Pool::deallocate(fresh);
    me->release();
  }
}

std::vector<const TxDesc*> Runtime::announced_readers(ThreadCtx& tc, const TObjectBase& obj) {
  std::vector<const TxDesc*> out;
  const ReaderStripes* readers = obj.readers_.load(std::memory_order_seq_cst);
  if (readers == nullptr) return out;
  for (unsigned slot = 0; slot < ReaderStripes::kCapacity; ++slot) {
    if (slot == tc.slot_ || !readers->announced(slot)) continue;
    if (const TxDesc* d = tx_of_slot(slot)) out.push_back(d);
  }
  return out;
}

void Runtime::resolve_readers(ThreadCtx& tc, TObjectBase& obj, const ReaderStripes* readers) {
  // No record when the pointer was loaded after our locator CAS: every
  // later install, and so every reader, sees our locator instead.
  if (readers == nullptr) return;
  TxDesc* me = tc.current_;
  // Scan all stripes of the acquire-time reader snapshot (the flag
  // protocol's seq_cst pairing is per stripe word; a reader announcing
  // after its stripe was scanned sees our installed locator instead).
  for (unsigned stripe = 0; stripe < ReaderStripes::kStripes; ++stripe) {
    std::uint64_t bits = readers->load_stripe(stripe, std::memory_order_seq_cst);
    if (stripe == ReaderStripes::stripe_of(tc.slot_)) {
      bits &= ~ReaderStripes::bit_of(tc.slot_);
    }
    while (bits != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const unsigned slot = ReaderStripes::slot_at(stripe, bit);
      for (;;) {
        if (sched_point(check::Point::kReaderResolve, &obj) ==
            check::Action::kInjectAbort) {
          injected_abort(tc);
        }
        ensure_alive(tc);
        TxDesc* enemy = tx_of_slot(slot);
        if (enemy == nullptr || enemy == me || !enemy->is_active()) break;
        tc.metrics_.wr_conflicts++;
        note_conflict(tc, *enemy);
        const Resolution res = arbitrate(tc, *me, *enemy, ConflictKind::kWriteRead);
        trace_conflict(tc, *enemy, ConflictKind::kWriteRead, res);
        if (res == Resolution::kAbortEnemy) {
          if (enemy->try_abort()) signal_status_change(&tc, enemy);
          break;
        }
        if (res == Resolution::kAbortSelf) abort_self(tc);
        tc.waited_this_attempt_ = true;  // kRetry: re-examine this reader
      }
    }
  }
}

ThreadMetrics Runtime::total_metrics() const {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  ThreadMetrics total;
  for (const auto& t : threads_) {
    if (t) total += t->metrics_;
  }
  return total;
}

void Runtime::reset_metrics() {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  for (const auto& t : threads_) {
    if (t) t->metrics_.reset();
  }
}

}  // namespace wstm::stm
