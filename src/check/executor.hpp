// Serialized cooperative executor: the SchedulerHook implementation.
//
// All worker threads funnel through one token. A worker arriving at a
// schedule point parks (mutex + condvar); the executor asks its Policy which
// parked thread runs next, logs the decision, advances the virtual clock by
// one tick, and wakes exactly that thread with the chosen Action. Between
// two schedule points exactly one worker executes, so the decision log fully
// determines the interleaving — that is what makes replay bit-identical.
//
// Threads that never registered (the main/populate thread, or any thread of
// a Runtime without this hook installed) pass straight through: on_point
// keys off a thread_local vid that defaults to "not a virtual thread".
//
// Budget exhaustion: after max_steps decisions the executor flips to
// free-run — every parked thread is released and all further points return
// kProceed without parking — so a schedule that reaches a livelock-prone
// region still terminates (nondeterministically, but the run is then
// reported as over-budget, never as a verdict).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "check/policy.hpp"
#include "check/schedule.hpp"

namespace wstm::check {

class VirtualExecutor final : public SchedulerHook {
 public:
  /// The executor installs the virtual clock (util/timing.hpp) on
  /// construction and removes it on destruction; at most one may exist at a
  /// time per process.
  VirtualExecutor(unsigned num_threads, Policy& policy, std::uint64_t max_steps,
                  std::int64_t tick_ns);
  ~VirtualExecutor() override;

  VirtualExecutor(const VirtualExecutor&) = delete;
  VirtualExecutor& operator=(const VirtualExecutor&) = delete;

  /// Worker-side: adopt virtual thread id `vid` (0-based, unique). Blocks
  /// until all num_threads workers have registered and the policy grants
  /// this one its first quantum. On return the caller holds the token; its
  /// first actions (Runtime::attach_thread, etc.) run in schedule order.
  void register_thread(int vid);

  /// Worker-side: this virtual thread finished its ops. Releases the token
  /// permanently; the calling OS thread reverts to pass-through.
  void thread_done();

  /// Runtime-side (via RuntimeConfig::checker): park, wait for a grant,
  /// return the granted action.
  Action on_point(Point p, const void* object) noexcept override;

  /// Runtime-side: ghost opacity oracle report (token held — see hooks.hpp).
  void on_opacity_violation(const char* what) noexcept override;

  const std::vector<Decision>& log() const noexcept { return log_; }
  std::uint64_t steps() const noexcept { return step_; }
  /// True once the step budget forced free-running (run verdicts are void).
  bool over_budget() const noexcept { return free_run_.load(std::memory_order_relaxed); }

  /// Ghost opacity-oracle reports collected this run (see the
  /// on_opacity_violation callers in Runtime::dstm_open_write and the orec
  /// engine); nonzero means the run observed a torn snapshot even if the
  /// committed history still linearizes. Read after workers have joined.
  std::uint64_t opacity_violations() const noexcept {
    return opacity_violations_.load(std::memory_order_acquire);
  }
  /// Diagnostic string of the first report (static storage), or null.
  const char* first_opacity_violation() const noexcept {
    return first_opacity_what_.load(std::memory_order_acquire);
  }

  /// Requester-waits oracle: number of times every runnable thread was
  /// parked on a descriptor with no unpark edge left to fire — a lost
  /// wakeup or a park cycle, either way a deadlock-freedom violation. The
  /// executor force-wakes all parked threads when it fires (deterministic
  /// under replay: the wake happens at the same decision index), so the run
  /// still terminates and can be shrunk. Read after workers have joined.
  std::uint64_t park_deadlocks() const noexcept {
    return park_deadlocks_.load(std::memory_order_acquire);
  }

 private:
  enum class State : std::uint8_t { kUnregistered, kWaiting, kRunning, kDone };

  /// Picks and wakes the next thread. Requires mu_ held. No-op when no
  /// thread is waiting (the last runnable worker just finished).
  void grant_next_locked();
  void enter_free_run_locked();

  const unsigned num_threads_;
  Policy& policy_;
  const std::uint64_t max_steps_;
  const std::int64_t tick_ns_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<State> state_;
  std::vector<Point> parked_;         // valid while kWaiting
  std::vector<Action> granted_;       // action handed to the last grantee
  std::vector<std::uint64_t> stalled_until_;  // step before which vid is ineligible
  /// Requester-waits model: enemy TxDesc a vid is parked on (set at kPark
  /// arrival, cleared when a kUnpark for that descriptor arrives or the
  /// deadlock oracle force-wakes). Non-null ⇒ ineligible.
  std::vector<const void*> blocked_on_;
  unsigned registered_ = 0;
  int running_ = -1;
  std::uint64_t step_ = 0;
  std::vector<Decision> log_;
  std::atomic<bool> free_run_{false};
  std::atomic<std::int64_t> vnow_;
  // Atomic despite the token: reports can also arrive while free-running
  // (over budget), where no token serializes the callers.
  std::atomic<std::uint64_t> opacity_violations_{0};
  std::atomic<const char*> first_opacity_what_{nullptr};
  std::atomic<std::uint64_t> park_deadlocks_{0};
};

}  // namespace wstm::check
