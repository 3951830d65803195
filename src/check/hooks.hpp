// Schedule-point hook: the one interface the STM core knows about the
// deterministic concurrency checker.
//
// The Runtime holds a `SchedulerHook*` that is null in normal operation —
// the same presence-toggle idiom as trace::Recorder — so every
// instrumentation site costs one predictable null branch when no checker is
// installed. With a hook installed (src/check/executor.hpp), each call
// blocks the calling thread until the checker's strategy grants it the
// right to run, serializing all workers through these points; the returned
// Action additionally lets the checker inject protocol faults at the exact
// boundary the point names.
//
// This header is included by stm/runtime.hpp and must stay dependency-free
// (plain enums + an abstract class).
#pragma once

#include <cstdint>

namespace wstm::check {

/// Where in the transaction protocol a schedule point sits. Every
/// potentially unbounded loop in the runtime contains a point, so a
/// serialized executor always regains control (a spinning transaction
/// cannot hold the token forever).
enum class Point : std::uint8_t {
  kThreadStart = 0,  // worker registered, before its first transaction
  kBegin,            // top of begin_attempt
  kRead,             // each iteration of the open_read loop (both modes)
  kWrite,            // each iteration of the open_write loop
  kCas,              // immediately before the Locator install CAS
  kCommit,           // top of finish_attempt_commit, before the status CAS
  kAbort,            // top of finish_attempt_abort
  kReaderResolve,    // each iteration of the visible-reader resolve loop
  kOrecLock,         // orec backend: each commit-time lock-acquire iteration
  kOrecValidate,     // orec backend: each read-set validation entry check
  kPark,             // requester-waits arbitration: a transaction parks on an
                     // enemy descriptor (object = ParkEdge). The executor
                     // marks the thread blocked-on-enemy; it becomes
                     // ineligible until a matching kUnpark (or the
                     // lost-wakeup oracle force-wakes it).
  kUnpark,           // a status transition fired the unpark edge for a
                     // descriptor (object = the TxDesc whose waiters wake)
};

inline constexpr unsigned kNumPoints = 12;

const char* point_name(Point p) noexcept;

/// Payload handed to on_point at kPark: which descriptor is about to wait on
/// which enemy. Pointers are valid for the duration of the call only (the
/// caller holds an EBR pin / owns `self`).
struct ParkEdge {
  const void* self = nullptr;   ///< parking TxDesc
  const void* enemy = nullptr;  ///< descriptor whose completion wakes it
};

/// What the checker tells the arriving thread to do as it resumes.
enum class Action : std::uint8_t {
  kProceed = 0,
  /// Abort the current attempt as if an enemy had killed it (spurious
  /// abort). Honored at kRead/kWrite/kCas/kCommit; ignored elsewhere.
  kInjectAbort,
  /// Take the CAS-failure path without performing the CAS (a lost install
  /// race that never happened). Honored only at kCas.
  kFailCas,
};

class SchedulerHook {
 public:
  virtual ~SchedulerHook() = default;

  /// Called by the runtime at every schedule point. May block (the
  /// serialized executor parks the thread until granted); returns the
  /// action the thread must take as it resumes. Threads the hook does not
  /// know about (e.g. the main thread populating a structure) pass through
  /// with kProceed.
  virtual Action on_point(Point p, const void* object) noexcept = 0;

  /// Called by the runtime's checker-gated ghost checks (opacity oracle)
  /// when a just-returned read is no longer the current committed version,
  /// a writer left an announced reader unresolved, or an orec commit
  /// skipped a validation that would have failed. Only invoked while the
  /// caller holds the schedule token, so implementations need no extra
  /// synchronization.
  /// Default no-op keeps existing hooks source-compatible. `what` is a
  /// static diagnostic string.
  virtual void on_opacity_violation(const char* what) noexcept { (void)what; }
};

}  // namespace wstm::check
