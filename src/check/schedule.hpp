// Schedules: the serializable record of one deterministic checker run.
//
// A schedule is (a) the full CheckConfig — workload shape, contention
// manager, read mode, seeds, fault probabilities, seeded bug — and (b) the
// decision log: for every scheduling step, which virtual thread was granted
// the token, at which protocol point it was parked, and which action it was
// told to take as it resumed. Because the executor serializes all workers
// and virtualizes the clock, (a) + (b) reproduce a run bit-identically:
// replaying the decision list yields the same transaction interleaving, the
// same history, and the same violations (see checker.hpp).
//
// The on-disk format is a compact line-oriented text file (schedules are a
// few KB; diffable repros beat opaque blobs):
//
//     wstm-schedule v1
//     # one "key value" config line per field
//     structure list
//     ...
//     g <vid> <point-letter> <action-letter>     # one line per decision
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/hooks.hpp"

namespace wstm::check {

/// One scheduling decision (see file comment).
struct Decision {
  std::uint16_t vid = 0;
  Point point = Point::kThreadStart;
  Action action = Action::kProceed;

  bool operator==(const Decision&) const = default;
};

/// Fault-injection probabilities, consulted by the exploration policies at
/// every grant. All default to 0 (pure schedule exploration).
struct FaultOptions {
  /// Spurious-abort probability at read/write/CAS/commit points.
  double p_abort = 0.0;
  /// Forced Locator-CAS failure probability at CAS points.
  double p_fail_cas = 0.0;
  /// Stalled-commit probability: park the thread at its commit point for
  /// `stall_steps` scheduling decisions while others run.
  double p_stall = 0.0;
  /// Stall probability at ANY protocol point (read/write/CAS/commit/begin),
  /// modelling a thread preempted mid-transaction rather than only at
  /// commit. Exercises the liveness layer's stall detection.
  double p_stall_any = 0.0;
  std::uint32_t stall_steps = 24;

  bool any() const noexcept {
    return p_abort > 0 || p_fail_cas > 0 || p_stall > 0 || p_stall_any > 0;
  }
};

/// Everything needed to rebuild a checker run from scratch. Serialized into
/// the schedule file so `wstm-check replay file` needs no other flags.
struct CheckConfig {
  std::string structure = "list";  // list | rbtree | skiplist | hashtable
  std::string cm = "Adaptive";
  unsigned threads = 3;
  unsigned ops_per_thread = 24;
  /// Keys are drawn from [0, key_range); must be <= 64 so the oracle can
  /// memoize set states as one 64-bit mask.
  long key_range = 16;
  bool prefill = true;
  /// Op mix: "default" = insert/remove/contains/move/pair-read,
  /// "insert-heavy" = insert/contains/pair-read only (no node retirement —
  /// used with memory-unsafe seeded bugs like blind-commit).
  std::string op_mix = "default";
  std::uint32_t update_percent = 50;
  /// Percent of ops that are composite (atomic move / pair-read, half
  /// each). Composite ops are what turn stale snapshots into oracle-visible
  /// atomicity violations.
  std::uint32_t pair_percent = 30;
  std::uint64_t seed = 42;  // workload op streams + runtime RNGs
  std::string strategy = "random";  // random | pct (replay ignores it)
  std::uint32_t pct_depth = 3;
  std::uint64_t max_steps = 0;  // scheduling-step budget; 0 = auto
  std::int64_t tick_ns = 1000;  // virtual-clock advance per decision
  std::uint32_t window_n = 8;   // small windows so variants roll over in-run
  /// Execution engine under test: dstm | orec (stm::RuntimeConfig::backend).
  /// Absent from pre-backend schedule files, which default here.
  std::string backend = "dstm";
  /// Conflict-arbitration mode: abort | wait (stm::RuntimeConfig::
  /// arbitration). Wait mode adds kPark/kUnpark schedule points, so a repro
  /// must replay with the same mode. Absent from pre-parking schedule
  /// files, which default here.
  std::string arbitration = "abort";
  /// Arm the resilience liveness layer (escalation ladder + irrevocable
  /// serial-fallback token) with checker-friendly settings: tight
  /// escalation thresholds, no real-time backoff sleeps, no watchdog
  /// thread, no deadline. Used to verify the single-token invariant under
  /// schedule exploration.
  bool liveness = false;
  FaultOptions faults;
  /// Seeded protocol bug to arm (stm::RuntimeConfig::DebugFaults):
  /// none | blind-commit | skip-reader-abort | skip-read-validation (orec
  /// backend) | park-lost-wakeup | stale-reader-record.
  std::string bug = "none";

  std::uint64_t effective_max_steps() const noexcept {
    if (max_steps > 0) return max_steps;
    return 5000 + static_cast<std::uint64_t>(threads) * ops_per_thread * 600;
  }
  /// PCT's a-priori estimate of the run length (k in the PCT paper).
  std::uint64_t estimated_steps() const noexcept {
    const std::uint64_t est = static_cast<std::uint64_t>(threads) * ops_per_thread * 48;
    return est < 1000 ? 1000 : est;
  }
};

struct Schedule {
  CheckConfig config;
  std::vector<Decision> decisions;

  std::size_t context_switches() const noexcept;
  std::size_t injected_faults() const noexcept;
};

std::string to_text(const Schedule& schedule);
/// Throws std::runtime_error on malformed input.
Schedule schedule_from_text(const std::string& text);

/// Returns false on I/O failure.
bool save_schedule(const std::string& path, const Schedule& schedule);
/// Throws std::runtime_error on I/O failure or malformed content.
Schedule load_schedule(const std::string& path);

}  // namespace wstm::check
