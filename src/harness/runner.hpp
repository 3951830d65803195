// The experiment runner: executes a workload on M worker threads under a
// chosen contention manager and reports the paper's metrics.
//
// Two stop conditions cover all figures:
//  * timed run (`duration_ms`)           — Figs. 2, 3, 4 (throughput,
//    aborts/commit over a fixed wall-clock interval);
//  * fixed commit count (`fixed_commits`) — Fig. 5 (total time to commit
//    20 000 transactions).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cm/registry.hpp"
#include "harness/workload.hpp"
#include "resilience/chaos.hpp"
#include "resilience/liveness.hpp"
#include "stm/metrics.hpp"

namespace wstm::harness {

struct RunConfig {
  std::uint32_t threads = 4;  // M
  std::int64_t duration_ms = 1000;
  /// When > 0, ignore duration and run until this many transactions
  /// committed across all threads.
  std::uint64_t fixed_commits = 0;
  std::uint64_t seed = 42;
  bool pin_threads = true;
  /// Validate the workload after the run (strongly recommended; adds a
  /// quiescent pass over the structure).
  bool validate = true;
  /// Preemption emulation (see stm::RuntimeConfig::preempt_yield_permille).
  /// -1 = auto: 25 permille when the host has fewer hardware threads than
  /// `threads`, otherwise 0.
  std::int32_t preempt_permille = -1;
  /// Execution engine: "dstm" (eager locator protocol) or "orec" (lazy
  /// TL2-style redo logging). Parsed with stm::parse_backend; the CM layer
  /// is identical on both. See DESIGN.md §12.
  std::string backend = "dstm";
  /// Conflict arbitration: "abort" (losers retry immediately, the paper's
  /// baseline) or "wait" (requester-waits: losers park on the winner's
  /// descriptor until its status transition). Parsed with
  /// stm::parse_arbitration. See DESIGN.md §13.
  std::string arbitration = "abort";
  /// When non-empty, record transaction events during the measured interval
  /// and write them here after the run: Chrome trace_event JSON if the path
  /// ends in ".json", the compact binary format otherwise (read it back
  /// with trace::read_binary or the wstm-trace CLI).
  std::string trace_path;
  /// Ring capacity per thread (rounded up to a power of two); when the ring
  /// overflows the oldest events are dropped.
  std::size_t trace_events_per_thread = std::size_t{1} << 16;
  /// Liveness layer (watchdog + escalation ladder + serial fallback); off
  /// by default, enabled by the --watchdog flag. See resilience/liveness.hpp.
  resilience::LivenessConfig liveness;
  /// Live fault injection; off by default, enabled by --chaos. See
  /// resilience/chaos.hpp.
  resilience::ChaosConfig chaos;
};

struct RunResult {
  stm::MetricsSummary summary;
  stm::ThreadMetrics totals;
  std::int64_t elapsed_ns = 0;
  /// Per-operation latency percentiles from a bounded-memory reservoir
  /// (util::LatencyReservoir): closed loop samples run_one wall time,
  /// open loop samples submit-to-completion sojourn. 0 without samples.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  /// Operations offered to the reservoir (not just the ones retained).
  std::uint64_t latency_count = 0;
  bool valid = true;
  std::string why;
  /// One entry per worker thread that died on an exception (formatted
  /// "thread N: what"). Non-empty implies !valid.
  std::vector<std::string> thread_errors;
  /// Snapshot of the liveness manager's counters (token acquisitions,
  /// watchdog detections); all zero when the liveness layer was off.
  resilience::LivenessManager::Stats liveness_stats;
};

/// Builds a fresh Runtime with `cm_name` (threads taken from `run`),
/// populates `workload`, runs it, validates, and returns the metrics.
/// The measured interval excludes populate and teardown.
RunResult run_workload(const std::string& cm_name, cm::Params cm_params, Workload& workload,
                       const RunConfig& run);

/// Averages `repetitions` runs of the same configuration on fresh workload
/// instances built by `factory`. Metrics are averaged; `valid` is the
/// conjunction.
struct RepeatedResult {
  double mean_throughput = 0.0;
  double throughput_stddev = 0.0;
  double mean_aborts_per_commit = 0.0;
  double mean_elapsed_ms = 0.0;
  double mean_wasted_fraction = 0.0;
  double mean_response_us = 0.0;
  double mean_repeat_conflicts = 0.0;
  /// Means of the per-run reservoir percentiles (runner.cpp samples every
  /// run_one into a LatencyReservoir).
  double mean_p50_us = 0.0;
  double mean_p95_us = 0.0;
  double mean_p99_us = 0.0;
  bool valid = true;
  std::string why;
};

template <typename WorkloadFactory>
RepeatedResult run_repeated(const std::string& cm_name, cm::Params cm_params,
                            WorkloadFactory&& factory, const RunConfig& run,
                            unsigned repetitions);

}  // namespace wstm::harness

#include "harness/runner_impl.hpp"
