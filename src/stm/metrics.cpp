#include "stm/metrics.hpp"

#include <cstddef>
#include <cstdio>

namespace wstm::stm {

std::string MetricsSummary::to_string() const {
  char buf[512];
  int n = std::snprintf(buf, sizeof(buf),
                        "throughput=%.0f tx/s  aborts/commit=%.3f  wasted=%.1f%%  response=%.1fus",
                        throughput_per_s, aborts_per_commit, wasted_fraction * 100.0,
                        mean_response_us);
  // Shared-line contention (DESIGN.md §11): only shown when the clock /
  // sharded EBR actually fired, so visible-read runs keep the familiar
  // one-line summary.
  if (n > 0 && (clock_bumps | ebr_shard_syncs) != 0) {
    std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                  "  clock_bumps=%llu ebr_syncs=%llu",
                  static_cast<unsigned long long>(clock_bumps),
                  static_cast<unsigned long long>(ebr_shard_syncs));
  }
  if ((orec_lock_acquires | orec_lock_waits | orec_write_backs) != 0) {
    const std::size_t used = std::char_traits<char>::length(buf);
    std::snprintf(buf + used, sizeof(buf) - used,
                  "  orec_locks=%llu orec_lock_waits=%llu orec_write_backs=%llu",
                  static_cast<unsigned long long>(orec_lock_acquires),
                  static_cast<unsigned long long>(orec_lock_waits),
                  static_cast<unsigned long long>(orec_write_backs));
  }
  if ((parks | unparks | spurious_wakeups) != 0) {
    const std::size_t used = std::char_traits<char>::length(buf);
    std::snprintf(buf + used, sizeof(buf) - used,
                  "  parks=%llu park_ms=%.1f unparks=%llu spurious=%llu",
                  static_cast<unsigned long long>(parks),
                  static_cast<double>(park_ns) / 1e6,
                  static_cast<unsigned long long>(unparks),
                  static_cast<unsigned long long>(spurious_wakeups));
  }
  return buf;
}

MetricsSummary summarize(const ThreadMetrics& totals, std::int64_t elapsed_ns) {
  MetricsSummary s;
  s.commits = totals.commits;
  s.aborts = totals.aborts;
  s.timed_commits = totals.timed_commits;
  s.clock_bumps = totals.clock_bumps;
  s.ebr_shard_syncs = totals.ebr_shard_syncs;
  s.orec_lock_acquires = totals.orec_lock_acquires;
  s.orec_lock_waits = totals.orec_lock_waits;
  s.orec_write_backs = totals.orec_write_backs;
  s.parks = totals.parks;
  s.park_ns = totals.park_ns;
  s.unparks = totals.unparks;
  s.spurious_wakeups = totals.spurious_wakeups;
  if (elapsed_ns > 0) {
    s.throughput_per_s = static_cast<double>(totals.commits) /
                         (static_cast<double>(elapsed_ns) / 1e9);
  }
  if (totals.commits > 0) {
    s.aborts_per_commit = static_cast<double>(totals.aborts) / static_cast<double>(totals.commits);
    s.repeat_conflicts_per_commit =
        static_cast<double>(totals.repeat_conflicts) / static_cast<double>(totals.commits);
  }
  // Sampled sums: response time averages over the timed commits, and the
  // wasted share is a ratio of two sums over the same sample.
  if (totals.timed_commits > 0) {
    s.mean_response_us = static_cast<double>(totals.response_ns) /
                         static_cast<double>(totals.timed_commits) / 1e3;
  }
  const std::int64_t busy = totals.wasted_ns + totals.committed_ns;
  if (busy > 0) {
    s.wasted_fraction = static_cast<double>(totals.wasted_ns) / static_cast<double>(busy);
  }
  return s;
}

}  // namespace wstm::stm
