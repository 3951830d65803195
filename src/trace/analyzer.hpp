// Offline schedule analysis over a recorded event stream.
//
// The analyzer reconstructs the run the way the paper reasons about it:
// attempts (who ran when, who killed whom), wasted-work attribution (the
// aborted nanoseconds charged to the thread whose transaction won the
// conflict), abort chains (a victim's killer may itself have been killed —
// chain depth measures how far conflict costs cascade, in the sense of
// Alistarh et al.'s transactional conflict problem), and per-frame
// occupancy for window runs (how many threads went HIGH in each frame —
// the paper's claim is that the random shift keeps this near 1).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace wstm::trace {

/// One transaction attempt, reconstructed from kBegin + kCommit/kAbort.
struct Attempt {
  std::uint16_t thread = 0;
  std::uint64_t serial = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;  // 0 while unmatched (run stopped mid-attempt)
  bool closed = false;
  bool committed = false;
  bool is_retry = false;
  std::uint32_t conflicts = 0;
  std::uint32_t waits = 0;
  /// Thread/serial of the conflict winner that killed this attempt
  /// (kNoEnemy when the killer could not be attributed).
  std::uint32_t killer_slot = kNoEnemy;
  std::uint64_t killer_serial = 0;
  /// 0 for committed attempts; for aborted ones, 1 + the chain depth of the
  /// killer's own attempt (cycles and unattributed kills count as 1).
  std::uint32_t chain_depth = 0;

  std::int64_t duration_ns() const { return closed ? end_ns - begin_ns : 0; }
};

struct ThreadStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t waits = 0;
  std::uint64_t backoffs = 0;
  std::int64_t committed_ns = 0;
  std::int64_t wasted_ns = 0;
  /// Wasted ns of *other* threads' aborted attempts this thread caused.
  std::int64_t caused_wasted_ns = 0;
  /// Invisible-read snapshot extensions (kSnapshotExtend events) and the
  /// read-set entries those passes re-validated — the residual O(R) cost
  /// the commit-clock fast path did not skip.
  std::uint64_t extensions = 0;
  std::uint64_t extension_reads = 0;
};

/// Window-run occupancy of one frame.
struct FrameOccupancy {
  std::uint32_t high_entries = 0;    // kPrioritySwitch events landing here
  std::uint32_t distinct_threads = 0;  // distinct threads among them
  std::uint32_t commits = 0;         // kWindowCommit events in this frame
  std::uint32_t bad_commits = 0;     // of which bad events
};

class Analyzer {
 public:
  /// Takes a (time-sorted or unsorted) event stream; sorts it internally.
  explicit Analyzer(std::vector<Event> events);

  const std::vector<Event>& events() const noexcept { return events_; }
  const std::vector<Attempt>& attempts() const noexcept { return attempts_; }
  const std::map<unsigned, ThreadStats>& threads() const noexcept { return threads_; }

  /// Frame index → occupancy, from the window events (empty for non-window
  /// traces).
  const std::map<std::uint64_t, FrameOccupancy>& frames() const noexcept { return frames_; }

  /// Wasted nanoseconds by killer thread slot (kNoEnemy bucket = aborts the
  /// trace could not attribute).
  std::map<std::uint32_t, std::int64_t> wasted_by_killer() const;

  /// histogram[d] = number of aborted attempts with chain depth d (index 0
  /// unused).
  std::vector<std::uint64_t> chain_depth_histogram() const;

  /// Frames in which two or more distinct threads switched to HIGH — the
  /// high/high collisions the random shift is supposed to make rare.
  std::uint64_t high_high_frames() const;

  /// Human-readable multi-line report of all of the above.
  std::string summary() const;

 private:
  std::vector<Event> events_;
  std::vector<Attempt> attempts_;
  std::map<unsigned, ThreadStats> threads_;
  std::map<std::uint64_t, FrameOccupancy> frames_;
};

}  // namespace wstm::trace
