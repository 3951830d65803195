// Shared frame controller for the *dynamic* window variants.
//
// Paper, Section III-B: "as soon as the last transaction inside a
// particular frame finishes, we start the new frame" (contraction), and if
// transactions are still pending at the nominal frame end the frame simply
// keeps running (expansion). Both rules reduce to one advance condition:
//
//     advance past frame f  ⇔  no registered-but-uncommitted transaction is
//                              assigned to f, and something is waiting in a
//                              later frame.
//
// Threads register each logical transaction under its assigned frame at the
// first attempt and complete it at commit; retries keep the registration.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/cacheline.hpp"

namespace wstm::window {

class WindowController {
 public:
  explicit WindowController(std::size_t capacity = std::size_t{1} << 14);

  std::uint64_t current_frame() const noexcept {
    return current_->load(std::memory_order_acquire);
  }

  /// Announce a logical transaction assigned to `frame`. Frames at most
  /// `capacity` ahead of the current frame are representable.
  void register_tx(std::uint64_t frame);

  /// The transaction assigned to `frame` committed.
  void complete_tx(std::uint64_t frame);

  /// Contraction: advance while the current frame is drained and somebody
  /// is waiting for a later one. Safe to call from any thread at any time.
  /// Returns the number of frames this call advanced past (0 = none), so
  /// tracing callers can attribute the advance to the thread that drove it.
  std::uint64_t maybe_advance();

  /// Pending registrations for `frame` (tests/diagnostics).
  std::int64_t pending(std::uint64_t frame) const noexcept;

  /// Total frames advanced by contraction while txs waited (diagnostics).
  std::uint64_t advances() const noexcept { return advances_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t>& slot(std::uint64_t frame) noexcept {
    return *pending_[frame % pending_.size()];
  }
  const std::atomic<std::int64_t>& slot(std::uint64_t frame) const noexcept {
    return *pending_[frame % pending_.size()];
  }

  std::vector<CacheAligned<std::atomic<std::int64_t>>> pending_;
  // Each process-wide word gets its own line: total_pending_ is RMW'd by
  // every register/complete, and sharing its line with current_ would make
  // every registration invalidate the word every maybe_advance() polls.
  CacheAligned<std::atomic<std::uint64_t>> current_{};
  CacheAligned<std::atomic<std::uint64_t>> max_registered_{};
  CacheAligned<std::atomic<std::int64_t>> total_pending_{};
  // Written only on (rare) frame advances.
  std::atomic<std::uint64_t> advances_{0};
};

}  // namespace wstm::window
