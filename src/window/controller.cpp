#include "window/controller.hpp"

#include <cassert>

namespace wstm::window {

WindowController::WindowController(std::size_t capacity) : pending_(capacity) {}

void WindowController::register_tx(std::uint64_t frame) {
  assert(frame >= current_frame() || pending(frame) >= 0);
  assert(frame < current_frame() + pending_.size());
  // Pure occupancy counters: no payload is published through them, so the
  // RMWs need no ordering of their own (the old acq_rel paired with
  // nothing). The release on the max_registered_ CAS below still makes this
  // increment visible to any maybe_advance() that acquires the watermark.
  slot(frame).fetch_add(1, std::memory_order_relaxed);
  total_pending_->fetch_add(1, std::memory_order_relaxed);
  // Track the furthest frame anybody waits for, so contraction knows when
  // skipping empty frames is useful.
  std::uint64_t seen = max_registered_->load(std::memory_order_relaxed);
  while (seen < frame &&
         !max_registered_->compare_exchange_weak(seen, frame, std::memory_order_acq_rel)) {
  }
  maybe_advance();
}

void WindowController::complete_tx(std::uint64_t frame) {
  // Occupancy counters only (see register_tx); the same-thread
  // maybe_advance() below reads them sequenced-after anyway.
  slot(frame).fetch_sub(1, std::memory_order_relaxed);
  total_pending_->fetch_sub(1, std::memory_order_relaxed);
  maybe_advance();
}

std::uint64_t WindowController::maybe_advance() {
  std::uint64_t advanced = 0;
  for (;;) {
    const std::uint64_t cur = current_->load(std::memory_order_acquire);
    // Relaxed: the slot count carries no payload, and the acquire on
    // max_registered_ below already orders this poll against the release
    // a registrant performed after bumping its slot.
    if (slot(cur).load(std::memory_order_relaxed) != 0) return advanced;  // frame still busy
    const bool someone_waits = max_registered_->load(std::memory_order_acquire) > cur &&
                               total_pending_->load(std::memory_order_relaxed) > 0;
    if (!someone_waits) return advanced;
    std::uint64_t expected = cur;
    if (current_->compare_exchange_strong(expected, cur + 1, std::memory_order_acq_rel)) {
      advances_.fetch_add(1, std::memory_order_relaxed);
      advanced++;
    }
    // Loop: several consecutive frames may be empty (contraction skips
    // them all at once).
  }
}

std::int64_t WindowController::pending(std::uint64_t frame) const noexcept {
  return slot(frame).load(std::memory_order_relaxed);  // diagnostics only
}

}  // namespace wstm::window
