// TimedManager: a contention-manager decorator that times the hooks the
// Runtime calls on every attempt (on_begin, resolve, on_commit, on_abort)
// and forwards everything else untouched.
//
// The Runtime wires its trace recorder and wait hooks through the
// non-virtual attach_recorder / attach_wait_hooks, which land on the
// decorator. bind() passes both on to the wrapped manager, so the wrapped
// manager records and parks exactly as it would undecorated; call it once
// after constructing the Runtime and before any thread runs a transaction.
//
// Timings go to per-slot histograms written only by the thread that owns
// the slot; read them after the threads have joined.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cm/manager.hpp"
#include "histogram.hpp"
#include "stm/runtime.hpp"
#include "util/timing.hpp"

namespace perfbench {

struct CmTimings {
  LogHistogram resolve;
  LogHistogram on_begin;
  LogHistogram on_commit;
  LogHistogram on_abort;

  void merge(const CmTimings& o) noexcept {
    resolve.merge(o.resolve);
    on_begin.merge(o.on_begin);
    on_commit.merge(o.on_commit);
    on_abort.merge(o.on_abort);
  }
  double busy_ns() const noexcept {
    return resolve.sum() + on_begin.sum() + on_commit.sum() + on_abort.sum();
  }
};

class TimedManager final : public wstm::cm::ContentionManager {
 public:
  /// `max_slots` bounds the Runtime thread slots that get timings; calls
  /// from higher slots are forwarded but not timed.
  TimedManager(wstm::cm::ManagerPtr inner, unsigned max_slots) : inner_(std::move(inner)) {
    slots_.reserve(max_slots);
    for (unsigned i = 0; i < max_slots; ++i) slots_.push_back(std::make_unique<Slot>());
  }

  void bind() noexcept {
    inner_->attach_recorder(recorder_);
    inner_->attach_wait_hooks(waiter_);
  }

  std::string name() const override { return inner_->name(); }

  wstm::stm::Resolution resolve(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx,
                                wstm::stm::TxDesc& enemy,
                                wstm::stm::ConflictKind kind) override {
    const std::int64_t t0 = wstm::now_ns();
    const wstm::stm::Resolution r = inner_->resolve(self, tx, enemy, kind);
    note(self, &CmTimings::resolve, t0);
    return r;
  }

  void on_boost(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx, std::uint32_t level) override {
    inner_->on_boost(self, tx, level);
  }

  void on_begin(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx, bool is_retry) override {
    const std::int64_t t0 = wstm::now_ns();
    inner_->on_begin(self, tx, is_retry);
    note(self, &CmTimings::on_begin, t0);
  }

  void on_open(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx) override {
    inner_->on_open(self, tx);
  }

  void on_commit(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx) override {
    const std::int64_t t0 = wstm::now_ns();
    inner_->on_commit(self, tx);
    note(self, &CmTimings::on_commit, t0);
  }

  void on_abort(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx) override {
    const std::int64_t t0 = wstm::now_ns();
    inner_->on_abort(self, tx);
    note(self, &CmTimings::on_abort, t0);
  }

  void on_window_start(wstm::stm::ThreadCtx& self, std::uint32_t n_transactions) override {
    inner_->on_window_start(self, n_transactions);
  }

  bool frame_schedule(wstm::cm::FrameSchedule* out) const override {
    return inner_->frame_schedule(out);
  }

  /// Timings of one slot; only its owning thread may reset it while
  /// transactions run.
  CmTimings& timings(unsigned slot) noexcept { return slots_[slot]->t; }
  unsigned max_slots() const noexcept { return static_cast<unsigned>(slots_.size()); }

  /// Clears every slot (call at quiescence).
  void reset_all() noexcept {
    for (auto& s : slots_) s->t = CmTimings{};
  }

  /// Sum over all slots (call at quiescence).
  CmTimings total() const {
    CmTimings sum;
    for (const auto& s : slots_) sum.merge(s->t);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    CmTimings t;
  };

  void note(wstm::stm::ThreadCtx& self, LogHistogram CmTimings::*which,
            std::int64_t t0) noexcept {
    const std::int64_t dt = wstm::now_ns() - t0;
    if (self.slot() < slots_.size()) (slots_[self.slot()]->t.*which).record(dt);
  }

  wstm::cm::ManagerPtr inner_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace perfbench
