// perfbench_selftest: checks that TimedManager is a faithful decorator.
//
// 1. A seeded one-thread run under a virtual clock is deterministic, so the
//    bare manager and the decorated one must give identical commit and
//    abort counts, identical trace event streams (the wrapped manager's
//    own kBackoff / window events appear only if the recorder was passed
//    on) and an identical frame schedule. The decorator's own hook counts
//    must match the attempts it saw.
// 2. With requester-waits arbitration, Polka parks only through the wait
//    hooks the Runtime attaches; a contended three-thread run must park
//    with the decorated manager just as it does with the bare one.
//
// Exits 0 when every check passes, 1 otherwise.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "structs/intset.hpp"
#include "timed_manager.hpp"
#include "trace/recorder.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace {

using namespace wstm;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

using EventKey = std::tuple<std::int64_t, std::uint64_t, std::uint64_t, std::uint64_t,
                            std::uint32_t, int, int>;

struct Outcome {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::vector<EventKey> events;
  bool has_frames = false;
  cm::FrameSchedule frames;
  perfbench::CmTimings timings;
};

cm::ManagerPtr manager(const std::string& name, unsigned threads, bool decorated,
                       perfbench::TimedManager** timed) {
  cm::Params params;
  params.threads = threads;
  cm::ManagerPtr m = cm::make_manager(name, params);
  *timed = nullptr;
  if (!decorated) return m;
  auto t = std::make_unique<perfbench::TimedManager>(std::move(m), 8);
  *timed = t.get();
  return t;
}

Outcome one_thread_run(const std::string& cm_name, bool decorated) {
  std::atomic<std::int64_t> vclock{1'000'000};
  set_virtual_clock(&vclock);
  Outcome out;
  {
    trace::Recorder::Options ro;
    ro.threads = 4;
    ro.capacity_per_thread = std::size_t{1} << 16;
    trace::Recorder recorder(ro);
    auto set = structs::make_intset("list");
    perfbench::TimedManager* timed = nullptr;
    stm::RuntimeConfig config;
    config.seed = 42;
    config.recorder = &recorder;
    stm::Runtime rt(manager(cm_name, 2, decorated, &timed), config);
    if (timed != nullptr) timed->bind();

    stm::ThreadCtx& tc = rt.attach_thread();
    Xoshiro256 rng(7);
    for (int i = 0; i < 3000; ++i) {
      const long key = static_cast<long>(rng.below(64));
      const std::uint64_t kind = rng.below(3);
      const bool restart = rng.below(4) == 0;
      int attempt = 0;
      rt.atomically(tc, [&](stm::Tx& tx) {
        vclock.fetch_add(137);
        const bool r = kind == 0   ? set->insert(tx, key)
                       : kind == 1 ? set->remove(tx, key)
                                   : set->contains(tx, key);
        if (restart && attempt++ == 0) tx.restart();
        return r;
      });
    }
    const stm::ThreadMetrics m = rt.total_metrics();
    out.commits = m.commits;
    out.aborts = m.aborts;
    out.has_frames = rt.manager().frame_schedule(&out.frames);
    if (timed != nullptr) out.timings = timed->total();
    for (const trace::Event& e : recorder.drain_sorted()) {
      out.events.emplace_back(e.t_ns, e.serial, e.a0, e.a1, e.enemy, static_cast<int>(e.kind),
                              static_cast<int>(e.detail));
    }
  }
  set_virtual_clock(nullptr);
  return out;
}

void check_one_thread(const std::string& cm_name) {
  const Outcome bare = one_thread_run(cm_name, false);
  const Outcome dec = one_thread_run(cm_name, true);
  const std::string tag = cm_name + ": ";
  expect(bare.commits == 3000 && bare.aborts > 0,
         tag + "bare run commits 3000 with aborts (" + std::to_string(bare.commits) + ", " +
             std::to_string(bare.aborts) + ")");
  expect(dec.commits == bare.commits && dec.aborts == bare.aborts,
         tag + "decorated commits/aborts equal bare (" + std::to_string(dec.commits) + ", " +
             std::to_string(dec.aborts) + ")");
  expect(dec.events == bare.events,
         tag + "decorated trace equals bare (" + std::to_string(dec.events.size()) + " vs " +
             std::to_string(bare.events.size()) + " events)");
  expect(dec.has_frames == bare.has_frames &&
             (!bare.has_frames || (dec.frames.current_frame == bare.frames.current_frame &&
                                   dec.frames.window_n == bare.frames.window_n &&
                                   dec.frames.alpha == bare.frames.alpha)),
         tag + "frame_schedule forwarded");
  expect(dec.timings.on_begin.count() == dec.commits + dec.aborts &&
             dec.timings.on_commit.count() == dec.commits &&
             dec.timings.on_abort.count() == dec.aborts,
         tag + "decorator timed every on_begin/on_commit/on_abort");
}

/// Parks taken by a contended three-thread Polka run in wait mode. Each
/// worker stops at its first park or after five seconds.
std::uint64_t parks_under_contention(bool decorated) {
  auto set = structs::make_intset("list");
  perfbench::TimedManager* timed = nullptr;
  stm::RuntimeConfig config;
  config.seed = 9;
  config.arbitration = stm::ArbitrationMode::kWait;
  stm::Runtime rt(manager("Polka", 3, decorated, &timed), config);
  if (timed != nullptr) timed->bind();
  std::atomic<bool> stop{false};
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      stm::ThreadCtx& tc = rt.attach_thread();
      Xoshiro256 rng(100 + i);
      while (!stop.load(std::memory_order_acquire) && now_ns() < deadline) {
        const long key = static_cast<long>(rng.below(32));
        const bool ins = rng.below(2) == 0;
        rt.atomically(tc, [&](stm::Tx& tx) {
          return ins ? set->insert(tx, key) : set->remove(tx, key);
        });
        if (tc.metrics().parks > 0) stop.store(true, std::memory_order_release);
      }
    });
  }
  for (auto& t : threads) t.join();
  return rt.total_metrics().parks;
}

}  // namespace

int main() {
  for (const char* name : {"Online-Dynamic", "Adaptive-Improved-Dynamic", "Polka"}) {
    check_one_thread(name);
  }
  const std::uint64_t bare = parks_under_contention(false);
  const std::uint64_t dec = parks_under_contention(true);
  expect(bare > 0, "Polka wait mode parks with the bare manager (" + std::to_string(bare) + ")");
  expect(dec > 0, "Polka wait mode parks with the decorated manager (" + std::to_string(dec) + ")");
  return g_failures == 0 ? 0 : 1;
}
