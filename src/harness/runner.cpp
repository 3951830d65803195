#include "harness/runner.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "util/affinity.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

namespace wstm::harness {

RunResult run_workload(const std::string& cm_name, cm::Params cm_params, Workload& workload,
                       const RunConfig& run) {
  cm_params.threads = run.threads;
  stm::RuntimeConfig rt_config;
  rt_config.seed = run.seed;
  rt_config.backend = stm::parse_backend(run.backend);
  rt_config.arbitration = stm::parse_arbitration(run.arbitration);
  cm_params.requester_waits = rt_config.arbitration == stm::ArbitrationMode::kWait;
  if (run.preempt_permille < 0) {
    rt_config.preempt_yield_permille = hardware_cpus() < run.threads ? 25 : 0;
  } else {
    rt_config.preempt_yield_permille = static_cast<std::uint32_t>(run.preempt_permille);
  }
  rt_config.liveness = run.liveness;
  rt_config.chaos = run.chaos;

  // The recorder outlives the Runtime (the config holds a raw pointer).
  std::unique_ptr<trace::Recorder> recorder;
  if (!run.trace_path.empty()) {
    trace::Recorder::Options opts;
    opts.threads = run.threads;
    opts.capacity_per_thread = run.trace_events_per_thread;
    recorder = std::make_unique<trace::Recorder>(opts);
    rt_config.recorder = recorder.get();
  }
  stm::Runtime rt(cm::make_manager(cm_name, cm_params), rt_config);

  {
    stm::ThreadCtx& main_tc = rt.attach_thread();
    workload.populate(rt, main_tc);
    rt.detach_thread(main_tc);
  }
  rt.reset_metrics();
  if (recorder) recorder->clear();  // populate is not part of the measured run

  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> committed{0};
  // Per-operation latency: every worker samples into one shared bounded
  // reservoir, so percentile reporting costs fixed memory however long the
  // run is (two clock reads + a fetch_add per operation).
  LatencyReservoir latency(4096, run.seed);

  // An exception escaping a worker used to std::terminate the whole
  // benchmark; instead each worker records its error here (slot i), the
  // cell fails with a readable report, and the other workers wind down.
  std::vector<std::string> worker_errors(run.threads);

  std::vector<std::thread> workers;
  workers.reserve(run.threads);
  for (std::uint32_t i = 0; i < run.threads; ++i) {
    workers.emplace_back([&, i] {
      if (run.pin_threads) pin_current_thread(i);
      stm::ThreadCtx& tc = rt.attach_thread();
      Xoshiro256 rng(run.seed * 0x9e3779b97f4a7c15ULL + i + 0xabcd);
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        while (!stop.load(std::memory_order_acquire)) {
          const std::int64_t op_begin = now_ns();
          workload.run_one(rt, tc, rng);
          latency.record(now_ns() - op_begin);
          // Relaxed: `committed` is a pure tally — nothing is published
          // through it (the RMW total order alone guarantees exactly the
          // fixed_commits-th increment crosses the threshold), and the
          // shutdown handshake is carried by the release store / acquire
          // loads on `stop`, not by this counter.
          if (run.fixed_commits > 0 &&
              committed.fetch_add(1, std::memory_order_relaxed) + 1 >= run.fixed_commits) {
            stop.store(true, std::memory_order_release);
          }
        }
      } catch (const resilience::TxTimeoutError& e) {
        worker_errors[i] = std::string("TxTimeoutError: ") + e.what();
      } catch (const std::exception& e) {
        worker_errors[i] = e.what();
      } catch (...) {
        worker_errors[i] = "unknown exception escaped the workload";
      }
      if (!worker_errors[i].empty()) stop.store(true, std::memory_order_release);
      // ThreadCtx stays attached so the runtime can aggregate its metrics;
      // Runtime teardown detaches it.
    });
  }

  const std::int64_t begin = now_ns();
  start.store(true, std::memory_order_release);
  if (run.fixed_commits == 0) {
    const std::int64_t deadline = begin + run.duration_ms * 1'000'000;
    while (now_ns() < deadline && !stop.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  }
  for (auto& w : workers) w.join();
  const std::int64_t elapsed = now_ns() - begin;

  RunResult result;
  result.totals = rt.total_metrics();
  result.elapsed_ns = elapsed;
  result.summary = stm::summarize(result.totals, elapsed);
  result.p50_us = latency.percentile_ns(50) / 1e3;
  result.p95_us = latency.percentile_ns(95) / 1e3;
  result.p99_us = latency.percentile_ns(99) / 1e3;
  result.latency_count = latency.count();
  if (const resilience::LivenessManager* lm = rt.liveness()) {
    result.liveness_stats = lm->stats();
  }
  for (std::uint32_t i = 0; i < run.threads; ++i) {
    if (worker_errors[i].empty()) continue;
    result.thread_errors.push_back("thread " + std::to_string(i) + ": " + worker_errors[i]);
  }
  if (!result.thread_errors.empty()) {
    result.valid = false;
    std::string report = std::to_string(result.thread_errors.size()) +
                         " worker thread(s) died on an exception";
    for (const std::string& e : result.thread_errors) report += "\n  " + e;
    result.why = report;
  }
  if (run.validate) {
    std::string why;
    if (!workload.validate(&why)) {
      result.valid = false;
      result.why = result.why.empty() ? why : result.why + "; " + why;
    }
  }
  if (recorder) {
    // Workers are joined, so drain_sorted() sees every ring quiescent.
    try {
      if (!trace::write_trace_file(run.trace_path, recorder->drain_sorted())) {
        throw std::runtime_error("cannot write trace file " + run.trace_path);
      }
    } catch (const std::exception& e) {
      result.valid = false;
      result.why = result.why.empty() ? e.what() : result.why + "; " + e.what();
    }
  }
  return result;
}

}  // namespace wstm::harness
