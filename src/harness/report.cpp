#include "harness/report.hpp"

#include <cstdio>
#include <ostream>

#include "trace/sink.hpp"
#include "util/table.hpp"

namespace wstm::harness {

std::string metric_name(Metric metric) {
  switch (metric) {
    case Metric::kThroughput:
      return "throughput (commits/s)";
    case Metric::kAbortsPerCommit:
      return "aborts per commit";
    case Metric::kElapsedMs:
      return "elapsed (ms)";
    case Metric::kWastedFraction:
      return "wasted-work fraction";
    case Metric::kResponseUs:
      return "mean response (us)";
    case Metric::kRepeatConflictsPerCommit:
      return "repeat conflicts per commit";
    case Metric::kP50Us:
      return "p50 latency (us)";
    case Metric::kP95Us:
      return "p95 latency (us)";
    case Metric::kP99Us:
      return "p99 latency (us)";
  }
  return "?";
}

void register_matrix_flags(Cli& cli, const std::string& default_benchmarks,
                           const std::string& default_cms, const std::string& default_threads,
                           std::int64_t default_ms, unsigned default_runs) {
  cli.add_flag("benchmarks", "comma-separated: list,rbtree,skiplist,vacation",
               default_benchmarks);
  cli.add_flag("cms", "comma-separated contention manager names", default_cms);
  cli.add_flag("threads", "comma-separated thread counts (M)", default_threads);
  cli.add_flag("ms", "measured milliseconds per run (paper: 10000)", default_ms);
  cli.add_flag("runs", "repetitions per point (paper: 6)",
               static_cast<std::int64_t>(default_runs));
  cli.add_flag("fixed-commits", "when > 0, run until this many commits instead of --ms",
               static_cast<std::int64_t>(0));
  cli.add_flag("key-range", "int-set key range", static_cast<std::int64_t>(256));
  cli.add_flag("update-percent", "percent of update transactions (int-set benchmarks)",
               static_cast<std::int64_t>(100));
  cli.add_flag("window-n", "window length N (paper: 50)", static_cast<std::int64_t>(50));
  cli.add_flag("frame-factor", "frame length factor phi", 1.0);
  cli.add_flag("frame-log-exp", "exponent e in ln(MN)^e for the frame length", 1.0);
  cli.add_flag("initial-c", "initial contention estimate C_i (0 = variant default)", 0.0);
  cli.add_flag("ci-alpha", "CI smoothing alpha (Adaptive-Improved)", 0.75);
  cli.add_flag("seed", "base RNG seed", static_cast<std::int64_t>(42));
  cli.add_flag("preempt-permille",
               "yield probability (permille) at each open, to emulate multicore "
               "interleaving on undersubscribed hosts; -1 = auto",
               static_cast<std::int64_t>(-1));
  cli.add_flag("backend",
               "execution engine: dstm (eager locator, visible reads) | orec (lazy "
               "TL2-style, invisible reads)",
               std::string("dstm"));
  cli.add_flag("arbitration",
               "conflict arbitration: abort (losers retry immediately) | wait "
               "(requester-waits: losers park until the winner's status transition)",
               std::string("abort"));
  cli.add_flag("validate", "check structure invariants after each run", true);
  cli.add_flag("csv", "emit CSV instead of aligned tables", false);
  cli.add_flag("trace",
               "write per-cell event traces; .json = Chrome trace_event, else binary "
               "(a -<benchmark>-<cm>-M<threads> suffix is inserted per cell)",
               std::string{});
  cli.add_flag("trace-events", "trace ring capacity per thread",
               static_cast<std::int64_t>(1 << 16));
  cli.add_flag("watchdog",
               "enable the liveness layer: starvation watchdog + escalation ladder "
               "(backoff -> priority boost -> irrevocable serial fallback)",
               false);
  cli.add_flag("deadline-ms", "hard per-transaction deadline with --watchdog (0 = none)",
               static_cast<std::int64_t>(10'000));
  cli.add_flag("chaos",
               "inject live faults (thread stalls, spurious aborts, delayed commits, "
               "EBR pressure); implies nothing about --watchdog, combine them to "
               "exercise the escalation ladder",
               false);
  cli.add_flag("chaos-intensity", "scale factor for --chaos fault probabilities", 1.0);
  cli.add_flag("zipf-alpha",
               "Zipfian key skew for the int-set benchmarks (0 = uniform; serve "
               "experiments conventionally use 0.99)",
               0.0);
  cli.add_flag("serve",
               "open-loop mode: Poisson arrivals through the serving front-end "
               "(src/serve/) instead of closed-loop self-execution; --threads "
               "becomes the worker count",
               false);
  cli.add_flag("arrival-rate", "total offered load with --serve, requests/second", 100'000.0);
  cli.add_flag("policy",
               "admission policy with --serve: round-robin | key-hash | "
               "conflict-graph | window-frame",
               std::string("round-robin"));
  cli.add_flag("producers", "arrival-generator threads with --serve",
               static_cast<std::int64_t>(1));
  cli.add_flag("queues", "submit queues with --serve (0 = one per worker)",
               static_cast<std::int64_t>(0));
  cli.add_flag("queue-capacity", "bounded submit-queue capacity with --serve",
               static_cast<std::int64_t>(1024));
  cli.add_flag("serve-deadline-ms",
               "relative per-request deadline with --serve (0 = none); queued "
               "requests past it are shed",
               static_cast<std::int64_t>(0));
  cli.add_flag("steal", "idle serve workers steal from other queues", false);
  cli.add_flag("block",
               "full submit queue blocks the producer instead of shedding "
               "(turns --serve back into a coupled loop; off = reject)",
               false);
}

MatrixSpec matrix_from_cli(const Cli& cli) {
  MatrixSpec spec;
  spec.benchmarks = cli.get_string_list("benchmarks");
  spec.cms = cli.get_string_list("cms");
  spec.thread_counts = cli.get_int_list("threads");
  spec.base.duration_ms = cli.get_int("ms");
  spec.base.fixed_commits = static_cast<std::uint64_t>(cli.get_int("fixed-commits"));
  spec.base.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  spec.base.preempt_permille = static_cast<std::int32_t>(cli.get_int("preempt-permille"));
  spec.base.backend = cli.get_string("backend");
  spec.base.arbitration = cli.get_string("arbitration");
  spec.base.validate = cli.get_bool("validate");
  spec.repetitions = static_cast<unsigned>(cli.get_int("runs"));
  spec.key_range = cli.get_int("key-range");
  spec.update_percent = static_cast<std::uint32_t>(cli.get_int("update-percent"));
  spec.params.window_n = static_cast<std::uint32_t>(cli.get_int("window-n"));
  spec.params.frame_factor = cli.get_double("frame-factor");
  spec.params.frame_log_exponent = cli.get_double("frame-log-exp");
  spec.params.initial_c = cli.get_double("initial-c");
  spec.params.ci_alpha = cli.get_double("ci-alpha");
  spec.csv = cli.get_bool("csv");
  spec.base.trace_path = cli.get_string("trace");
  spec.base.trace_events_per_thread =
      static_cast<std::size_t>(cli.get_int("trace-events"));
  if (cli.get_bool("watchdog")) {
    spec.base.liveness.enabled = true;
    spec.base.liveness.deadline_ns = cli.get_int("deadline-ms") * 1'000'000;
  }
  if (cli.get_bool("chaos")) {
    spec.base.chaos = resilience::default_chaos(cli.get_double("chaos-intensity"));
  }
  spec.zipf_alpha = cli.get_double("zipf-alpha");
  spec.serve = cli.get_bool("serve");
  spec.serve_config.arrival_rate = cli.get_double("arrival-rate");
  spec.serve_config.policy = cli.get_string("policy");
  spec.serve_config.producers = static_cast<unsigned>(cli.get_int("producers"));
  spec.serve_config.n_queues = static_cast<unsigned>(cli.get_int("queues"));
  spec.serve_config.queue_capacity = static_cast<std::size_t>(cli.get_int("queue-capacity"));
  spec.serve_config.deadline_ms = cli.get_int("serve-deadline-ms");
  spec.serve_config.steal = cli.get_bool("steal");
  spec.serve_config.backpressure =
      cli.get_bool("block") ? serve::Backpressure::kBlock : serve::Backpressure::kReject;
  return spec;
}

namespace {

/// Serve-mode cell: averages open-loop runs into the RepeatedResult shape
/// the table printer already consumes. kThroughput maps to sustained
/// completions/s; the percentile metrics to sojourn percentiles.
RepeatedResult run_serve_repeated(const std::string& cm_name, const MatrixSpec& spec,
                                  const std::string& benchmark, const RunConfig& base) {
  RepeatedResult agg;
  RunningStats thr, aborts, elapsed_ms, wasted, response, repeats, p50, p95, p99;
  for (unsigned i = 0; i < spec.repetitions; ++i) {
    auto workload =
        make_workload(benchmark, spec.update_percent, spec.key_range, spec.zipf_alpha);
    RunConfig cfg = base;
    cfg.seed = base.seed + i * 7919;
    if (!base.trace_path.empty() && spec.repetitions > 1) {
      cfg.trace_path = trace::path_with_suffix(base.trace_path, "-r" + std::to_string(i));
    }
    const OpenLoopResult r = run_open_loop(cm_name, spec.params, *workload, cfg,
                                           spec.serve_config);
    thr.add(r.completed_per_s);
    aborts.add(r.base.summary.aborts_per_commit);
    elapsed_ms.add(static_cast<double>(r.base.elapsed_ns) / 1e6);
    wasted.add(r.base.summary.wasted_fraction);
    response.add(r.base.summary.mean_response_us);
    repeats.add(r.base.summary.repeat_conflicts_per_commit);
    p50.add(r.base.p50_us);
    p95.add(r.base.p95_us);
    p99.add(r.base.p99_us);
    if (!r.base.valid) {
      agg.valid = false;
      agg.why = r.base.why;
    }
  }
  agg.mean_throughput = thr.mean();
  agg.throughput_stddev = thr.stddev();
  agg.mean_aborts_per_commit = aborts.mean();
  agg.mean_elapsed_ms = elapsed_ms.mean();
  agg.mean_wasted_fraction = wasted.mean();
  agg.mean_response_us = response.mean();
  agg.mean_repeat_conflicts = repeats.mean();
  agg.mean_p50_us = p50.mean();
  agg.mean_p95_us = p95.mean();
  agg.mean_p99_us = p99.mean();
  return agg;
}

}  // namespace

bool run_matrix_and_print(const MatrixSpec& spec, Metric metric, std::ostream& out) {
  bool all_valid = true;
  for (const std::string& benchmark : spec.benchmarks) {
    std::vector<std::string> header{"CM \\ M"};
    for (const auto m : spec.thread_counts) header.push_back(std::to_string(m));
    Table table(header);

    for (const std::string& cm_name : spec.cms) {
      std::vector<std::string> row{cm_name};
      for (const auto m : spec.thread_counts) {
        RunConfig cfg = spec.base;
        cfg.threads = static_cast<std::uint32_t>(m);
        if (!spec.base.trace_path.empty()) {
          cfg.trace_path = trace::path_with_suffix(
              spec.base.trace_path,
              "-" + benchmark + "-" + cm_name + "-M" + std::to_string(m));
        }
        std::fprintf(stderr, "[%s] %s M=%lld ...\n", benchmark.c_str(), cm_name.c_str(),
                     static_cast<long long>(m));
        const RepeatedResult r =
            spec.serve
                ? run_serve_repeated(cm_name, spec, benchmark, cfg)
                : run_repeated(
                      cm_name, spec.params,
                      [&] {
                        return make_workload(benchmark, spec.update_percent, spec.key_range,
                                             spec.zipf_alpha);
                      },
                      cfg, spec.repetitions);
        if (!r.valid) {
          all_valid = false;
          std::fprintf(stderr, "VALIDATION FAILED [%s/%s/M=%lld]: %s\n", benchmark.c_str(),
                       cm_name.c_str(), static_cast<long long>(m), r.why.c_str());
        }
        double value = 0.0;
        int precision = 2;
        switch (metric) {
          case Metric::kThroughput:
            value = r.mean_throughput;
            precision = 0;
            break;
          case Metric::kAbortsPerCommit:
            value = r.mean_aborts_per_commit;
            precision = 3;
            break;
          case Metric::kElapsedMs:
            value = r.mean_elapsed_ms;
            precision = 1;
            break;
          case Metric::kWastedFraction:
            value = r.mean_wasted_fraction;
            precision = 4;
            break;
          case Metric::kResponseUs:
            value = r.mean_response_us;
            precision = 1;
            break;
          case Metric::kRepeatConflictsPerCommit:
            value = r.mean_repeat_conflicts;
            precision = 3;
            break;
          case Metric::kP50Us:
            value = r.mean_p50_us;
            precision = 1;
            break;
          case Metric::kP95Us:
            value = r.mean_p95_us;
            precision = 1;
            break;
          case Metric::kP99Us:
            value = r.mean_p99_us;
            precision = 1;
            break;
        }
        row.push_back(Table::num(value, precision));
      }
      table.add_row(std::move(row));
    }

    out << "# " << benchmark << " — " << metric_name(metric) << "\n"
        << (spec.csv ? table.to_csv() : table.to_text()) << "\n";
  }
  return all_valid;
}

}  // namespace wstm::harness
