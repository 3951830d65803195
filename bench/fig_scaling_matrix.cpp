// Scaling matrix for the process-wide hot-spot work (DESIGN.md §11): one
// closed-loop write-heavy run per M ∈ {2,4,8,16,32,64}, on invisible reads
// + snapshot extension so the commit clock (one bump per write-commit) is
// actually exercised. Each row reports throughput and the shared-line
// contention counters (clock_bumps, reader_stripe_retries, ebr_shard_syncs).
//
// --json=BENCH_scaling.json writes a machine-readable report gated in CI by
// tools/check_bench.py --mode scaling: per-row validation and attempt
// conservation.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

struct Row {
  long threads = 0;
  std::string cm;
  double throughput_per_s = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t clock_bumps = 0;
  std::uint64_t reader_stripe_retries = 0;
  std::uint64_t ebr_shard_syncs = 0;
  bool valid = true;
};

void write_json(const std::string& path, const std::vector<Row>& rows,
                const std::string& benchmark, long key_range, long update_percent,
                long ms) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "fig_scaling_matrix: cannot write %s\n", path.c_str());
    return;
  }
  // host_cpus records whether the sweep oversubscribed the host, which
  // serializes the "concurrent" writers.
  out << "{\n  \"context\": {\"benchmark\": \"" << benchmark
      << "\", \"key_range\": " << key_range << ", \"update_percent\": " << update_percent
      << ", \"ms\": " << ms
      << ", \"host_cpus\": " << std::thread::hardware_concurrency() << "},\n"
      << "  \"scaling\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"threads\": " << r.threads << ", \"cm\": \"" << r.cm
        << "\", \"throughput_per_s\": " << r.throughput_per_s
        << ", \"attempts\": " << r.attempts << ", \"commits\": " << r.commits
        << ", \"aborts\": " << r.aborts << ", \"clock_bumps\": " << r.clock_bumps
        << ", \"reader_stripe_retries\": " << r.reader_stripe_retries
        << ", \"ebr_shard_syncs\": " << r.ebr_shard_syncs
        << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "fig_scaling_matrix: wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  cli.add_flag("threads", "M values for the sweep (comma list)", std::string("2,4,8,16,32,64"));
  cli.add_flag("cm", "contention manager", std::string("Polka"));
  cli.add_flag("benchmark", "workload (BM_IntsetWriteHeavy-class: write-heavy intset)",
               std::string("hashtable"));
  cli.add_flag("key-range", "int-set key range (wide = low conflict)", std::int64_t{1024});
  cli.add_flag("update-percent", "percent of update transactions", std::int64_t{100});
  cli.add_flag("ms", "measured milliseconds per cell", std::int64_t{300});
  cli.add_flag("seed", "base RNG seed", std::int64_t{42});
  cli.add_flag("json", "write a machine-readable report here (empty = off)",
               std::string("BENCH_scaling.json"));
  cli.add_flag("csv", "CSV table instead of aligned text", false);
  if (!cli.parse(argc, argv)) return 1;

  const std::string cm_name = cli.get_string("cm");
  const std::string benchmark = cli.get_string("benchmark");
  const long key_range = cli.get_int("key-range");
  const long update_percent = cli.get_int("update-percent");
  const long ms = cli.get_int("ms");
  const std::vector<std::int64_t> sweep = cli.get_int_list("threads");

  std::cout << "== Scaling matrix: " << benchmark << " range " << key_range << ", "
            << update_percent << "% updates, " << cm_name
            << ", orec engine ==\n\n";

  Table table({"M", "commits/s", "aborts/commit", "clock_bumps", "stripe_retries", "ebr_syncs"});
  std::vector<Row> rows;
  bool all_valid = true;

  for (const std::int64_t m : sweep) {
    std::fprintf(stderr, "[M=%lld] ...\n", static_cast<long long>(m));
    auto workload = harness::make_workload(
        benchmark, static_cast<std::uint32_t>(update_percent), key_range, /*zipf_alpha=*/0.0);
    harness::RunConfig run;
    run.threads = static_cast<std::uint32_t>(m);
    run.duration_ms = ms;
    run.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    run.backend = "orec";
    const harness::RunResult r = harness::run_workload(cm_name, cm::Params{}, *workload, run);

    Row row;
    row.threads = static_cast<long>(m);
    row.cm = cm_name;
    row.throughput_per_s = r.summary.throughput_per_s;
    row.commits = r.totals.commits;
    row.aborts = r.totals.aborts;
    row.attempts = r.totals.commits + r.totals.aborts;
    row.clock_bumps = r.totals.clock_bumps;
    row.reader_stripe_retries = r.totals.reader_stripe_retries;
    row.ebr_shard_syncs = r.totals.ebr_shard_syncs;
    row.valid = r.valid;
    if (!r.valid) {
      all_valid = false;
      std::fprintf(stderr, "VALIDATION FAILED [M=%lld]: %s\n", static_cast<long long>(m),
                   r.why.c_str());
    }
    rows.push_back(row);

    table.add_row({std::to_string(m), Table::num(row.throughput_per_s, 0),
                   Table::num(r.summary.aborts_per_commit, 3), std::to_string(row.clock_bumps),
                   std::to_string(row.reader_stripe_retries),
                   std::to_string(row.ebr_shard_syncs)});
  }

  std::cout << (cli.get_bool("csv") ? table.to_csv() : table.to_text()) << "\n";

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    write_json(json_path, rows, benchmark, key_range, update_percent, ms);
  }
  return all_valid ? 0 : 2;
}
