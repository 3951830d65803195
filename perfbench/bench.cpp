// perfbench_run: the wstm benchmark program.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload against the public API (stm::Runtime, cm::make_manager,
// structs::TxIntSet / structs::HashTable, serve::TxServer) and prints every
// metric by name with its unit, then one JSON result line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 measures the end-to-end metrics for --seconds. --trace 1 runs
// the workload untraced for half of --seconds and then traced for the other
// half, and reports the per-layer metrics of the traced half plus the
// tracing overhead between the two. Traced runs time the calls into each
// layer from this file: Runtime::atomically and the transaction lambda
// (stm), a timing decorator around the contention manager (cm), each
// TxIntSet call (structs) and TxServer::submit plus request hand-off
// (serve). Every run ends with a quiescent validation of the set against
// the ledger of successful inserts and removes; the process exits 1 when
// any run is invalid.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cm/registry.hpp"
#include "histogram.hpp"
#include "serve/server.hpp"
#include "stm/runtime.hpp"
#include "structs/hashtable.hpp"
#include "structs/intset.hpp"
#include "timed_manager.hpp"
#include "util/affinity.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"
#include "util/zipf.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using wstm::now_ns;
using wstm::Xoshiro256;
namespace stm = wstm::stm;
namespace cm = wstm::cm;
namespace serve = wstm::serve;
namespace structs = wstm::structs;

// ---- workloads --------------------------------------------------------------

struct Spec {
  const char* name;
  bool open_loop;
  bool list;            ///< sorted list, else hashtable
  std::size_t buckets;  ///< hashtable only
  long key_range;
  unsigned update_percent;  ///< half inserts, half removes
  double zipf_alpha;        ///< 0 = uniform keys
  stm::BackendKind backend;
  const char* cm;
  unsigned workers;
  double rate_per_s;  ///< open loop only: Poisson arrival rate
};

// serve-zipf arrives at about half of the 1.1 M/s completion rate it
// saturates at on a 4-CPU host (see README.md).
constexpr double kServeRate = 550'000.0;

const Spec kSpecs[] = {
    {"list-update", false, true, 0, 256, 100, 0.0, stm::BackendKind::kDstm, "Online-Dynamic", 3,
     0.0},
    {"hashtable-short", false, false, std::size_t{1} << 18, long{1} << 20, 10, 0.0,
     stm::BackendKind::kOrec, "Polka", 3, 0.0},
    {"serve-zipf", true, false, 64, 1024, 20, 0.99, stm::BackendKind::kDstm,
     "Adaptive-Improved-Dynamic", 2, kServeRate},
};

constexpr unsigned kWindowN = 50;
constexpr unsigned kTimedSlots = 16;
constexpr double kWarmupSeconds = 0.5;
/// setup_s is the median of at least kMinSetups set-ups, repeated until
/// kSetupBudgetSeconds have gone by or kMaxSetups were made.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 101;
constexpr double kSetupBudgetSeconds = 2.0;

enum class OpKind : std::uint8_t { kContains, kInsert, kRemove };

struct Op {
  long key;
  OpKind kind;
};

/// Per-thread operation stream, a pure function of (seed, stream).
class OpGen {
 public:
  OpGen(const Spec& spec, const wstm::ZipfSampler* zipf, std::uint64_t seed, std::uint64_t stream)
      : spec_(spec), zipf_(zipf), rng_(seed * 0x9e3779b97f4a7c15ULL + stream + 0xabcd) {}

  Op next() noexcept {
    const std::uint64_t dice = rng_.below(100);
    const OpKind kind = dice < spec_.update_percent / 2 ? OpKind::kInsert
                        : dice < spec_.update_percent   ? OpKind::kRemove
                                                        : OpKind::kContains;
    const long key = zipf_ != nullptr
                         ? static_cast<long>(zipf_->sample(rng_))
                         : static_cast<long>(rng_.below(static_cast<std::uint64_t>(spec_.key_range)));
    return {key, kind};
  }

  Xoshiro256& rng() noexcept { return rng_; }

 private:
  const Spec& spec_;
  const wstm::ZipfSampler* zipf_;
  Xoshiro256 rng_;
};

bool apply(structs::TxIntSet& set, stm::Tx& tx, Op op) {
  switch (op.kind) {
    case OpKind::kInsert: return set.insert(tx, op.key);
    case OpKind::kRemove: return set.remove(tx, op.key);
    case OpKind::kContains: break;
  }
  return set.contains(tx, op.key);
}

// ---- seam counters ------------------------------------------------------------

/// Time spent inside the transaction lambda, which holds exactly one
/// TxIntSet call, so it is both the stm body time and the structs op time.
struct Seams {
  std::uint64_t attempts = 0;
  std::int64_t body_ns = 0;
  std::int64_t read_ns = 0;
  std::int64_t update_ns = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t update_calls = 0;

  void add(const Seams& o) noexcept {
    attempts += o.attempts;
    body_ns += o.body_ns;
    read_ns += o.read_ns;
    update_ns += o.update_ns;
    read_calls += o.read_calls;
    update_calls += o.update_calls;
  }
};

/// Times one lambda invocation, including one that unwinds with an abort.
class BodyTimer {
 public:
  BodyTimer(Seams& s, bool update, std::int64_t t0) noexcept : s_(s), update_(update), t0_(t0) {}
  ~BodyTimer() {
    const std::int64_t dt = now_ns() - t0_;
    ++s_.attempts;
    s_.body_ns += dt;
    if (update_) {
      s_.update_ns += dt;
      ++s_.update_calls;
    } else {
      s_.read_ns += dt;
      ++s_.read_calls;
    }
  }
  BodyTimer(const BodyTimer&) = delete;
  BodyTimer& operator=(const BodyTimer&) = delete;

 private:
  Seams& s_;
  bool update_;
  std::int64_t t0_;
};

template <bool kTraced>
bool run_op(stm::Runtime& rt, stm::ThreadCtx& tc, structs::TxIntSet& set, Op op, Seams& seams) {
  return rt.atomically(tc, [&](stm::Tx& tx) {
    if constexpr (kTraced) {
      BodyTimer timer(seams, op.kind != OpKind::kContains, now_ns());
      return apply(set, tx, op);
    } else {
      (void)seams;
      return apply(set, tx, op);
    }
  });
}

/// Runtime counters over a measured window: the difference of two
/// snapshots, summed over threads.
struct StmWindow {
  stm::ThreadMetrics begin, end;

  template <typename T>
  double delta(T stm::ThreadMetrics::*field) const noexcept {
    return static_cast<double>(end.*field - begin.*field);
  }
  void add(const StmWindow& o) noexcept {
    begin += o.begin;
    end += o.end;
  }
};

// ---- set-up -----------------------------------------------------------------

/// One populated structure and the Runtime that runs transactions on it.
/// The set is declared first so the Runtime is torn down before it.
struct Env {
  std::unique_ptr<structs::TxIntSet> set;
  std::unique_ptr<stm::Runtime> rt;
  TimedManager* timed = nullptr;  ///< owned by rt; traced runs only
  std::unique_ptr<wstm::ZipfSampler> zipf;
  std::vector<std::uint8_t> initial;  ///< 1 where the key was populated
};

Env setup(const Spec& spec, std::uint64_t seed, bool traced) {
  Env env;
  cm::Params params;
  params.threads = spec.workers;
  params.window_n = kWindowN;
  cm::ManagerPtr manager = cm::make_manager(spec.cm, params);
  if (traced) {
    auto timed = std::make_unique<TimedManager>(std::move(manager), kTimedSlots);
    env.timed = timed.get();
    manager = std::move(timed);
  }
  stm::RuntimeConfig config;
  config.seed = seed;
  config.backend = spec.backend;
  config.visible_reads = true;
  env.rt = std::make_unique<stm::Runtime>(std::move(manager), config);
  if (env.timed != nullptr) env.timed->bind();

  if (spec.list) {
    env.set = structs::make_intset("list");
  } else {
    env.set = std::make_unique<structs::HashTable>(spec.buckets);
  }
  if (spec.zipf_alpha > 0.0) {
    env.zipf = std::make_unique<wstm::ZipfSampler>(static_cast<std::uint64_t>(spec.key_range),
                                                   spec.zipf_alpha);
  }
  env.initial.assign(static_cast<std::size_t>(spec.key_range), 0);
  stm::ThreadCtx& tc = env.rt->attach_thread();
  for (long key = 0; key < spec.key_range; key += 2) {
    env.rt->atomically(tc, [&](stm::Tx& tx) { return env.set->insert(tx, key); });
    env.initial[static_cast<std::size_t>(key)] = 1;
  }
  env.rt->detach_thread(tc);
  env.rt->reset_metrics();
  return env;
}

/// Quiescent check: the set is strictly sorted, in range, and holds exactly
/// the populated keys plus the net successful inserts minus removes.
bool validate(const Env& env, const std::vector<std::int64_t>& net, std::string* why) {
  const std::vector<long> elements = env.set->quiescent_elements();
  const long range = static_cast<long>(env.initial.size());
  std::vector<std::uint8_t> present(env.initial.size(), 0);
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const long k = elements[i];
    if (k < 0 || k >= range) {
      *why = "key " + std::to_string(k) + " out of range";
      return false;
    }
    if (i > 0 && elements[i - 1] >= k) {
      *why = "elements not strictly sorted at index " + std::to_string(i);
      return false;
    }
    present[static_cast<std::size_t>(k)] = 1;
  }
  for (std::size_t k = 0; k < present.size(); ++k) {
    const std::int64_t expected = env.initial[k] + net[k];
    if (expected != present[k]) {
      *why = "key " + std::to_string(k) + ": present=" + std::to_string(present[k]) +
             " but populated+net=" + std::to_string(expected);
      return false;
    }
  }
  return true;
}

// ---- one measured run ---------------------------------------------------------

/// One of the equal slices a measured run is cut into. End-to-end metrics
/// are medians over the slices, so a stall in one slice moves the result
/// by at most one rank.
struct Slice {
  std::uint64_t ops = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  LogHistogram txn;  ///< first begin to commit
  LogHistogram due;  ///< due to completion

  void merge(const Slice& o) noexcept {
    ops += o.ops;
    commits += o.commits;
    aborts += o.aborts;
    txn.merge(o.txn);
    due.merge(o.due);
  }
};

constexpr int kSlices = 10;

struct RunResult {
  double seconds = 0;
  std::uint64_t ops = 0;        ///< operations completed in the window
  std::uint64_t attempted = 0;  ///< operations started (offered, open loop)
  std::uint64_t failed = 0;     ///< shed, expired, exception, invalid
  bool valid = true;
  std::string why;
  StmWindow stm;
  std::vector<Slice> slices = std::vector<Slice>(kSlices);
  std::vector<double> slice_seconds = std::vector<double>(kSlices, 0.0);
  LogHistogram txn;  ///< whole run: first begin to commit
  LogHistogram due;  ///< whole run: due to completion
  // Traced runs only.
  Seams seams;
  std::int64_t atomically_ns = 0;
  double worker_wall_ns = 0;
  CmTimings cm;
  // Open loop only.
  LogHistogram queue_wait;  ///< submit to first attempt
  LogHistogram gen_late;    ///< due to submit (producer lateness)
  LogHistogram submit;      ///< TxServer::submit call (traced)
  std::uint64_t max_depth = 0;
  std::uint64_t shed = 0;

  void fail(const std::string& msg) {
    valid = false;
    why = why.empty() ? msg : why + "; " + msg;
  }
  void merge_slices() {
    for (const Slice& s : slices) {
      txn.merge(s.txn);
      due.merge(s.due);
    }
  }
};

// Closed loop ---------------------------------------------------------------------

/// The main thread publishes 0 during warm-up, 1..kSlices for the measured
/// slices, and kSlices + 1 to stop.
constexpr int kStopPhase = kSlices + 1;

struct alignas(64) ClosedWorker {
  std::vector<Slice> slices = std::vector<Slice>(kSlices);
  Seams seams;
  std::int64_t atomically_ns = 0;
  std::int64_t wall_ns = 0;
  StmWindow stm;
  std::vector<std::int64_t> net;
  std::string error;
};

template <bool kTraced>
void closed_worker(const Spec& spec, Env& env, std::uint64_t seed, unsigned idx,
                   const std::atomic<int>& phase, ClosedWorker& out) {
  try {
    wstm::pin_current_thread(idx + 1);  // CPU 0 is left to the sleeping main thread
    stm::ThreadCtx& tc = env.rt->attach_thread();
    OpGen gen(spec, env.zipf.get(), seed, idx);
    stm::ThreadMetrics slice_start;
    int seen = 0;
    std::int64_t window_begin = 0;
    std::int64_t prev_done = now_ns();
    for (;;) {
      const int ph = phase.load(std::memory_order_acquire);
      if (ph != seen) {
        const std::int64_t now = now_ns();
        const stm::ThreadMetrics& c = tc.metrics();
        if (seen > 0) {
          Slice& done = out.slices[static_cast<std::size_t>(seen - 1)];
          done.commits = c.commits - slice_start.commits;
          done.aborts = c.aborts - slice_start.aborts;
        } else {
          out.stm.begin = c;
          if (env.timed != nullptr && tc.slot() < env.timed->max_slots()) {
            env.timed->timings(tc.slot()) = CmTimings{};
          }
          out.seams = Seams{};
          window_begin = now;
          prev_done = now;
        }
        if (ph == kStopPhase) {
          out.stm.end = c;
          out.wall_ns = now - window_begin;
          break;
        }
        slice_start = c;
        seen = ph;
      }
      const Op op = gen.next();
      const std::int64_t t0 = now_ns();
      const bool changed = run_op<kTraced>(*env.rt, tc, *env.set, op, out.seams);
      const std::int64_t t1 = now_ns();
      if (changed && op.kind != OpKind::kContains) {
        out.net[static_cast<std::size_t>(op.key)] += op.kind == OpKind::kInsert ? 1 : -1;
      }
      if (seen > 0) {
        Slice& slice = out.slices[static_cast<std::size_t>(seen - 1)];
        slice.txn.record(t1 - t0);
        slice.due.record(t1 - prev_done);
        ++slice.ops;
        out.atomically_ns += t1 - t0;
      }
      prev_done = t1;
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
}

template <bool kTraced>
RunResult run_closed(const Spec& spec, Env& env, std::uint64_t seed, double seconds) {
  std::vector<std::unique_ptr<ClosedWorker>> outs;
  for (unsigned i = 0; i < spec.workers; ++i) {
    outs.push_back(std::make_unique<ClosedWorker>());
    outs.back()->net.assign(env.initial.size(), 0);
  }
  std::atomic<int> phase{0};
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < spec.workers; ++i) {
    threads.emplace_back(closed_worker<kTraced>, std::cref(spec), std::ref(env), seed, i,
                         std::cref(phase), std::ref(*outs[i]));
  }
  // The main thread sleeps through warm-up and measurement, waking only to
  // publish slice boundaries.
  using Clock = std::chrono::steady_clock;
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  const Clock::time_point begin = Clock::now();
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kSlices));
  std::vector<Clock::time_point> marks{begin};
  phase.store(1, std::memory_order_release);
  for (int i = 1; i <= kSlices; ++i) {
    std::this_thread::sleep_until(begin + i * slice);
    phase.store(i + 1, std::memory_order_release);
    marks.push_back(Clock::now());
  }
  for (auto& t : threads) t.join();

  RunResult r;
  r.seconds = std::chrono::duration<double>(marks.back() - begin).count();
  for (int i = 0; i < kSlices; ++i) {
    r.slice_seconds[static_cast<std::size_t>(i)] =
        std::chrono::duration<double>(marks[static_cast<std::size_t>(i) + 1] -
                                      marks[static_cast<std::size_t>(i)])
            .count();
  }
  std::vector<std::int64_t> net(env.initial.size(), 0);
  for (const auto& w : outs) {
    for (int i = 0; i < kSlices; ++i) {
      r.slices[static_cast<std::size_t>(i)].merge(w->slices[static_cast<std::size_t>(i)]);
    }
    r.seams.add(w->seams);
    r.stm.add(w->stm);
    r.atomically_ns += w->atomically_ns;
    r.worker_wall_ns += static_cast<double>(w->wall_ns);
    for (std::size_t k = 0; k < net.size(); ++k) net[k] += w->net[k];
    if (!w->error.empty()) {
      ++r.failed;
      r.fail("worker exception: " + w->error);
    }
  }
  r.merge_slices();
  for (const Slice& s : r.slices) r.ops += s.ops;
  r.attempted = r.ops + r.failed;
  if (env.timed != nullptr) r.cm = env.timed->total();
  std::string why;
  if (!validate(env, net, &why)) {
    ++r.failed;
    r.fail("validation: " + why);
  }
  return r;
}

// Open loop ------------------------------------------------------------------------

/// What the producer knows about one request; the worker reads it back by
/// the request's sequence number (TxRequest::arg).
struct ReqRecord {
  std::int64_t due_ns;
  std::int64_t submit_ns;
  std::uint64_t seq;
  long key;
  OpKind kind;
};

struct ServeWorker {
  std::vector<Slice> slices = std::vector<Slice>(kSlices);
  LogHistogram queue_wait;
  Seams seams;
};

/// State shared by the producer, the workers' request bodies and done hooks
/// for one TxServer lifetime.
struct ServeShared {
  static std::atomic<std::uint64_t> next_id;

  const std::uint64_t id = next_id.fetch_add(1) + 1;
  structs::TxIntSet* set = nullptr;
  std::atomic<std::int64_t>* net = nullptr;
  /// Requests fall into slices by due time.
  std::int64_t begin_ns = 0;
  std::int64_t slice_ns = 1;
  /// Ring of request records. A slot is rewritten only after `ring.size()`
  /// later submissions, which exceeds every request the queues can hold
  /// plus one in flight per worker, so a record outlives its request.
  std::vector<ReqRecord> ring;
  std::uint64_t mask = 0;
  std::atomic<std::uint64_t> mismatches{0};
  std::mutex mu;
  std::vector<std::unique_ptr<ServeWorker>> workers;  ///< guarded by mu
};
std::atomic<std::uint64_t> ServeShared::next_id{0};

/// A worker thread's view of the request it is running: the first attempt
/// of a request starts its transaction time.
struct ServeTls {
  std::uint64_t shared_id = 0;
  ServeWorker* out = nullptr;
  std::uint64_t seq = ~std::uint64_t{0};
  std::int64_t first_begin = 0;
};
thread_local ServeTls t_serve;

ServeWorker& serve_local(ServeShared& sh) {
  if (t_serve.shared_id != sh.id) {
    std::lock_guard<std::mutex> lock(sh.mu);
    // A worker pins itself on its first request: the producer has CPU 1,
    // the workers take CPUs 2 and up.
    wstm::pin_current_thread(static_cast<unsigned>(2 + sh.workers.size()));
    sh.workers.push_back(std::make_unique<ServeWorker>());
    t_serve = ServeTls{sh.id, sh.workers.back().get(), ~std::uint64_t{0}, 0};
  }
  return *t_serve.out;
}

template <bool kTraced>
std::uint64_t serve_body(stm::Tx& tx, void* ctx, std::uint64_t seq) {
  ServeShared& sh = *static_cast<ServeShared*>(ctx);
  ServeWorker& w = serve_local(sh);
  const std::int64_t t = now_ns();
  if (t_serve.seq != seq) {
    t_serve.seq = seq;
    t_serve.first_begin = t;
  }
  const ReqRecord& rec = sh.ring[seq & sh.mask];
  const Op op{rec.key, rec.kind};
  if constexpr (kTraced) {
    BodyTimer timer(w.seams, op.kind != OpKind::kContains, t);
    return apply(*sh.set, tx, op) ? 1 : 0;
  } else {
    (void)w;
    return apply(*sh.set, tx, op) ? 1 : 0;
  }
}

void serve_done(void* ctx, std::uint64_t seq, std::uint64_t result) {
  ServeShared& sh = *static_cast<ServeShared*>(ctx);
  ServeWorker& w = serve_local(sh);
  const std::int64_t t = now_ns();
  const ReqRecord& rec = sh.ring[seq & sh.mask];
  if (rec.seq != seq) {
    sh.mismatches.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (result != 0 && rec.kind != OpKind::kContains) {
    sh.net[rec.key].fetch_add(rec.kind == OpKind::kInsert ? 1 : -1, std::memory_order_relaxed);
  }
  const std::int64_t slice = std::clamp<std::int64_t>((rec.due_ns - sh.begin_ns) / sh.slice_ns, 0,
                                                      kSlices - 1);
  Slice& s = w.slices[static_cast<std::size_t>(slice)];
  s.due.record(t - rec.due_ns);
  s.txn.record(t - t_serve.first_begin);
  ++s.ops;
  w.queue_wait.record(t_serve.first_begin - rec.submit_ns);
}

struct ProducerOut {
  LogHistogram gen_late, submit;
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
};

/// Waits until `when` without holding the CPU when the wait is long:
/// sleep for the bulk, yield through the last stretch.
void wait_until_ns(std::int64_t when) {
  for (;;) {
    const std::int64_t left = when - now_ns();
    if (left <= 0) return;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

template <bool kTraced>
void producer(const Spec& spec, const Env& env, std::uint64_t seed, std::uint64_t stream,
              ServeShared& sh, serve::TxServer& server, std::int64_t begin,
              const std::atomic<bool>& stop, ProducerOut& out) {
  wstm::pin_current_thread(1);
  OpGen gen(spec, env.zipf.get(), seed, stream);
  const double mean_gap_ns = 1e9 / spec.rate_per_s;
  std::int64_t due = begin;
  for (std::uint64_t seq = 0; !stop.load(std::memory_order_acquire); ++seq) {
    // Exponential gaps make a Poisson stream. A producer that falls behind
    // submits at once: load does not slow down because the system did.
    due += static_cast<std::int64_t>(-std::log(1.0 - gen.rng().uniform01()) * mean_gap_ns);
    wait_until_ns(due);
    const Op op = gen.next();
    const std::int64_t t0 = now_ns();
    sh.ring[seq & sh.mask] = ReqRecord{due, t0, seq, op.key, op.kind};
    serve::TxRequest req;
    req.fn = &serve_body<kTraced>;
    req.done = &serve_done;
    req.ctx = &sh;
    req.arg = seq;
    req.key = static_cast<std::uint64_t>(op.key);
    const serve::SubmitResult res = server.submit(req);
    if constexpr (kTraced) out.submit.record(now_ns() - t0);
    out.gen_late.record(t0 - due);
    ++out.offered;
    if (res != serve::SubmitResult::kAccepted) ++out.rejected;
  }
}

constexpr std::size_t kQueueCapacity = 1 << 16;

/// One TxServer lifetime: produce for `seconds`, then drain and join.
template <bool kTraced>
RunResult serve_once(const Spec& spec, Env& env, std::atomic<std::int64_t>* net,
                     std::uint64_t seed, std::uint64_t stream, double seconds) {
  ServeShared sh;
  sh.set = env.set.get();
  sh.net = net;
  std::size_t ring = 1;
  while (ring <= 2 * (kQueueCapacity * spec.workers + spec.workers)) ring <<= 1;
  sh.ring.resize(ring);
  sh.mask = ring - 1;

  serve::ServerConfig config;
  config.n_workers = spec.workers;
  config.queue_capacity = kQueueCapacity;
  config.policy = "round-robin";
  config.seed = seed;
  serve::TxServer server(*env.rt, config);
  const std::int64_t begin = now_ns();
  sh.begin_ns = begin;
  sh.slice_ns = std::max<std::int64_t>(1, static_cast<std::int64_t>(seconds * 1e9 / kSlices));
  server.start();

  std::atomic<bool> stop{false};
  ProducerOut pout;
  std::thread prod(producer<kTraced>, std::cref(spec), std::cref(env), seed, stream,
                   std::ref(sh), std::ref(server), begin, std::cref(stop), std::ref(pout));
  // The main thread sleeps until the production deadline.
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  prod.join();
  server.stop();  // closes the queues; workers drain the backlog, then join
  const std::int64_t end = now_ns();

  RunResult r;
  r.seconds = static_cast<double>(end - begin) / 1e9;
  r.slice_seconds.assign(kSlices, static_cast<double>(sh.slice_ns) / 1e9);
  r.worker_wall_ns = static_cast<double>(end - begin) * spec.workers;
  for (const auto& w : sh.workers) {
    for (int i = 0; i < kSlices; ++i) {
      r.slices[static_cast<std::size_t>(i)].merge(w->slices[static_cast<std::size_t>(i)]);
    }
    r.queue_wait.merge(w->queue_wait);
    r.seams.add(w->seams);
  }
  r.merge_slices();
  for (const Slice& s : r.slices) r.ops += s.ops;
  r.gen_late = pout.gen_late;
  r.submit = pout.submit;
  r.attempted = pout.offered;
  const serve::TxServer::Stats st = server.stats();
  r.max_depth = st.max_depth;
  r.shed = pout.rejected;
  const std::uint64_t mismatches = sh.mismatches.load();
  if (mismatches != 0) r.fail(std::to_string(mismatches) + " request records overwritten in flight");
  r.failed = pout.rejected + mismatches;
  return r;
}

template <bool kTraced>
RunResult run_open(const Spec& spec, Env& env, std::uint64_t seed, double seconds) {
  std::unique_ptr<std::atomic<std::int64_t>[]> net(
      new std::atomic<std::int64_t>[env.initial.size()]());
  // Warm-up server, then a fresh one for the measured window; both are
  // drained and joined, so the Runtime counters are read at quiescence.
  RunResult warm = serve_once<kTraced>(spec, env, net.get(), seed, 1000, kWarmupSeconds);
  const stm::ThreadMetrics before = env.rt->total_metrics();
  if (env.timed != nullptr) env.timed->reset_all();
  RunResult r = serve_once<kTraced>(spec, env, net.get(), seed, 1001, seconds);
  r.stm = StmWindow{before, env.rt->total_metrics()};
  const auto dropped = static_cast<std::uint64_t>(r.stm.delta(&stm::ThreadMetrics::serve_expired) +
                                                  r.stm.delta(&stm::ThreadMetrics::serve_cancelled));
  r.shed += dropped;
  r.failed += dropped;
  if (env.timed != nullptr) r.cm = env.timed->total();
  if (!warm.valid) r.fail("warm-up: " + warm.why);
  r.attempted += warm.attempted;
  r.failed += warm.failed;

  std::vector<std::int64_t> ledger(env.initial.size());
  for (std::size_t k = 0; k < ledger.size(); ++k) ledger[k] = net[k].load();
  std::string why;
  if (!validate(env, ledger, &why)) {
    ++r.failed;
    r.fail("validation: " + why);
  }
  return r;
}

template <bool kTraced>
RunResult run(const Spec& spec, Env& env, std::uint64_t seed, double seconds) {
  return spec.open_loop ? run_open<kTraced>(spec, env, seed, seconds)
                        : run_closed<kTraced>(spec, env, seed, seconds);
}

// ---- reporting ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A percentile in microseconds, or 0 with a note when fewer than ten
/// samples lie beyond it.
Metric pct_us(const std::string& name, const LogHistogram& h, double p) {
  const std::string counts =
      "n=" + std::to_string(h.count()) + " beyond=" + std::to_string(h.beyond(p));
  if (!h.reportable(p)) return {name, 0.0, "us", counts + " (not reported)"};
  return {name, h.percentile(p) / 1e3, "us", counts};
}

double commits_per_s(const RunResult& r) { return per(static_cast<double>(r.ops), r.seconds); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Median over the slices of each slice's percentile, in microseconds. A
/// slice counts only when ten samples lie beyond its percentile; the
/// metric is reported only when every slice counts.
Metric slice_pct_us(const std::string& name, const RunResult& r, LogHistogram Slice::*which,
                    double p) {
  std::vector<double> v;
  std::uint64_t n = 0;
  std::uint64_t beyond = 0;
  for (const Slice& s : r.slices) {
    const LogHistogram& h = s.*which;
    n += h.count();
    beyond += h.beyond(p);
    if (h.reportable(p)) v.push_back(h.percentile(p) / 1e3);
  }
  const std::string note = "median of " + std::to_string(v.size()) + " slices; n=" +
                           std::to_string(n) + " beyond=" + std::to_string(beyond);
  if (v.size() < r.slices.size()) return {name, 0.0, "us", note + " (not reported)"};
  return {name, median(v), "us", note};
}

/// End-to-end metrics. Closed loops report medians over the slices; the
/// open loop's completions and attempts follow its fixed arrival rate, so
/// they are whole-run ratios.
std::vector<Metric> end_to_end(const Spec& spec, const RunResult& r, double setup_s, int setups,
                               bool* ok) {
  std::vector<Metric> m;
  if (spec.open_loop) {
    m.push_back({"commits_per_s", commits_per_s(r), "1/s", "whole run"});
    m.push_back({"attempts_per_commit",
                 per(r.stm.delta(&stm::ThreadMetrics::commits) +
                         r.stm.delta(&stm::ThreadMetrics::aborts),
                     r.stm.delta(&stm::ThreadMetrics::commits)),
                 "ratio", "whole run"});
  } else {
    std::vector<double> rate, attempts;
    for (std::size_t i = 0; i < r.slices.size(); ++i) {
      const Slice& s = r.slices[i];
      rate.push_back(per(static_cast<double>(s.ops), r.slice_seconds[i]));
      attempts.push_back(
          per(static_cast<double>(s.commits + s.aborts), static_cast<double>(s.commits)));
    }
    const std::string note = "median of " + std::to_string(r.slices.size()) + " slices";
    m.push_back({"commits_per_s", median(rate), "1/s", note});
    m.push_back({"attempts_per_commit", median(attempts), "ratio", note});
  }
  m.push_back(slice_pct_us("txn_p50_us", r, &Slice::txn, 50));
  m.push_back(slice_pct_us("txn_p99_us", r, &Slice::txn, 99));
  m.push_back({"setup_s", setup_s, "s", "median of " + std::to_string(setups) + " set-ups"});
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", ""});
  for (const Metric& x : m) {
    if (!(x.value > 0)) *ok = false;
  }
  return m;
}

std::vector<Metric> per_layer(const RunResult& r, const RunResult& untraced) {
  std::vector<Metric> m;
  const double attempts = static_cast<double>(r.seams.attempts);
  const double commits = r.stm.delta(&stm::ThreadMetrics::commits);
  const double ops = static_cast<double>(r.ops);
  // atomically() wall time: the closed loops time it directly; the open
  // loop times first attempt to completion (r.txn) per request.
  const double atomically_ns =
      r.atomically_ns > 0 ? static_cast<double>(r.atomically_ns) : r.txn.sum();
  m.push_back({"stm.shell_ns_per_attempt",
               per(atomically_ns - static_cast<double>(r.seams.body_ns), attempts), "ns", ""});
  m.push_back({"stm.body_ns_per_attempt", per(static_cast<double>(r.seams.body_ns), attempts),
               "ns", ""});
  m.push_back({"stm.attempts_per_commit", per(attempts, ops), "ratio", ""});
  using TM = stm::ThreadMetrics;
  const double wasted = r.stm.delta(&TM::wasted_ns);
  m.push_back({"stm.wasted_fraction", per(wasted, wasted + r.stm.delta(&TM::committed_ns)),
               "ratio", ""});
  const double conflicts = r.stm.delta(&TM::ww_conflicts) + r.stm.delta(&TM::wr_conflicts) +
                           r.stm.delta(&TM::rw_conflicts);
  m.push_back({"stm.conflicts_per_commit", per(conflicts, commits), "ratio", ""});
  m.push_back({"stm.validations_per_commit", per(r.stm.delta(&TM::validations), commits), "ratio",
               ""});
  m.push_back({"stm.extensions_per_commit", per(r.stm.delta(&TM::extensions), commits), "ratio",
               ""});
  m.push_back({"stm.orec_lock_waits_per_commit", per(r.stm.delta(&TM::orec_lock_waits), commits),
               "ratio", ""});
  m.push_back({"stm.ebr_syncs_per_commit", per(r.stm.delta(&TM::ebr_shard_syncs), commits),
               "ratio", ""});

  m.push_back({"cm.resolve_per_commit", per(static_cast<double>(r.cm.resolve.count()), commits),
               "ratio", ""});
  Metric p50 = pct_us("cm.resolve_ns_p50", r.cm.resolve, 50);
  Metric p99 = pct_us("cm.resolve_ns_p99", r.cm.resolve, 99);
  for (Metric* p : {&p50, &p99}) {
    p->value *= 1e3;
    p->unit = "ns";
    m.push_back(*p);
  }
  m.push_back({"cm.on_begin_ns", r.cm.on_begin.mean(), "ns",
               "n=" + std::to_string(r.cm.on_begin.count())});
  m.push_back({"cm.on_commit_ns", r.cm.on_commit.mean(), "ns",
               "n=" + std::to_string(r.cm.on_commit.count())});
  m.push_back({"cm.on_abort_ns", r.cm.on_abort.mean(), "ns",
               "n=" + std::to_string(r.cm.on_abort.count())});
  m.push_back({"cm.busy_share", per(r.cm.busy_ns(), r.worker_wall_ns), "ratio", ""});

  m.push_back({"structs.read_op_ns",
               per(static_cast<double>(r.seams.read_ns), static_cast<double>(r.seams.read_calls)),
               "ns", "n=" + std::to_string(r.seams.read_calls)});
  m.push_back({"structs.update_op_ns",
               per(static_cast<double>(r.seams.update_ns),
                   static_cast<double>(r.seams.update_calls)),
               "ns", "n=" + std::to_string(r.seams.update_calls)});

  m.push_back(pct_us("serve.p50_us", r.due, 50));
  m.push_back(pct_us("serve.p99_us", r.due, 99));
  m.push_back({"serve.submit_ns", r.submit.mean(), "ns", "n=" + std::to_string(r.submit.count())});
  m.push_back(pct_us("serve.queue_wait_us_p50", r.queue_wait, 50));
  m.push_back(pct_us("serve.queue_wait_us_p99", r.queue_wait, 99));
  m.push_back({"serve.exec_us", r.txn.mean() / 1e3, "us", "mean first attempt to commit"});
  m.push_back(pct_us("serve.gen_late_us_p99", r.gen_late, 99));
  m.push_back({"serve.max_queue_depth", static_cast<double>(r.max_depth), "count", ""});
  m.push_back({"serve.shed", static_cast<double>(r.shed), "count", ""});

  m.push_back({"trace.overhead", 1.0 - per(commits_per_s(r), commits_per_s(untraced)), "ratio",
               "traced vs untraced commits_per_s"});
  return m;
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return "unknown";
  return line;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_metric(const char* layer, const Metric& m) {
  std::printf("  %-6s %-34s %16.6f %-6s %s\n", layer, m.name.c_str(), m.value, m.unit.c_str(),
              m.note.c_str());
}

void print_run(const char* label, const RunResult& r) {
  std::printf("%s: %.3f s, %llu ops, %llu attempted, %llu failed, %s\n", label, r.seconds,
              static_cast<unsigned long long>(r.ops), static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.valid ? "valid" : r.why.c_str());
  std::printf("  ops/s by slice:");
  for (std::size_t i = 0; i < r.slices.size(); ++i) {
    std::printf(" %.0f", per(static_cast<double>(r.slices[i].ops), r.slice_seconds[i]));
  }
  std::printf("\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string rev = "unknown";
  double rate = 0;  ///< overrides the open-loop rate when > 0 (calibration)
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v != "0";
    } else if (k == "--rev") {
      a.rev = v;
    } else if (k == "--rate") {
      a.rate = std::stod(v);
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if ((argc - 1) % 2 != 0) throw std::invalid_argument("flags take one value each");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

int main_impl(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Spec* found = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) found = &s;
  }
  if (found == nullptr) throw std::invalid_argument("unknown workload '" + args.workload + "'");
  Spec spec = *found;
  if (args.rate > 0) spec.rate_per_s = args.rate;

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"host_cpus\": %u, \"clocksource\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"git_rev\": \"%s\", \"workers\": %u, \"rate_per_s\": %g}}\n",
      spec.name, static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      json_escape(read_first_line("/sys/devices/system/clocksource/clocksource0/current_clocksource"))
          .c_str(),
      json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE, json_escape(args.rev).c_str(),
      spec.workers, spec.rate_per_s);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  auto account = [&](const char* label, const RunResult& r) {
    print_run(label, r);
    attempted += r.attempted;
    failed += r.failed;
    if (!r.valid) correct = false;
  };

  if (!args.trace) {
    std::vector<double> setups;
    double spent = 0;
    Env env;
    while (setups.size() < kMinSetups ||
           (spent < kSetupBudgetSeconds && setups.size() < kMaxSetups)) {
      env.rt.reset();  // the Runtime goes before the set it ran on
      env = Env{};
      const std::int64_t t0 = now_ns();
      env = setup(spec, args.seed, false);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      spent += setups.back();
    }
    const RunResult r = run<false>(spec, env, args.seed, args.seconds);
    account("untraced", r);
    metrics = end_to_end(spec, r, median(setups), static_cast<int>(setups.size()), &correct);
    std::printf("end-to-end metrics (%s):\n", spec.name);
    for (const Metric& m : metrics) print_metric("e2e", m);
  } else {
    RunResult base;
    {
      Env env = setup(spec, args.seed, false);
      base = run<false>(spec, env, args.seed, args.seconds / 2);
    }
    account("untraced", base);
    Env env = setup(spec, args.seed, true);
    const RunResult r = run<true>(spec, env, args.seed, args.seconds / 2);
    account("traced", r);
    bool unused = true;
    std::printf("end-to-end metrics of the untraced half (%s):\n", spec.name);
    for (const Metric& m : end_to_end(spec, base, 0.0, 0, &unused)) {
      if (m.name != "setup_s") print_metric("e2e", m);
    }
    metrics = per_layer(r, base);
    std::printf("per-layer metrics of the traced half (%s):\n", spec.name);
    for (const Metric& m : metrics) {
      print_metric(m.name.substr(0, m.name.find('.')).c_str(), m);
    }
  }

  if (attempted == 0) correct = false;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted == 0 ? 1 : attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
