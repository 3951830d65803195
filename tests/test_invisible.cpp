// Invisible reads: the orec engine is the one invisible-read engine (DSTM
// reads are always visible, the mode the paper used). Engine-agnostic
// invisible-read properties run here on orec; the protocol-specific cases
// (extension, torn snapshots, the commit path) live in test_orec.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "structs/intset.hpp"
#include "structs/sequential_set.hpp"
#include "util/rng.hpp"

namespace wstm::stm {
namespace {

std::unique_ptr<Runtime> make_invisible_runtime(const std::string& cm = "Polka",
                                                unsigned threads = 4,
                                                std::uint32_t preempt = 0) {
  cm::Params params;
  params.threads = threads;
  RuntimeConfig cfg;
  cfg.backend = BackendKind::kOrec;
  cfg.preempt_yield_permille = preempt;
  return std::make_unique<Runtime>(cm::make_manager(cm, params), cfg);
}

// visible_reads = false used to select DSTM invisible reads; that mode is
// gone, and the constructor says where invisible reads live now.
TEST(InvisibleReads, RuntimeRefusesVisibleReadsOff) {
  for (const BackendKind backend : {BackendKind::kDstm, BackendKind::kOrec}) {
    RuntimeConfig cfg;
    cfg.backend = backend;
    cfg.visible_reads = false;
    try {
      Runtime rt(cm::make_manager("Polka", cm::Params{}), cfg);
      ADD_FAILURE() << backend_name(backend) << ": visible_reads = false was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("kOrec"), std::string::npos) << e.what();
    }
  }
}

TEST(InvisibleReads, ReadersSeeConsistentPairsUnderChurn) {
  auto rt = make_invisible_runtime("Polka", 3, /*preempt=*/25);
  TObject<long> x(0);
  TObject<long> y(0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      ThreadCtx& tc = rt->attach_thread();
      while (!stop.load(std::memory_order_acquire)) {
        const auto pair = rt->atomically(tc, [&](Tx& tx) {
          return std::pair<long, long>(*x.open_read(tx), *y.open_read(tx));
        });
        if (pair.first != pair.second) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  {
    std::thread writer([&] {
      ThreadCtx& tc = rt->attach_thread();
      for (int i = 1; i <= 400; ++i) {
        rt->atomically(tc, [&](Tx& tx) {
          *x.open_write(tx) = i;
          *y.open_write(tx) = i;
        });
      }
      stop.store(true, std::memory_order_release);
    });
    writer.join();
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(InvisibleReads, IntSetMatchesOracle) {
  auto rt = make_invisible_runtime();
  ThreadCtx& tc = rt->attach_thread();
  auto set = structs::make_intset("list");
  structs::SequentialSet oracle;
  Xoshiro256 rng(31);
  for (int i = 0; i < 1500; ++i) {
    const long key = static_cast<long>(rng.below(64));
    if (rng.below(2) == 0) {
      EXPECT_EQ(rt->atomically(tc, [&](Tx& tx) { return set->insert(tx, key); }),
                oracle.insert(key));
    } else {
      EXPECT_EQ(rt->atomically(tc, [&](Tx& tx) { return set->remove(tx, key); }),
                oracle.remove(key));
    }
  }
  EXPECT_EQ(set->quiescent_elements(), oracle.elements());
}

TEST(InvisibleReads, ConcurrentCounterHasNoLostUpdates) {
  constexpr unsigned kThreads = 4;
  constexpr int kIncrements = 300;
  auto rt = make_invisible_runtime("Greedy", kThreads, /*preempt=*/25);
  TObject<long> counter(0);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      ThreadCtx& tc = rt->attach_thread();
      for (int i = 0; i < kIncrements; ++i) {
        rt->atomically(tc, [&](Tx& tx) { *counter.open_write(tx) += 1; });
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(*counter.peek(), static_cast<long>(kThreads) * kIncrements);
}

// ---- validation cost --------------------------------------------------------

// A transaction reading N distinct objects must not run a read-set
// validation on every open (that is O(N^2) per transaction). With no
// concurrent writer no read meets a version younger than rv, so a read-only
// transaction validates never and a writing one exactly once, at commit.
TEST(InvisibleSnapshot, ValidationCostIsAmortizedO1) {
  constexpr int kReads = 64;
  auto rt = make_invisible_runtime("Polka", 1);
  ThreadCtx& tc = rt->attach_thread();
  std::vector<std::unique_ptr<TObject<long>>> objs;
  for (int i = 0; i < kReads; ++i) objs.push_back(std::make_unique<TObject<long>>(i));
  TObject<long> sink(0);
  const long sum = rt->atomically(tc, [&](Tx& tx) {
    long s = 0;
    for (const auto& o : objs) s += *o->open_read(tx);
    return s;
  });
  EXPECT_EQ(sum, kReads * (kReads - 1) / 2);
  EXPECT_EQ(rt->total_metrics().validations, 0u);
  EXPECT_EQ(rt->total_metrics().validated_reads, 0u);

  rt->atomically(tc, [&](Tx& tx) {
    long s = 0;
    for (const auto& o : objs) s += *o->open_read(tx);
    *sink.open_write(tx) = s;
  });
  const ThreadMetrics m = rt->total_metrics();
  EXPECT_EQ(m.validations, 1u);
  EXPECT_LE(m.validated_reads, static_cast<std::uint64_t>(kReads) + 1);
  EXPECT_EQ(m.aborts, 0u);
}

// Re-reading an object must not append a second read-set entry (that would
// make R the read *count*, not the footprint) and must hand back the version
// recorded at first read.
TEST(InvisibleSnapshot, DuplicateReadsAreDeduped) {
  constexpr int kRereads = 16;
  auto rt = make_invisible_runtime("Polka", 1);
  ThreadCtx& tc = rt->attach_thread();
  TObject<long> obj(42);
  TObject<long> sink(0);
  rt->atomically(tc, [&](Tx& tx) {
    const long* first = obj.open_read(tx);
    for (int i = 1; i < kRereads; ++i) {
      EXPECT_EQ(obj.open_read(tx), first);  // same committed version object
    }
    *sink.open_write(tx) = *first;  // forces the commit-time validation
  });
  const ThreadMetrics m = rt->total_metrics();
  EXPECT_EQ(m.dup_reads, static_cast<std::uint64_t>(kRereads) - 1);
  // The commit pass sees obj once and the sink's base once, never kRereads
  // entries for obj.
  EXPECT_EQ(m.validations, 1u);
  EXPECT_EQ(m.validated_reads, 2u);
  EXPECT_EQ(m.aborts, 0u);
}

}  // namespace
}  // namespace wstm::stm
