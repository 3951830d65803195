// Striped visible-reader records and the sharded EBR/pool registries.
//
// The single 64-bit reader bitmap capped the process at 64 visible readers
// and funneled every announce/clear through one cache line; these tests pin
// the stripe arithmetic, drive more than 64 simultaneous visible readers
// through one object (impossible before), and churn threads through the
// sharded pool registry and EBR domain from many threads at once — the
// latter two run under TSan in CI (suite names carry Pool/Ebr/Stripes).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cm/registry.hpp"
#include "ebr/ebr.hpp"
#include "stm/runtime.hpp"
#include "stm/tobject.hpp"
#include "util/pool.hpp"

namespace wstm::stm {
namespace {

TEST(ReaderStripes, SlotArithmeticRoundTrips) {
  for (unsigned slot = 0; slot < ReaderStripes::kCapacity; ++slot) {
    const unsigned stripe = ReaderStripes::stripe_of(slot);
    const std::uint64_t bit = ReaderStripes::bit_of(slot);
    EXPECT_LT(stripe, ReaderStripes::kStripes);
    EXPECT_NE(bit, 0u);
    const unsigned bit_index = static_cast<unsigned>(__builtin_ctzll(bit));
    EXPECT_EQ(ReaderStripes::slot_at(stripe, bit_index), slot);
  }
  static_assert(Runtime::kMaxThreads <= ReaderStripes::kCapacity);
}

TEST(ReaderStripes, AnnounceClearAllSlotsIndependently) {
  ReaderStripes rs;
  for (unsigned slot = 0; slot < ReaderStripes::kCapacity; ++slot) {
    EXPECT_FALSE(rs.announced(slot));
    rs.announce(slot);
    EXPECT_TRUE(rs.announced(slot));
  }
  // Every stripe word is fully populated: 64 bits each.
  for (unsigned s = 0; s < ReaderStripes::kStripes; ++s) {
    EXPECT_EQ(rs.load_stripe(s, std::memory_order_relaxed), ~std::uint64_t{0});
  }
  for (unsigned slot = 0; slot < ReaderStripes::kCapacity; slot += 2) rs.clear(slot);
  for (unsigned slot = 0; slot < ReaderStripes::kCapacity; ++slot) {
    EXPECT_EQ(rs.announced(slot), slot % 2 == 1);
  }
}

// More than 64 threads hold visible-read transactions on ONE object at the
// same instant — beyond the old bitmap's ceiling. Each parks inside its
// transaction until every thread has its read announced, then commits.
// Parameterized over managers with per-slot state (Polka's saved karma, the
// window family's per-thread frames), which must cover slots 64 and up.
class ReaderStripesByCm : public ::testing::TestWithParam<std::string> {};

TEST_P(ReaderStripesByCm, MoreThanSixtyFourSimultaneousVisibleReaders) {
  constexpr unsigned kReaders = 80;
  static_assert(kReaders > 64 && kReaders <= Runtime::kMaxThreads);
  // M stays at 64, the window family's cap; slots 64 and up still attach.
  cm::Params params;
  params.threads = 64;
  RuntimeConfig cfg;  // visible reads (default)
  auto rt = std::make_unique<Runtime>(cm::make_manager(GetParam(), params), cfg);
  TObject<long> obj(42);
  std::atomic<unsigned> inside{0};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      ThreadCtx& tc = rt->attach_thread();
      const long v = rt->atomically(tc, [&](Tx& tx) {
        const long x = *obj.open_read(tx);
        inside.fetch_add(1, std::memory_order_acq_rel);
        // Read-only transactions cannot conflict; wait until all 80 reads
        // are simultaneously announced on the stripes.
        while (inside.load(std::memory_order_acquire) < kReaders) {
          std::this_thread::yield();
        }
        return x;
      });
      EXPECT_EQ(v, 42);
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(rt->total_metrics().commits, kReaders);
  EXPECT_EQ(rt->total_metrics().aborts, 0u);
}

INSTANTIATE_TEST_SUITE_P(ReaderStripes, ReaderStripesByCm,
                         ::testing::Values("Polka", "Online-Dynamic"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// A writer must resolve readers across ALL stripes: park more than 64
// readers inside announced read transactions on one object, then commit a
// single Aggressive write. The acquire scans every stripe word and aborts
// every announced reader — beyond the old bitmap's 64-slot reach.
TEST(ReaderStripes, WriterResolvesReadersAcrossStripes) {
  constexpr unsigned kReaders = 72;
  cm::Params params;
  params.threads = kReaders + 1;
  RuntimeConfig cfg;
  auto rt = std::make_unique<Runtime>(cm::make_manager("Aggressive", params), cfg);
  TObject<long> obj(0);
  std::atomic<unsigned> inside{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      ThreadCtx& tc = rt->attach_thread();
      bool counted = false;
      const long v = rt->atomically(tc, [&](Tx& tx) {
        const long x = *obj.open_read(tx);
        if (!counted) {
          counted = true;
          inside.fetch_add(1, std::memory_order_acq_rel);
        }
        // Hold the read announced until the writer has committed. The write
        // aborts this attempt; the retry sees `go` set, falls straight
        // through, and commits against the new version.
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        return x;
      });
      EXPECT_TRUE(v == 0 || v == 1);
    });
  }
  {
    ThreadCtx& tc = rt->attach_thread();
    while (inside.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::yield();
    }
    // All 72 reads are simultaneously announced across the stripes.
    rt->atomically(tc, [&](Tx& tx) { *obj.open_write(tx) = 1; });
    go.store(true, std::memory_order_release);
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(*obj.peek(), 1);
  // Aggressive resolves every announced reader at acquire time; finding all
  // 72 requires scanning slots past bit 63, i.e. stripes beyond the first.
  EXPECT_GE(rt->total_metrics().wr_conflicts, kReaders);
}

// The reader record is allocated on an object's first visible read, so the
// orec engine and DSTM invisible reads, which never announce readers, leave
// every object at its one-line footprint.
TEST(ReaderStripes, OrecAndInvisibleReadRunsAllocateNoRecords) {
  for (const bool orec : {true, false}) {
    RuntimeConfig cfg;
    if (orec) {
      cfg.backend = BackendKind::kOrec;
    } else {
      cfg.visible_reads = false;
    }
    Runtime rt(cm::make_manager("Polka", cm::Params{}), cfg);
    std::vector<std::unique_ptr<TObject<long>>> objs;
    for (long i = 0; i < 8; ++i) objs.push_back(std::make_unique<TObject<long>>(i));
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < 2; ++t) {
      workers.emplace_back([&, t] {
        ThreadCtx& tc = rt.attach_thread();
        for (unsigned i = 0; i < 200; ++i) {
          rt.atomically(tc, [&](Tx& tx) {
            const long a = *objs[(i + t) % objs.size()]->open_read(tx);
            *objs[(i * 3 + t) % objs.size()]->open_write(tx) += a & 1;
          });
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const auto& o : objs) {
      EXPECT_FALSE(o->has_reader_records()) << (orec ? "orec" : "dstm invisible");
    }
  }
}

// A visible read installs the record on the object it reads, and only there.
TEST(ReaderStripes, VisibleReadInstallsOneRecord) {
  Runtime rt(cm::make_manager("Polka", cm::Params{}));
  TObject<long> read(1);
  TObject<long> untouched(2);
  EXPECT_FALSE(read.has_reader_records());
  ThreadCtx& tc = rt.attach_thread();
  EXPECT_EQ(rt.atomically(tc, [&](Tx& tx) { return *read.open_read(tx); }), 1);
  EXPECT_TRUE(read.has_reader_records());
  EXPECT_FALSE(untouched.has_reader_records());
  // Writing through the record-bearing object keeps it; later reads reuse it.
  rt.atomically(tc, [&](Tx& tx) { *read.open_write(tx) = 3; });
  EXPECT_EQ(rt.atomically(tc, [&](Tx& tx) { return *read.open_read(tx); }), 3);
  EXPECT_TRUE(read.has_reader_records());
  EXPECT_EQ(tc.metrics().wr_conflicts, 0u);
}

// Eight threads race the first visible read of a fresh object: one install
// wins and the losers free their blocks and announce on the winner's record.
// Had any reader announced on a block other than the surviving record, the
// writer's stripe scan would miss it; it must find and abort all eight.
// Rounds repeat the race on fresh objects to widen the window.
TEST(ReaderStripes, RacingFirstReadersInstallOneRecord) {
  constexpr unsigned kReaders = 8;
  constexpr int kRounds = 20;
  cm::Params params;
  params.threads = kReaders + 1;
  Runtime rt(cm::make_manager("Aggressive", params));
  ThreadCtx& writer = rt.attach_thread();
  for (int round = 0; round < kRounds; ++round) {
    TObject<long> obj(0);
    std::atomic<bool> start{false};
    std::atomic<bool> go{false};
    std::atomic<unsigned> inside{0};
    std::vector<std::thread> readers;
    for (unsigned t = 0; t < kReaders; ++t) {
      readers.emplace_back([&] {
        ThreadCtx& tc = rt.attach_thread();
        while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
        bool counted = false;
        const long v = rt.atomically(tc, [&](Tx& tx) {
          const long x = *obj.open_read(tx);
          if (!counted) {
            counted = true;
            inside.fetch_add(1, std::memory_order_acq_rel);
          }
          while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
          return x;
        });
        EXPECT_EQ(v, 1);  // the first attempt was aborted by the write
        rt.detach_thread(tc);
      });
    }
    start.store(true, std::memory_order_release);
    while (inside.load(std::memory_order_acquire) < kReaders) std::this_thread::yield();
    EXPECT_TRUE(obj.has_reader_records());
    const std::uint64_t before = writer.metrics().wr_conflicts;
    rt.atomically(writer, [&](Tx& tx) { *obj.open_write(tx) = 1; });
    go.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();
    EXPECT_EQ(writer.metrics().wr_conflicts - before, kReaders) << "round " << round;
  }
}

// Thread churn through the sharded pool registry: pools parked in one
// shard must be re-acquirable (possibly via cross-shard steal) and blocks
// freed cross-thread must survive the park/acquire cycle. TSan coverage
// for the per-shard locks + remote-free stacks.
TEST(PoolShardedRegistry, CrossThreadChurnRecyclesPools) {
  constexpr unsigned kThreads = 16;
  constexpr int kRounds = 40;
  std::vector<std::thread> workers;
  std::atomic<void*> handoff[kThreads] = {};
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        util::Pool* pool = util::Pool::acquire();
        void* block = util::Pool::allocate(pool, 128);
        // Hand the block to the next worker's slot; whoever finds one
        // frees it remotely (exercises the remote-free stack of a pool
        // that may be parked or re-owned by then).
        void* prev = handoff[(t + 1) % kThreads].exchange(block, std::memory_order_acq_rel);
        if (prev != nullptr) util::Pool::deallocate(prev);
        util::Pool::park(pool);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (auto& h : handoff) {
    if (void* p = h.load(std::memory_order_acquire)) util::Pool::deallocate(p);
  }
}

// EBR with the sharded slot array: attach across shards, retire under churn,
// and verify the sync counter hook counts full-domain epoch advances.
TEST(EbrShardedDomain, RetireChurnAcrossShardsReclaimsAndCountsSyncs) {
  ebr::Domain domain;
  constexpr unsigned kThreads = 12;
  constexpr int kRetires = 3000;
  std::vector<std::uint64_t> syncs(kThreads, 0);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ebr::Handle h = domain.attach();
      h.set_sync_counter(&syncs[t]);
      for (int i = 0; i < kRetires; ++i) {
        ebr::Guard g(h);
        h.retire(new std::uint64_t(static_cast<std::uint64_t>(i)),
                 [](void* q) { delete static_cast<std::uint64_t*>(q); });
      }
    });
  }
  for (auto& w : workers) w.join();
  domain.drain();
  std::uint64_t total_syncs = 0;
  for (const std::uint64_t s : syncs) total_syncs += s;
  // kThreads * kRetires retirements at one advance attempt per 64 retires:
  // plenty of opportunities; at least some must have fully synced.
  EXPECT_GT(total_syncs, 0u);
  EXPECT_LT(domain.epoch(), static_cast<std::uint64_t>(kThreads) * kRetires);
}

TEST(EbrShardedDomain, AttachFillsAllShardsUpToCapacity) {
  ebr::Domain domain;
  std::vector<ebr::Handle> handles;
  handles.reserve(ebr::Domain::kMaxThreads);
  for (unsigned i = 0; i < ebr::Domain::kMaxThreads; ++i) {
    handles.push_back(domain.attach());
  }
  EXPECT_THROW(domain.attach(), std::runtime_error);
  handles.clear();  // detach all
  // Slots released: attach works again.
  ebr::Handle again = domain.attach();
  EXPECT_TRUE(again.attached());
}

}  // namespace
}  // namespace wstm::stm
