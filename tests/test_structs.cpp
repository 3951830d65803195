// Data-structure tests: oracle-checked sequential semantics (parameterized
// over list/rbtree/skiplist), red-black invariants, and concurrent stress
// with structural validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "structs/hashtable.hpp"
#include "structs/intset.hpp"
#include "structs/rbtree.hpp"
#include "structs/sequential_set.hpp"
#include "structs/skiplist.hpp"
#include "util/rng.hpp"

namespace wstm::structs {
namespace {

std::unique_ptr<stm::Runtime> make_runtime(const std::string& cm = "Polka", unsigned threads = 4,
                                           stm::BackendKind backend = stm::BackendKind::kDstm,
                                           std::uint32_t yield_permille = 0) {
  cm::Params params;
  params.threads = threads;
  params.window_n = 16;
  stm::RuntimeConfig cfg;
  cfg.backend = backend;
  cfg.preempt_yield_permille = yield_permille;
  return std::make_unique<stm::Runtime>(cm::make_manager(cm, params), cfg);
}

class EveryKind : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(Kinds, EveryKind,
                         ::testing::Values("list", "rbtree", "skiplist", "hashtable"));

TEST_P(EveryKind, BasicInsertRemoveContains) {
  auto rt = make_runtime();
  stm::ThreadCtx& tc = rt->attach_thread();
  auto set = make_intset(GetParam());

  auto ins = [&](long k) { return rt->atomically(tc, [&](stm::Tx& tx) { return set->insert(tx, k); }); };
  auto rem = [&](long k) { return rt->atomically(tc, [&](stm::Tx& tx) { return set->remove(tx, k); }); };
  auto has = [&](long k) { return rt->atomically(tc, [&](stm::Tx& tx) { return set->contains(tx, k); }); };

  EXPECT_FALSE(has(5));
  EXPECT_TRUE(ins(5));
  EXPECT_FALSE(ins(5));  // duplicate
  EXPECT_TRUE(has(5));
  EXPECT_TRUE(ins(3));
  EXPECT_TRUE(ins(7));
  EXPECT_EQ(set->quiescent_elements(), (std::vector<long>{3, 5, 7}));
  EXPECT_TRUE(rem(5));
  EXPECT_FALSE(rem(5));  // absent
  EXPECT_FALSE(has(5));
  EXPECT_EQ(set->quiescent_elements(), (std::vector<long>{3, 7}));
}

TEST_P(EveryKind, MatchesOracleOverRandomOperations) {
  auto rt = make_runtime();
  stm::ThreadCtx& tc = rt->attach_thread();
  auto set = make_intset(GetParam());
  SequentialSet oracle;
  Xoshiro256 rng(2024);

  for (int i = 0; i < 4000; ++i) {
    const long key = static_cast<long>(rng.below(128));
    switch (rng.below(3)) {
      case 0: {
        const bool a = rt->atomically(tc, [&](stm::Tx& tx) { return set->insert(tx, key); });
        EXPECT_EQ(a, oracle.insert(key));
        break;
      }
      case 1: {
        const bool a = rt->atomically(tc, [&](stm::Tx& tx) { return set->remove(tx, key); });
        EXPECT_EQ(a, oracle.remove(key));
        break;
      }
      default: {
        const bool a = rt->atomically(tc, [&](stm::Tx& tx) { return set->contains(tx, key); });
        EXPECT_EQ(a, oracle.contains(key));
      }
    }
  }
  EXPECT_EQ(set->quiescent_elements(), oracle.elements());
}

TEST_P(EveryKind, OperationsComposeWithinOneTransaction) {
  auto rt = make_runtime();
  stm::ThreadCtx& tc = rt->attach_thread();
  auto set = make_intset(GetParam());
  // Move key 1 -> 2 atomically, inserting both first.
  rt->atomically(tc, [&](stm::Tx& tx) { set->insert(tx, 1); });
  rt->atomically(tc, [&](stm::Tx& tx) {
    EXPECT_TRUE(set->remove(tx, 1));
    EXPECT_TRUE(set->insert(tx, 2));
    EXPECT_FALSE(set->contains(tx, 1));
    EXPECT_TRUE(set->contains(tx, 2));
  });
  EXPECT_EQ(set->quiescent_elements(), (std::vector<long>{2}));
}

TEST_P(EveryKind, AbortedTransactionLeavesNoTrace) {
  auto rt = make_runtime();
  stm::ThreadCtx& tc = rt->attach_thread();
  auto set = make_intset(GetParam());
  rt->atomically(tc, [&](stm::Tx& tx) { set->insert(tx, 10); });
  int attempts = 0;
  rt->atomically(tc, [&](stm::Tx& tx) {
    set->insert(tx, 11);
    set->remove(tx, 10);
    if (++attempts < 3) tx.restart();
  });
  EXPECT_EQ(set->quiescent_elements(), (std::vector<long>{11}));
}

TEST_P(EveryKind, ConcurrentDistinctKeyInsertsAllLand) {
  constexpr unsigned kThreads = 4;
  constexpr long kPerThread = 60;
  auto rt = make_runtime("Online-Dynamic", kThreads);
  auto set = make_intset(GetParam());

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      stm::ThreadCtx& tc = rt->attach_thread();
      for (long i = 0; i < kPerThread; ++i) {
        const long key = static_cast<long>(t) * kPerThread + i;
        const bool ok = rt->atomically(tc, [&](stm::Tx& tx) { return set->insert(tx, key); });
        EXPECT_TRUE(ok);
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto elements = set->quiescent_elements();
  ASSERT_EQ(elements.size(), kThreads * kPerThread);
  for (long i = 0; i < static_cast<long>(kThreads * kPerThread); ++i) {
    EXPECT_EQ(elements[static_cast<std::size_t>(i)], i);
  }
}

class KindByCm : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};
INSTANTIATE_TEST_SUITE_P(
    Stress, KindByCm,
    ::testing::Combine(::testing::Values("list", "rbtree", "skiplist", "hashtable"),
                       ::testing::Values("Polka", "Greedy", "Priority", "Online-Dynamic",
                                         "Adaptive-Improved-Dynamic")),
    [](const auto& info) {
      std::string n = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST_P(KindByCm, ConcurrentMixedStressKeepsStructureConsistent) {
  const auto& [kind, cm_name] = GetParam();
  constexpr unsigned kThreads = 4;
  constexpr int kOpsPerThread = 250;
  auto rt = make_runtime(cm_name, kThreads);
  auto set = make_intset(kind);
  std::atomic<long> net{0};

  {
    stm::ThreadCtx& tc = rt->attach_thread();
    for (long k = 0; k < 32; k += 2) {
      rt->atomically(tc, [&](stm::Tx& tx) { set->insert(tx, k); });
      net.fetch_add(1);
    }
    rt->detach_thread(tc);
  }

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      stm::ThreadCtx& tc = rt->attach_thread();
      Xoshiro256 rng(77 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const long key = static_cast<long>(rng.below(32));
        if (rng.below(2) == 0) {
          if (rt->atomically(tc, [&](stm::Tx& tx) { return set->insert(tx, key); })) {
            net.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          if (rt->atomically(tc, [&](stm::Tx& tx) { return set->remove(tx, key); })) {
            net.fetch_sub(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto elements = set->quiescent_elements();
  EXPECT_TRUE(std::is_sorted(elements.begin(), elements.end()));
  EXPECT_EQ(std::adjacent_find(elements.begin(), elements.end()), elements.end());
  EXPECT_EQ(static_cast<long>(elements.size()), net.load());
}

// A hash-table bucket keeps up to HashTable::kInlineKeys keys in its version
// block and moves them to one heap array past that. These tests walk that
// boundary on both engines: the DSTM locator and the orec redo log clone
// buckets through different paths.
class HashTableSpill : public ::testing::TestWithParam<stm::BackendKind> {};
INSTANTIATE_TEST_SUITE_P(Backends, HashTableSpill,
                         ::testing::Values(stm::BackendKind::kDstm, stm::BackendKind::kOrec),
                         [](const auto& info) {
                           return info.param == stm::BackendKind::kDstm ? "dstm" : "orec";
                         });

TEST_P(HashTableSpill, OneBucketCrossesTheInlineBoundaryBothWays) {
  auto rt = make_runtime("Polka", 4, GetParam());
  stm::ThreadCtx& tc = rt->attach_thread();
  HashTable set(1);
  ASSERT_EQ(set.bucket_count(), 1u);
  auto ins = [&](long k) { return rt->atomically(tc, [&](stm::Tx& tx) { return set.insert(tx, k); }); };
  auto rem = [&](long k) { return rt->atomically(tc, [&](stm::Tx& tx) { return set.remove(tx, k); }); };
  auto has = [&](long k) { return rt->atomically(tc, [&](stm::Tx& tx) { return set.contains(tx, k); }); };

  constexpr long kKeys = 2 * static_cast<long>(HashTable::kInlineKeys) + 2;  // 0 … 2·kInline+1
  std::vector<long> order(kKeys);
  std::iota(order.begin(), order.end(), 0L);
  Xoshiro256 rng(0x5b111);
  std::set<long> oracle;
  auto matches_oracle = [&] {
    for (long k = 0; k < kKeys; ++k) {
      if (has(k) != (oracle.count(k) == 1)) return false;
    }
    return set.quiescent_elements() == std::vector<long>(oracle.begin(), oracle.end());
  };

  std::shuffle(order.begin(), order.end(), rng);
  for (const long k : order) {
    EXPECT_TRUE(ins(k)) << k;
    oracle.insert(k);
    ASSERT_TRUE(matches_oracle()) << "after inserting " << k;
    EXPECT_FALSE(ins(k)) << k;  // duplicate
  }
  std::shuffle(order.begin(), order.end(), rng);
  for (const long k : order) {
    EXPECT_TRUE(rem(k)) << k;
    oracle.erase(k);
    ASSERT_TRUE(matches_oracle()) << "after removing " << k;
    EXPECT_FALSE(rem(k)) << k;  // absent
  }
  EXPECT_TRUE(set.quiescent_elements().empty());
}

TEST_P(HashTableSpill, RestartAfterWritingASpilledBucketKeepsCommittedKeys) {
  auto rt = make_runtime("Polka", 4, GetParam());
  stm::ThreadCtx& tc = rt->attach_thread();
  HashTable set(1);
  constexpr long kKeys = 2 * static_cast<long>(HashTable::kInlineKeys);
  for (long k = 0; k < kKeys; ++k) {
    rt->atomically(tc, [&](stm::Tx& tx) { set.insert(tx, k); });
  }
  const std::vector<long> committed = set.quiescent_elements();
  ASSERT_EQ(committed.size(), static_cast<std::size_t>(kKeys));

  int attempts = 0;
  rt->atomically(tc, [&](stm::Tx& tx) {
    if (++attempts > 1) return;
    // The private clone outgrows the committed heap array, then shrinks back
    // into its block; the restart must discard it and free what it took.
    EXPECT_TRUE(set.insert(tx, kKeys));
    for (long k = 0; k <= static_cast<long>(HashTable::kInlineKeys); ++k) {
      EXPECT_TRUE(set.remove(tx, k));
    }
    EXPECT_FALSE(set.contains(tx, 0));
    tx.restart();
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(set.quiescent_elements(), committed);
}

// Three workers on a two-bucket table over 64 keys: the buckets stay spilled,
// so most clones copy a heap array. Every transaction also bumps a shared
// ticket, which orders the committed operations; replaying them in ticket
// order on a SequentialSet must give the same results and the same contents.
// Yields at 20 % of opens make the workers interleave even where the OS
// would run each one's short transactions back to back.
TEST_P(HashTableSpill, ConcurrentRunMatchesSequentialSet) {
  constexpr unsigned kThreads = 3;
  constexpr int kOpsPerThread = 2000;
  constexpr long kKeyRange = 64;
  auto rt = make_runtime("Polka", kThreads, GetParam(), 200);
  HashTable set(2);
  SequentialSet oracle;
  stm::TObject<long> ticket(0);
  {
    stm::ThreadCtx& tc = rt->attach_thread();
    for (long k = 0; k < kKeyRange; k += 2) {
      rt->atomically(tc, [&](stm::Tx& tx) { set.insert(tx, k); });
      oracle.insert(k);
    }
    rt->detach_thread(tc);
  }

  struct Step {
    long ticket;
    int op;  // 0 insert, 1 remove, 2 contains
    long key;
    bool result;
  };
  std::vector<std::vector<Step>> logs(kThreads);
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      stm::ThreadCtx& tc = rt->attach_thread();
      Xoshiro256 rng(0xd1ffULL + t);
      // Start together, or the first worker can finish before the last begins.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const long key = static_cast<long>(rng.below(kKeyRange));
        const int op = static_cast<int>(rng.below(3));
        logs[t].push_back(rt->atomically(tc, [&](stm::Tx& tx) {
          bool result = false;
          if (op == 0) result = set.insert(tx, key);
          if (op == 1) result = set.remove(tx, key);
          if (op == 2) result = set.contains(tx, key);
          long* next = ticket.open_write(tx);
          return Step{(*next)++, op, key, result};
        }));
      }
    });
  }
  for (auto& w : workers) w.join();

  std::vector<Step> history;
  for (const auto& log : logs) history.insert(history.end(), log.begin(), log.end());
  std::sort(history.begin(), history.end(),
            [](const Step& a, const Step& b) { return a.ticket < b.ticket; });
  ASSERT_EQ(history.size(), static_cast<std::size_t>(kThreads) * kOpsPerThread);
  for (std::size_t i = 0; i < history.size(); ++i) {
    const Step& s = history[i];
    ASSERT_EQ(s.ticket, static_cast<long>(i));
    const bool expected = s.op == 0   ? oracle.insert(s.key)
                          : s.op == 1 ? oracle.remove(s.key)
                                      : oracle.contains(s.key);
    ASSERT_EQ(s.result, expected) << "ticket " << s.ticket << " op " << s.op << " key " << s.key;
  }
  EXPECT_EQ(set.quiescent_elements(), oracle.elements());
  // The yields at opens made the workers overlap: some attempts conflicted.
  EXPECT_GT(rt->total_metrics().aborts, 0u);
}

TEST(RBTreeInvariants, HoldAfterRandomChurn) {
  auto rt = make_runtime();
  stm::ThreadCtx& tc = rt->attach_thread();
  RBTreeSet set;
  Xoshiro256 rng(99);
  for (int i = 0; i < 3000; ++i) {
    const long key = static_cast<long>(rng.below(200));
    if (rng.below(2) == 0) {
      rt->atomically(tc, [&](stm::Tx& tx) { set.insert(tx, key); });
    } else {
      rt->atomically(tc, [&](stm::Tx& tx) { set.remove(tx, key); });
    }
    if (i % 250 == 0) {
      std::string why;
      ASSERT_TRUE(set.map().quiescent_invariants_ok(&why)) << why;
    }
  }
  std::string why;
  EXPECT_TRUE(set.map().quiescent_invariants_ok(&why)) << why;
}

TEST(RBTreeInvariants, HoldAfterConcurrentChurn) {
  constexpr unsigned kThreads = 4;
  auto rt = make_runtime("Online-Dynamic", kThreads);
  RBTreeSet set;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      stm::ThreadCtx& tc = rt->attach_thread();
      Xoshiro256 rng(1000 + t);
      for (int i = 0; i < 300; ++i) {
        const long key = static_cast<long>(rng.below(64));
        if (rng.below(2) == 0) {
          rt->atomically(tc, [&](stm::Tx& tx) { set.insert(tx, key); });
        } else {
          rt->atomically(tc, [&](stm::Tx& tx) { set.remove(tx, key); });
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  std::string why;
  EXPECT_TRUE(set.map().quiescent_invariants_ok(&why)) << why;
}

TEST(RBMapSemantics, GetUpdateAndGetForUpdate) {
  auto rt = make_runtime();
  stm::ThreadCtx& tc = rt->attach_thread();
  RBMap map;
  rt->atomically(tc, [&](stm::Tx& tx) {
    EXPECT_TRUE(map.insert(tx, 1, 100));
    EXPECT_FALSE(map.insert(tx, 1, 200));  // duplicate keeps old value
  });
  rt->atomically(tc, [&](stm::Tx& tx) {
    EXPECT_EQ(map.get(tx, 1), std::optional<long>(100));
    EXPECT_EQ(map.get(tx, 2), std::nullopt);
    EXPECT_TRUE(map.update(tx, 1, 150));
    EXPECT_FALSE(map.update(tx, 2, 1));
  });
  rt->atomically(tc, [&](stm::Tx& tx) {
    long* v = map.get_for_update(tx, 1);
    ASSERT_NE(v, nullptr);
    *v += 5;
    EXPECT_EQ(map.get_for_update(tx, 42), nullptr);
  });
  const auto entries = map.quiescent_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], (std::pair<long, long>(1, 155)));
}

TEST(IntSetFactory, RejectsUnknownKind) {
  EXPECT_THROW(make_intset("btree"), std::invalid_argument);
}

TEST(SkipListShape, ElementsStaySortedUnderPrepend) {
  auto rt = make_runtime();
  stm::ThreadCtx& tc = rt->attach_thread();
  SkipList sl;
  for (long k = 100; k >= 0; --k) {
    rt->atomically(tc, [&](stm::Tx& tx) { sl.insert(tx, k); });
  }
  const auto elements = sl.quiescent_elements();
  ASSERT_EQ(elements.size(), 101u);
  EXPECT_TRUE(std::is_sorted(elements.begin(), elements.end()));
}

}  // namespace
}  // namespace wstm::structs
