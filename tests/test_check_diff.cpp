// Differential testing of the transactional structures against
// structs::SequentialSet under forced-abort injection (src/check/).
//
// Every structure runs the same deterministic concurrent program through the
// serialized executor while the fault injector forces spurious aborts and
// locator-CAS failures; the linearizability oracle then checks the observed
// history against sequential set semantics (witnesses are re-verified through
// SequentialSet itself) and the final contents against quiescent_elements().
// Both engines are covered: DSTM (eager locators, visible reader records)
// and orec (redo logs, commit-time locks, read-set validation) take
// different abort paths under injection.
#include <gtest/gtest.h>

#include <string>

#include "check/checker.hpp"

namespace {

using wstm::check::CheckConfig;
using wstm::check::Checker;
using wstm::check::ExploreResult;

class DiffTest : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(DiffTest, MatchesSequentialSetUnderForcedAborts) {
  const auto& [structure, backend] = GetParam();
  CheckConfig c;
  c.structure = structure;
  c.backend = backend;
  c.threads = 3;
  c.ops_per_thread = 10;
  c.key_range = 12;
  // Aggressive has no backoff slices: Polka's real-clock waits while holding
  // the serialized-executor token make each schedule take seconds, and the CM
  // choice is irrelevant to what this suite tests (structure vs oracle).
  c.cm = "Aggressive";
  c.seed = 2024;
  // High injection pressure: roughly one in six reads/writes/commits dies
  // spuriously, and locator CASes fail outright, exercising the retry and
  // cleanup paths the benchmarks rarely hit.
  c.faults.p_abort = 0.15;
  c.faults.p_fail_cas = 0.10;
  c.faults.p_stall = 0.05;
  c.faults.stall_steps = 12;
  Checker checker(c);
  const ExploreResult er = checker.explore(/*num_schedules=*/4, /*stop_on_violation=*/true);
  EXPECT_EQ(er.violations, 0u) << structure << " " << backend << ":\n"
                               << er.first_violation.diagnosis;
  EXPECT_EQ(er.schedules_run, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    Structures, DiffTest,
    ::testing::Combine(::testing::Values("rbtree", "skiplist", "hashtable", "list"),
                       ::testing::Values("dstm", "orec")),
    [](const ::testing::TestParamInfo<DiffTest::ParamType>& info) {
      const std::string& backend = std::get<1>(info.param);
      return std::get<0>(info.param) + (backend == "orec" ? "Orec" : "Dstm");
    });

}  // namespace
