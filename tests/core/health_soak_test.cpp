// Soak tests for the self-healing runtime at the plan() level: injected NBF
// faults and NaN gradients inside a real planning run, supervisor-on/off
// checkpoint bit-identity, and the anomaly ledger surviving kill-and-resume.
// CI runs these under ASan/UBSan in the soak job.
#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "analysis/failure_analyzer.hpp"
#include "testing/fault_injector.hpp"
#include "testing/temp_dir.hpp"
#include "testing/test_problems.hpp"

namespace nptsn {
namespace {

using nptsn::testing::FaultTrigger;
using nptsn::testing::FaultyNbf;
using nptsn::testing::ScopedNumericFault;
using nptsn::testing::tiny_problem;

std::string temp_path(const std::string& name) {
  return nptsn::testing::temp_path("soak_" + name);
}

void remove_all(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".tmp").c_str());
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

NptsnConfig soak_config() {
  NptsnConfig c;
  c.path_actions = 4;
  c.gcn_layers = 1;
  c.mlp_hidden = {16};
  c.embedding_dim = 8;
  c.epochs = 4;
  c.steps_per_epoch = 48;
  c.train_actor_iters = 5;
  c.train_critic_iters = 5;
  c.seed = 7;
  c.health_checks = true;
  c.max_rollbacks = 2;
  return c;
}

TEST(HealthSoak, InjectedFaultsStillProduceAPlanWithFullLedger) {
  // The ISSUE-4 acceptance scenario: one run, two different injected faults.
  // An NBF crash mid-rollout quarantines a worker; a NaN poked into the
  // gradients at an epoch boundary forces a rollback. The run must complete
  // every epoch anyway, and both incidents must be in the result's ledger.
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  auto config = soak_config();
  config.num_workers = 2;  // the epoch completes from the surviving worker

  auto nbf_trigger = std::make_shared<FaultTrigger>(30);
  FaultyNbf faulty(nbf, nbf_trigger);
  auto grad_trigger = std::make_shared<FaultTrigger>(2);  // 2nd epoch boundary
  ScopedNumericFault grad_fault(ScopedNumericFault::Target::kGradients, grad_trigger);

  const auto result = plan(problem, faulty, config);
  EXPECT_TRUE(nbf_trigger->fired()) << "NBF fault never fired; lower the trigger";
  EXPECT_TRUE(grad_trigger->fired());

  EXPECT_EQ(result.history.size(), 4u);
  EXPECT_TRUE(result.stopped_reason.empty()) << result.stopped_reason;
  EXPECT_FALSE(result.anomalies.empty());
  EXPECT_EQ(result.rollbacks, 1);
  EXPECT_GE(result.quarantined_worker_epochs, 1);
  EXPECT_EQ(result.anomalies_total,
            static_cast<std::int64_t>(result.anomalies.size()));
  std::int64_t worker_faults = 0;
  std::int64_t grad_faults = 0;
  for (const Anomaly& a : result.anomalies) {
    if (a.code == AnomalyCode::kWorkerException) ++worker_faults;
    if (a.code == AnomalyCode::kNonFiniteGradient) ++grad_faults;
  }
  EXPECT_GE(worker_faults, 1);
  EXPECT_EQ(grad_faults, 1);

  // Feasibility with a genuinely verified plan, faults notwithstanding.
  EXPECT_TRUE(result.feasible);
  ASSERT_TRUE(result.best.has_value());
  const FailureAnalyzer analyzer(nbf);
  EXPECT_TRUE(analyzer.analyze(*result.best).reliable);
}

TEST(HealthSoak, HonestCheckpointsBitIdenticalSupervisorOnOff) {
  // With no faults, the supervisor must be invisible down to the checkpoint
  // bytes on disk: same payload, same checksum, same file.
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  const auto path_off = temp_path("honest_off");
  const auto path_on = temp_path("honest_on");
  remove_all(path_off);
  remove_all(path_on);

  auto config = soak_config();
  config.health_checks = false;
  config.checkpoint_path = path_off;
  const auto off = plan(problem, nbf, config);

  config.health_checks = true;
  // Armed-but-quiet heuristics: the whole sentinel sweep runs every epoch.
  config.max_grad_norm = 1e9;
  config.max_approx_kl = 1e6;
  config.min_mean_entropy = 1e-12;
  config.max_critic_loss = 1e12;
  config.checkpoint_path = path_on;
  const auto on = plan(problem, nbf, config);

  EXPECT_TRUE(on.anomalies.empty());
  EXPECT_EQ(on.rollbacks, 0);
  EXPECT_EQ(on.quarantined_worker_epochs, 0);
  ASSERT_EQ(off.history.size(), on.history.size());
  for (std::size_t i = 0; i < off.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(off.history[i].actor_loss, on.history[i].actor_loss);
    EXPECT_DOUBLE_EQ(off.history[i].critic_loss, on.history[i].critic_loss);
  }
  const std::string bytes_off = file_bytes(path_off);
  const std::string bytes_on = file_bytes(path_on);
  ASSERT_FALSE(bytes_off.empty());
  EXPECT_EQ(bytes_off, bytes_on);
  remove_all(path_off);
  remove_all(path_on);
}

TEST(HealthSoak, LedgerRoundTripsThroughKillAndResume) {
  // A rollback happens, the process "dies" at epoch 2, a new plan() call
  // resumes from the checkpoint: the incident history must come back with it
  // and the remaining epochs must run clean.
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  const auto path = temp_path("ledger_resume");
  remove_all(path);
  auto config = soak_config();
  config.checkpoint_path = path;

  config.epochs = 2;
  {
    auto trigger = std::make_shared<FaultTrigger>(1);  // first epoch boundary
    ScopedNumericFault fault(ScopedNumericFault::Target::kGradients, trigger);
    const auto head = plan(problem, nbf, config);
    EXPECT_EQ(head.history.size(), 2u);
    EXPECT_EQ(head.rollbacks, 1);
    ASSERT_EQ(head.anomalies.size(), 1u);
    EXPECT_EQ(head.anomalies[0].code, AnomalyCode::kNonFiniteGradient);
    EXPECT_EQ(head.history[0].rollbacks, 1);
  }

  config.epochs = 4;
  const auto tail = plan(problem, nbf, config);
  EXPECT_EQ(tail.history.size(), 2u) << "resume must not repeat epochs";
  EXPECT_EQ(tail.epochs_completed, 4);
  // The ledger from before the "crash" round-tripped through the file.
  EXPECT_EQ(tail.rollbacks, 1);
  ASSERT_EQ(tail.anomalies.size(), 1u);
  EXPECT_EQ(tail.anomalies[0].code, AnomalyCode::kNonFiniteGradient);
  EXPECT_EQ(tail.anomalies[0].epoch, 0);
  // The resumed epochs themselves ran clean.
  for (const EpochStats& stats : tail.history) {
    EXPECT_EQ(stats.rollbacks, 0);
    EXPECT_EQ(stats.quarantined_workers, 0);
  }
  remove_all(path);
}

TEST(HealthSoak, PersistentEnvironmentFaultDegradesGracefully) {
  // Every NBF call fails from some point on: all workers die, every retry
  // produces an empty epoch, and after max_rollbacks the run stops with a
  // "diverged" reason instead of crashing — still reporting what it had.
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  auto config = soak_config();
  config.max_rollbacks = 1;

  auto trigger = std::make_shared<FaultTrigger>(30, FaultTrigger::Repeat::kAlways);
  FaultyNbf faulty(nbf, trigger);
  const auto result = plan(problem, faulty, config);

  EXPECT_NE(result.stopped_reason.find("diverged"), std::string::npos)
      << result.stopped_reason;
  EXPECT_FALSE(result.anomalies.empty());
  EXPECT_EQ(result.rollbacks, 1);
  // feasible only if a verified solution was found before the faults began;
  // either way the call returned instead of throwing.
  EXPECT_EQ(result.feasible, result.best.has_value());
}

}  // namespace
}  // namespace nptsn
