// Self-healing trainer: numeric sentinels, divergence rollback, and worker
// quarantine, driven through the fault-injection harness. The two invariants
// everything here leans on:
//   1. honest runs are bit-identical with the supervisor on or off, and
//   2. a rollback restores the exact bytes of the last-good epoch boundary.
#include "rl/trainer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "testing/corridor_env.hpp"
#include "testing/fault_injector.hpp"
#include "testing/temp_dir.hpp"

namespace nptsn {
namespace {

using testing::CorridorEnv;
using testing::corridor_net_config;
using testing::corridor_trainer_config;
using nptsn::testing::FaultTrigger;
using nptsn::testing::FaultyEnv;
using nptsn::testing::ScopedNumericFault;

std::string temp_path(const std::string& name) {
  return nptsn::testing::temp_path("health_" + name);
}

void remove_all(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".tmp").c_str());
}

TrainerConfig health_config(int workers = 1) {
  auto c = corridor_trainer_config();
  c.epochs = 4;
  c.num_workers = workers;
  c.health.enabled = true;
  c.health.max_rollbacks = 2;
  return c;
}

// The core blob of the v2 checkpoint payload (blob(core) + blob(health)):
// the complete training state, independent of what the ledger recorded.
std::vector<std::uint8_t> core_bytes(const Trainer& trainer) {
  const auto state = trainer.save_state();  // keep alive: the reader borrows it
  ByteReader in(state);
  return in.blob();
}

// A corridor environment that reports an all-masked action row from the
// trigger's action_mask() call on, until the next reset — the SOAG dead-end
// shape the quarantine path must absorb.
class MaskedAfterEnv final : public Environment {
 public:
  explicit MaskedAfterEnv(std::shared_ptr<FaultTrigger> trigger)
      : trigger_(std::move(trigger)) {}

  int num_actions() const override { return inner_.num_actions(); }
  Observation observe() const override { return inner_.observe(); }

  const std::vector<std::uint8_t>& action_mask() const override {
    if (!masked_ && trigger_ && trigger_->fire()) masked_ = true;
    return masked_ ? zero_mask_ : inner_.action_mask();
  }

  StepResult step(int action) override { return inner_.step(action); }

  void reset() override {
    masked_ = false;
    inner_.reset();
  }

  bool snapshot_supported() const override { return true; }
  void save_snapshot(ByteWriter& out) const override { inner_.save_snapshot(out); }
  void load_snapshot(ByteReader& in) override {
    masked_ = false;
    inner_.load_snapshot(in);
  }

 private:
  CorridorEnv inner_;
  std::shared_ptr<FaultTrigger> trigger_;
  mutable bool masked_ = false;
  std::vector<std::uint8_t> zero_mask_ = {0, 0};
};

// --- honest runs -------------------------------------------------------------

class SupervisorBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(SupervisorBitIdentity, HonestRunIdenticalSupervisorOnOff) {
  const int workers = GetParam();
  auto run = [workers](bool enabled) {
    Rng rng(21);
    ActorCritic net(corridor_net_config(), rng);
    auto config = health_config(workers);
    config.health.enabled = enabled;
    // Arm every heuristic with thresholds an honest run stays inside, so the
    // full sentinel sweep executes and still changes nothing.
    config.health.max_grad_norm = 1e6;
    config.health.max_approx_kl = 1e6;
    config.health.min_mean_entropy = 1e-9;
    config.health.max_critic_loss = 1e9;
    Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
    const auto history = trainer.train();
    return std::make_pair(trainer.save_state(), history);
  };
  const auto [off_state, off_history] = run(false);
  const auto [on_state, on_history] = run(true);

  // The whole checkpoint payload matches byte for byte: same weights, same
  // optimizer moments, same RNG streams, and an equally empty health section.
  EXPECT_EQ(off_state, on_state);
  ASSERT_EQ(off_history.size(), on_history.size());
  for (std::size_t i = 0; i < off_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(off_history[i].actor_loss, on_history[i].actor_loss);
    EXPECT_DOUBLE_EQ(off_history[i].mean_episode_reward,
                     on_history[i].mean_episode_reward);
    EXPECT_EQ(off_history[i].rollbacks, 0);
    EXPECT_EQ(off_history[i].quarantined_workers, 0);
  }
  // The supervisor reports entropy; the plain run leaves it zero.
  EXPECT_DOUBLE_EQ(off_history[0].mean_entropy, 0.0);
  EXPECT_GT(on_history[0].mean_entropy, 0.0);
}

TEST_P(SupervisorBitIdentity, RollbackRestoresLastGoodStateExactly) {
  const int workers = GetParam();
  // Reference: an honest 2-epoch run with the supervisor on.
  std::vector<std::uint8_t> reference;
  {
    Rng rng(22);
    ActorCritic net(corridor_net_config(), rng);
    auto config = health_config(workers);
    config.epochs = 2;
    Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
    trainer.train();
    reference = core_bytes(trainer);
  }

  // Faulted: same seed, but the 3rd epoch boundary poisons a weight and the
  // rollback budget is zero, so train() must stop with exactly the state the
  // end of epoch 1 had — bit for bit, for any worker count.
  Rng rng(22);
  ActorCritic net(corridor_net_config(), rng);
  auto config = health_config(workers);
  config.health.max_rollbacks = 0;
  auto trigger = std::make_shared<FaultTrigger>(3);
  ScopedNumericFault fault(ScopedNumericFault::Target::kWeights, trigger);
  Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
  const auto history = trainer.train();

  EXPECT_EQ(history.size(), 2u);
  EXPECT_EQ(trainer.next_epoch(), 2);
  EXPECT_NE(trainer.stopped_reason().find("diverged: non_finite_parameter"),
            std::string::npos);
  EXPECT_EQ(trainer.ledger().count(AnomalyCode::kNonFiniteParameter), 1);
  EXPECT_EQ(core_bytes(trainer), reference);
}

INSTANTIATE_TEST_SUITE_P(Workers, SupervisorBitIdentity, ::testing::Values(1, 2, 4));

// --- transient numeric faults ------------------------------------------------

struct NumericFaultCase {
  ScopedNumericFault::Target target;
  AnomalyCode expected;
  const char* name;
};

class TransientNumericFault : public ::testing::TestWithParam<NumericFaultCase> {};

TEST_P(TransientNumericFault, RollsBackAndCompletesTheRun) {
  const auto& param = GetParam();
  Rng rng(23);
  ActorCritic net(corridor_net_config(), rng);
  const auto config = health_config(2);
  auto trigger = std::make_shared<FaultTrigger>(2);  // 2nd epoch boundary, once
  ScopedNumericFault fault(param.target, trigger);
  Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
  const auto history = trainer.train();

  // One rollback absorbed the fault; the run still completed every epoch.
  EXPECT_TRUE(trainer.stopped_reason().empty()) << trainer.stopped_reason();
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(trainer.total_rollbacks(), 1);
  EXPECT_EQ(trainer.ledger().count(param.expected), 1);
  EXPECT_EQ(trainer.ledger().entries()[0].epoch, 1);
  EXPECT_EQ(history[1].rollbacks, 1);  // the retried epoch reports its cost
  EXPECT_EQ(history[0].rollbacks, 0);
  // The healed network is finite end to end.
  EXPECT_FALSE(find_non_finite_value(net.all_parameters()).first);
}

INSTANTIATE_TEST_SUITE_P(
    Targets, TransientNumericFault,
    ::testing::Values(
        NumericFaultCase{ScopedNumericFault::Target::kWeights,
                         AnomalyCode::kNonFiniteParameter, "weights"},
        NumericFaultCase{ScopedNumericFault::Target::kGradients,
                         AnomalyCode::kNonFiniteGradient, "gradients"},
        NumericFaultCase{ScopedNumericFault::Target::kAdamMoments,
                         AnomalyCode::kNonFiniteAdamMoment, "adam_moments"}),
    [](const ::testing::TestParamInfo<NumericFaultCase>& info) {
      return info.param.name;
    });

TEST(TrainerHealth, FaultedRunIsDeterministic) {
  // Same seed + same injected fault = same rollback, same perturbed retry,
  // same final bytes. The self-healing path is as reproducible as training.
  auto run = [] {
    Rng rng(24);
    ActorCritic net(corridor_net_config(), rng);
    auto trigger = std::make_shared<FaultTrigger>(2);
    ScopedNumericFault fault(ScopedNumericFault::Target::kWeights, trigger);
    Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); },
                    health_config(2));
    trainer.train();
    return trainer.save_state();
  };
  EXPECT_EQ(run(), run());
}

// --- persistent faults -------------------------------------------------------

TEST(TrainerHealth, PersistentFaultExhaustsRollbacksAndStopsDiverged) {
  Rng rng(25);
  ActorCritic net(corridor_net_config(), rng);
  const auto config = health_config(1);  // max_rollbacks = 2
  auto trigger =
      std::make_shared<FaultTrigger>(1, FaultTrigger::Repeat::kAlways);
  ScopedNumericFault fault(ScopedNumericFault::Target::kWeights, trigger);
  Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
  const auto initial = core_bytes(trainer);
  const auto history = trainer.train();

  // Initial attempt + 2 rollback retries all tripped, then a graceful stop.
  EXPECT_TRUE(history.empty());
  EXPECT_EQ(trainer.total_rollbacks(), 2);
  EXPECT_EQ(trainer.ledger().count(AnomalyCode::kNonFiniteParameter), 3);
  EXPECT_NE(trainer.stopped_reason().find("diverged: non_finite_parameter"),
            std::string::npos);
  EXPECT_NE(trainer.stopped_reason().find("after 2 rollbacks"), std::string::npos);
  // The final restore leaves the untouched last-good (here: initial) state.
  EXPECT_EQ(core_bytes(trainer), initial);
}

TEST(TrainerHealth, DivergenceHeuristicStopsTheRun) {
  Rng rng(26);
  ActorCritic net(corridor_net_config(), rng);
  auto config = health_config(1);
  config.health.max_rollbacks = 1;
  // An impossible entropy floor (the 2-action corridor tops out at ln 2):
  // every epoch is "diverged policy" by definition.
  config.health.min_mean_entropy = 10.0;
  Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
  const auto history = trainer.train();

  EXPECT_TRUE(history.empty());
  EXPECT_EQ(trainer.ledger().count(AnomalyCode::kEntropyCollapse), 2);
  EXPECT_NE(trainer.stopped_reason().find("diverged: entropy_collapse"),
            std::string::npos);
}

// --- worker quarantine -------------------------------------------------------

TEST(TrainerHealth, ThrowingWorkerIsQuarantinedAndTheEpochCompletes) {
  Rng rng(27);
  ActorCritic net(corridor_net_config(), rng);
  const auto config = health_config(2);  // 64 steps per worker
  auto trigger = std::make_shared<FaultTrigger>(100);  // mid-epoch-0 step
  Trainer trainer(
      net,
      [&] {
        return std::make_unique<FaultyEnv>(std::make_unique<CorridorEnv>(), trigger);
      },
      config);
  const auto history = trainer.train();

  // The faulted worker's partial rollout was discarded; the epoch went
  // through with the surviving worker's half of the batch, and training
  // carried on at full strength afterwards.
  ASSERT_EQ(history.size(), 4u);
  EXPECT_TRUE(trainer.stopped_reason().empty()) << trainer.stopped_reason();
  EXPECT_EQ(history[0].steps, 64);
  EXPECT_EQ(history[0].quarantined_workers, 1);
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_EQ(history[i].steps, 128);
    EXPECT_EQ(history[i].quarantined_workers, 0);
  }
  EXPECT_EQ(trainer.total_quarantined(), 1);
  ASSERT_EQ(trainer.ledger().count(AnomalyCode::kWorkerException), 1);
  const Anomaly& incident = trainer.ledger().entries()[0];
  EXPECT_EQ(incident.epoch, 0);
  EXPECT_TRUE(incident.worker == 0 || incident.worker == 1);
  EXPECT_NE(incident.detail.find("injected environment fault"), std::string::npos);
}

TEST(TrainerHealth, AllActionsMaskedIsQuarantinedNotFatal) {
  Rng rng(28);
  ActorCritic net(corridor_net_config(), rng);
  const auto config = health_config(2);
  auto trigger = std::make_shared<FaultTrigger>(90);
  Trainer trainer(
      net, [&] { return std::make_unique<MaskedAfterEnv>(trigger); }, config);
  const auto history = trainer.train();

  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(trainer.ledger().count(AnomalyCode::kAllActionsMasked), 1);
  EXPECT_EQ(trainer.total_quarantined(), 1);
  EXPECT_TRUE(trainer.stopped_reason().empty()) << trainer.stopped_reason();
}

TEST(TrainerHealth, WithoutSupervisorWorkerFaultStillPropagates) {
  // The quarantine is opt-in: supervisor off preserves the historical
  // fail-fast contract (modulo max_epoch_retries, tested elsewhere).
  Rng rng(29);
  ActorCritic net(corridor_net_config(), rng);
  auto config = health_config(1);
  config.health.enabled = false;
  auto trigger = std::make_shared<FaultTrigger>(10);
  Trainer trainer(
      net,
      [&] {
        return std::make_unique<FaultyEnv>(std::make_unique<CorridorEnv>(), trigger);
      },
      config);
  EXPECT_THROW(trainer.train(), nptsn::testing::InjectedFault);
}

// --- persistence -------------------------------------------------------------

TEST(TrainerHealth, LedgerAndCountersSurviveCheckpointResume) {
  const auto path = temp_path("ledger_resume.ckpt");
  remove_all(path);
  auto config = health_config(1);
  config.checkpoint_path = path;

  {
    Rng rng(30);
    ActorCritic net(corridor_net_config(), rng);
    auto trigger = std::make_shared<FaultTrigger>(2);
    ScopedNumericFault fault(ScopedNumericFault::Target::kWeights, trigger);
    Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
    trainer.train();
    EXPECT_EQ(trainer.total_rollbacks(), 1);
    EXPECT_EQ(trainer.ledger().total(), 1);
  }

  // A fresh process resumes from the file: the incident history comes back.
  Rng rng(31);
  ActorCritic net(corridor_net_config(), rng);
  Trainer resumed(net, [] { return std::make_unique<CorridorEnv>(); }, config);
  resumed.train();  // nothing left to do; resume happens inside train()
  EXPECT_EQ(resumed.next_epoch(), 4);
  EXPECT_EQ(resumed.total_rollbacks(), 1);
  ASSERT_EQ(resumed.ledger().total(), 1);
  EXPECT_EQ(resumed.ledger().entries()[0].code, AnomalyCode::kNonFiniteParameter);
  remove_all(path);
}

}  // namespace
}  // namespace nptsn
