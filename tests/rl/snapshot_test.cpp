// Checkpoint/resume of the Trainer: state round trips, kill-and-resume
// determinism, mid-epoch crash recovery, run budgets, and torn-checkpoint
// fallback — the trainer-level half of the fault-injection harness.
#include "rl/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>

#include "rl/trainer.hpp"
#include "testing/corridor_env.hpp"
#include "testing/fault_injector.hpp"
#include "testing/temp_dir.hpp"

namespace nptsn {
namespace {

using nptsn::testing::CorridorEnv;
using nptsn::testing::FaultTrigger;
using nptsn::testing::FaultyEnv;
using nptsn::testing::InjectedFault;
using nptsn::testing::corridor_net_config;
using nptsn::testing::corridor_trainer_config;
using nptsn::testing::corrupt_file_byte;

std::string temp_path(const std::string& name) {
  return nptsn::testing::temp_path("trainer_" + name);
}

void remove_all(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".tmp").c_str());
}

void expect_same_stats(const EpochStats& a, const EpochStats& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.episodes_finished, b.episodes_finished);
  EXPECT_DOUBLE_EQ(a.mean_episode_reward, b.mean_episode_reward);
  EXPECT_DOUBLE_EQ(a.actor_loss, b.actor_loss);
  EXPECT_DOUBLE_EQ(a.critic_loss, b.critic_loss);
  EXPECT_DOUBLE_EQ(a.approx_kl, b.approx_kl);
}

TEST(Snapshot, MatrixRoundTrip) {
  Matrix m(3, 2);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = 0.25 * i - 1.0;
  ByteWriter w;
  write_matrix(w, m);
  ByteReader r(w.data());
  const Matrix back = read_matrix(r);
  ASSERT_TRUE(back.same_shape(m));
  for (int i = 0; i < m.size(); ++i) EXPECT_DOUBLE_EQ(back.data()[i], m.data()[i]);
}

TEST(Snapshot, MatrixShapeMismatchIsRefused) {
  ByteWriter w;
  write_matrix(w, Matrix(2, 2, 1.0));
  ByteReader r(w.data());
  EXPECT_THROW(read_matrix_like(r, Matrix(3, 2)), CheckpointError);
}

TEST(Snapshot, MatrixWithAbsurdDimensionsIsRefused) {
  ByteWriter w;
  w.u32(1u << 30);  // claims a billion rows
  w.u32(1u << 30);
  ByteReader r(w.data());
  EXPECT_THROW(read_matrix(r), CheckpointError);
}

TEST(Snapshot, RngStreamRoundTrip) {
  Rng original(1234);
  for (int i = 0; i < 17; ++i) original.next_u64();  // advance the stream

  ByteWriter w;
  write_rng(w, original);
  ByteReader r(w.data());
  Rng restored = read_rng(r);
  r.expect_exhausted("rng");

  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(restored.next_u64(), original.next_u64());
  }
}

TEST(Snapshot, AllZeroRngStateIsRefused) {
  ByteWriter w;
  for (int i = 0; i < 4; ++i) w.u64(0);
  ByteReader r(w.data());
  EXPECT_THROW(read_rng(r), CheckpointError);
}

TEST(Snapshot, AdamStateRoundTripKeepsNextStepIdentical) {
  auto make = [](std::vector<Tensor>* params) {
    params->clear();
    params->push_back(Tensor::parameter(Matrix(2, 3, 0.5)));
    params->push_back(Tensor::parameter(Matrix(1, 3, -0.25)));
    return Adam(*params, {.learning_rate = 1e-2});
  };
  auto train_step = [](Adam& opt, std::vector<Tensor>& params, double g) {
    opt.zero_grad();
    for (auto& p : params) p.mutable_grad() = Matrix(p.rows(), p.cols(), g);
    opt.step();
  };

  std::vector<Tensor> params_a;
  Adam a = make(&params_a);
  train_step(a, params_a, 0.3);  // non-trivial moments + step count

  ByteWriter w;
  write_adam_state(w, a.export_state());
  std::vector<Tensor> params_b;
  Adam b = make(&params_b);
  train_step(b, params_b, 0.3);  // same values, but state arrives via bytes
  ByteReader r(w.data());
  b.import_state(read_adam_state(r, b));
  r.expect_exhausted("adam");

  train_step(a, params_a, -0.7);
  train_step(b, params_b, -0.7);
  for (std::size_t i = 0; i < params_a.size(); ++i) {
    const Matrix& va = params_a[i].value();
    const Matrix& vb = params_b[i].value();
    for (int k = 0; k < va.size(); ++k) EXPECT_DOUBLE_EQ(vb.data()[k], va.data()[k]);
  }
}

TEST(Snapshot, AdamStateShapeMismatchIsRefused) {
  std::vector<Tensor> params = {Tensor::parameter(Matrix(2, 2, 1.0))};
  Adam opt(params, {});
  ByteWriter w;
  Adam::State wrong;
  wrong.m = {Matrix(3, 2)};
  wrong.v = {Matrix(3, 2)};
  write_adam_state(w, wrong);
  ByteReader r(w.data());
  EXPECT_THROW(read_adam_state(r, opt), CheckpointError);
}

TEST(Snapshot, NetworkParametersRoundTrip) {
  Rng rng_a(1), rng_b(2);
  ActorCritic a(corridor_net_config(), rng_a);
  ActorCritic b(corridor_net_config(), rng_b);  // different init

  ByteWriter w;
  write_parameters(w, a);
  ByteReader r(w.data());
  read_parameters(r, b);
  r.expect_exhausted("parameters");

  CorridorEnv env;
  const auto out_a = a.forward(env.observe());
  const auto out_b = b.forward(env.observe());
  EXPECT_DOUBLE_EQ(out_a.value.item(), out_b.value.item());
  for (int c = 0; c < out_a.logits.cols(); ++c) {
    EXPECT_DOUBLE_EQ(out_a.logits.value().at(0, c), out_b.logits.value().at(0, c));
  }
}

TEST(Snapshot, MismatchedArchitectureIsRefusedWithoutMutation) {
  Rng rng_a(1), rng_b(2);
  ActorCritic a(corridor_net_config(), rng_a);
  auto other_config = corridor_net_config();
  other_config.actor_hidden = {8};  // different layer shapes
  ActorCritic b(other_config, rng_b);

  CorridorEnv env;
  const double before = b.forward(env.observe()).value.item();

  ByteWriter w;
  write_parameters(w, a);
  ByteReader r(w.data());
  EXPECT_THROW(read_parameters(r, b), CheckpointError);
  EXPECT_DOUBLE_EQ(b.forward(env.observe()).value.item(), before);
}

TEST(Snapshot, TrainerStateRoundTripResumesDeterministically) {
  // Reference: one uninterrupted 6-epoch run.
  auto make_trainer = [](ActorCritic& net, int epochs) {
    auto config = corridor_trainer_config();
    config.epochs = epochs;
    return std::make_unique<Trainer>(
        net, [] { return std::make_unique<CorridorEnv>(); }, config);
  };

  Rng rng_ref(11);
  ActorCritic net_ref(corridor_net_config(), rng_ref);
  const auto reference = make_trainer(net_ref, 6)->train();
  ASSERT_EQ(reference.size(), 6u);

  // Interrupted: run 3 epochs, serialize, restore into a FRESH trainer and
  // network, run the remaining 3.
  Rng rng_a(11);
  ActorCritic net_a(corridor_net_config(), rng_a);
  auto first = make_trainer(net_a, 3);
  const auto head = first->train();
  ASSERT_EQ(head.size(), 3u);
  const auto state = first->save_state();
  first.reset();

  Rng rng_b(99);  // deliberately different init; load_state overwrites it
  ActorCritic net_b(corridor_net_config(), rng_b);
  auto second = make_trainer(net_b, 6);
  second->load_state(state);
  EXPECT_EQ(second->next_epoch(), 3);
  const auto tail = second->train();
  ASSERT_EQ(tail.size(), 3u);

  for (int i = 0; i < 3; ++i) {
    expect_same_stats(head[static_cast<std::size_t>(i)], reference[static_cast<std::size_t>(i)]);
    expect_same_stats(tail[static_cast<std::size_t>(i)],
                      reference[static_cast<std::size_t>(i + 3)]);
  }
  EXPECT_TRUE(second->stopped_reason().empty());
}

TEST(Snapshot, CheckpointFileResumeMatchesUninterruptedRun) {
  const std::string path = temp_path("resume");
  remove_all(path);

  auto run = [&](std::uint64_t net_seed, int epochs, bool checkpoint) {
    Rng rng(net_seed);
    ActorCritic net(corridor_net_config(), rng);
    auto config = corridor_trainer_config();
    config.epochs = epochs;
    config.num_workers = 2;
    if (checkpoint) config.checkpoint_path = path;
    Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
    return trainer.train();
  };

  const auto reference = run(21, 6, false);

  // "Kill" after 4 epochs (the process exits; only the checkpoint survives),
  // then resume from the file in a brand-new trainer.
  const auto head = run(21, 4, true);
  ASSERT_EQ(head.size(), 4u);
  const auto tail = run(21, 6, true);
  ASSERT_EQ(tail.size(), 2u) << "resume must not repeat completed epochs";

  for (int i = 0; i < 4; ++i) {
    expect_same_stats(head[static_cast<std::size_t>(i)], reference[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < 2; ++i) {
    expect_same_stats(tail[static_cast<std::size_t>(i)],
                      reference[static_cast<std::size_t>(i + 4)]);
  }
  remove_all(path);
}

TEST(Snapshot, TornCheckpointFallsBackToPreviousGeneration) {
  const std::string path = temp_path("torn");
  remove_all(path);

  auto make = [&](std::uint64_t net_seed, int epochs) {
    auto config = corridor_trainer_config();
    config.epochs = epochs;
    config.checkpoint_path = path;
    Rng rng(net_seed);
    auto net = std::make_unique<ActorCritic>(corridor_net_config(), rng);
    auto trainer = std::make_unique<Trainer>(
        *net, [] { return std::make_unique<CorridorEnv>(); }, config);
    return std::make_pair(std::move(net), std::move(trainer));
  };

  auto [net_ref, ref_trainer] = make(31, 6);
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  const auto reference = ref_trainer->train();

  remove_all(path);
  auto [net_a, first] = make(31, 4);
  const auto head = first->train();
  ASSERT_EQ(head.size(), 4u);

  // Tear the newest checkpoint (epoch 4); the previous generation holds
  // epoch 3. Resume must reject the torn file via checksum and fall back.
  corrupt_file_byte(path, 40);
  auto [net_b, second] = make(31, 6);
  const auto tail = second->train();
  ASSERT_EQ(tail.size(), 3u) << "fallback resumes from epoch 3, not 4";
  for (int i = 0; i < 3; ++i) {
    expect_same_stats(tail[static_cast<std::size_t>(i)],
                      reference[static_cast<std::size_t>(i + 3)]);
  }
  remove_all(path);
}

TEST(Snapshot, LoadStateRejectsMismatchedWorkerCountAndRollout) {
  Rng rng(5);
  ActorCritic net(corridor_net_config(), rng);
  auto config = corridor_trainer_config();
  Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
  const auto state = trainer.save_state();

  auto config2 = config;
  config2.num_workers = 2;
  Rng rng2(5);
  ActorCritic net2(corridor_net_config(), rng2);
  Trainer other(net2, [] { return std::make_unique<CorridorEnv>(); }, config2);
  EXPECT_THROW(other.load_state(state), CheckpointError);

  auto config3 = config;
  config3.steps_per_epoch = 64;
  Rng rng3(5);
  ActorCritic net3(corridor_net_config(), rng3);
  Trainer third(net3, [] { return std::make_unique<CorridorEnv>(); }, config3);
  EXPECT_THROW(third.load_state(state), CheckpointError);
}

TEST(Snapshot, TruncatedStateIsRejected) {
  Rng rng(6);
  ActorCritic net(corridor_net_config(), rng);
  Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); },
                  corridor_trainer_config());
  auto state = trainer.save_state();
  state.resize(state.size() / 2);
  EXPECT_THROW(trainer.load_state(state), CheckpointError);
}

TEST(FaultInjection, WorkerExceptionPropagatesWithoutRetries) {
  Rng rng(7);
  ActorCritic net(corridor_net_config(), rng);
  auto config = corridor_trainer_config();
  config.epochs = 4;
  config.num_workers = 4;
  auto trigger = std::make_shared<FaultTrigger>(200);  // mid-epoch 1..2
  Trainer trainer(
      net,
      [&] {
        return std::make_unique<FaultyEnv>(std::make_unique<CorridorEnv>(), trigger);
      },
      config);
  EXPECT_THROW(trainer.train(), InjectedFault);
  EXPECT_TRUE(trigger->fired());
}

TEST(FaultInjection, TransientFaultIsRetriedAndMatchesCleanRun) {
  auto run = [](std::int64_t fault_at_step, int retries) {
    Rng rng(8);
    ActorCritic net(corridor_net_config(), rng);
    auto config = corridor_trainer_config();
    config.epochs = 5;
    config.num_workers = 2;
    config.max_epoch_retries = retries;
    auto trigger = std::make_shared<FaultTrigger>(fault_at_step);
    Trainer trainer(
        net,
        [&] {
          return std::make_unique<FaultyEnv>(std::make_unique<CorridorEnv>(), trigger);
        },
        config);
    return trainer.train();
  };

  const auto clean = run(0, 0);
  // The fault fires once mid-epoch 2..3; the trainer rolls back to the last
  // epoch boundary and retries, reproducing the clean run exactly.
  const auto recovered = run(300, 1);
  ASSERT_EQ(recovered.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    expect_same_stats(recovered[i], clean[i]);
  }
}

// Throws at EVERY step once the shared counter passes fail_from — a
// permanent fault that survives rollback (the counter is deliberately
// outside the snapshot, like a broken disk would be).
class PermanentFaultEnv final : public Environment {
 public:
  PermanentFaultEnv(std::shared_ptr<std::atomic<std::int64_t>> calls,
                    std::int64_t fail_from)
      : calls_(std::move(calls)), fail_from_(fail_from) {}

  int num_actions() const override { return inner_.num_actions(); }
  Observation observe() const override { return inner_.observe(); }
  const std::vector<std::uint8_t>& action_mask() const override {
    return inner_.action_mask();
  }
  StepResult step(int action) override {
    if (calls_->fetch_add(1) + 1 >= fail_from_) {
      throw InjectedFault("permanent environment fault");
    }
    return inner_.step(action);
  }
  void reset() override { inner_.reset(); }
  bool snapshot_supported() const override { return true; }
  void save_snapshot(ByteWriter& out) const override { inner_.save_snapshot(out); }
  void load_snapshot(ByteReader& in) override { inner_.load_snapshot(in); }

 private:
  CorridorEnv inner_;
  std::shared_ptr<std::atomic<std::int64_t>> calls_;
  std::int64_t fail_from_;
};

TEST(FaultInjection, RetriesExhaustedRethrows) {
  Rng rng(9);
  ActorCritic net(corridor_net_config(), rng);
  auto config = corridor_trainer_config();
  config.epochs = 4;
  config.max_epoch_retries = 2;
  auto calls = std::make_shared<std::atomic<std::int64_t>>(0);
  Trainer trainer(
      net, [&] { return std::make_unique<PermanentFaultEnv>(calls, 150); }, config);
  // Epoch 0 completes (128 steps); epoch 1 faults at step 150 and keeps
  // faulting on both retries, so the third failure surfaces.
  EXPECT_THROW(trainer.train(), InjectedFault);
  EXPECT_EQ(trainer.next_epoch(), 1);
}

TEST(RunBudget, StepBudgetStopsCleanlyWithReason) {
  Rng rng(10);
  ActorCritic net(corridor_net_config(), rng);
  auto config = corridor_trainer_config();
  config.epochs = 12;
  config.max_total_steps = 2 * config.steps_per_epoch;
  Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
  const auto history = trainer.train();
  EXPECT_EQ(history.size(), 2u);
  EXPECT_NE(trainer.stopped_reason().find("step budget"), std::string::npos)
      << "reason: " << trainer.stopped_reason();
}

TEST(RunBudget, WallClockBudgetStopsAfterSlowEpoch) {
  Rng rng(11);
  ActorCritic net(corridor_net_config(), rng);
  auto config = corridor_trainer_config();
  config.epochs = 12;
  config.max_wall_seconds = 0.05;
  // A straggler worker: stalls 120 ms once during epoch 0, pushing the
  // elapsed time past the budget at the next epoch boundary.
  auto trigger = std::make_shared<FaultTrigger>(10);
  Trainer trainer(
      net,
      [&] {
        return std::make_unique<FaultyEnv>(std::make_unique<CorridorEnv>(), trigger,
                                           FaultyEnv::Mode::kStall,
                                           std::chrono::milliseconds(120));
      },
      config);
  const auto history = trainer.train();
  ASSERT_GE(history.size(), 1u);
  EXPECT_LT(history.size(), 12u);
  EXPECT_NE(trainer.stopped_reason().find("wall-clock"), std::string::npos);
}

TEST(RunBudget, ExhaustedStepBudgetRunsNoEpochs) {
  Rng rng(12);
  ActorCritic net(corridor_net_config(), rng);
  auto config = corridor_trainer_config();
  config.epochs = 12;
  config.max_total_steps = 1;  // less than one epoch
  Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
  const auto first = trainer.train();
  EXPECT_EQ(first.size(), 1u);  // budget is checked at epoch boundaries
  const auto second = trainer.train();
  EXPECT_TRUE(second.empty());
  EXPECT_FALSE(trainer.stopped_reason().empty());
}

}  // namespace
}  // namespace nptsn
