// Differential test of the batched PPO losses (DESIGN.md §11) against a
// frozen copy of the per-step composition they replaced: one small tape
// chain per rollout step (row gather, masked log-softmax, scalar pick,
// ratio, clip, min), averaged over the steps. On batches rolled out on ADS,
// the loss values, the approximate KL and every parameter gradient must
// match bit for bit, including ratios exactly on the clip bounds, ties in
// min2, and zero and negative advantages.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/environment.hpp"
#include "core/observation_encoder.hpp"
#include "rl/distribution.hpp"
#include "rl/ppo.hpp"
#include "scenarios/ads.hpp"
#include "scenarios/scenario.hpp"
#include "tsn/recovery.hpp"

namespace nptsn {
namespace {

// --- the frozen per-step oracle ----------------------------------------------
// Test-local copies of the per-step ops the old composition was built from.
// A fresh gradient is zero-filled and then accumulated into, which is
// bitwise what the library's ops do.

void oracle_add_grad(detail::Node& parent, const Matrix& delta) {
  if (parent.requires_grad) accumulate(parent.ensure_grad(), delta);
}

Tensor oracle_select_row(const Tensor& a, int r) {
  Matrix out(1, a.cols());
  for (int j = 0; j < a.cols(); ++j) out.at(0, j) = a.value().at(r, j);
  return Tensor::make_op(std::move(out), {a}, [r](detail::Node& self) {
    detail::Node& pa = *self.parents[0];
    if (!pa.requires_grad) return;
    Matrix& g = pa.ensure_grad();
    for (int j = 0; j < self.grad.cols(); ++j) g.at(r, j) += self.grad.at(0, j);
  });
}

Tensor oracle_select(const Tensor& a, int r, int c) {
  return Tensor::make_op(Matrix(1, 1, a.value().at(r, c)), {a}, [r, c](detail::Node& self) {
    detail::Node& pa = *self.parents[0];
    Matrix delta(pa.value.rows(), pa.value.cols());
    delta.at(r, c) = self.grad.at(0, 0);
    oracle_add_grad(pa, delta);
  });
}

Tensor oracle_average(const std::vector<Tensor>& items) {
  Matrix out = items.front().value();
  for (std::size_t i = 1; i < items.size(); ++i) accumulate(out, items[i].value());
  const double inv = 1.0 / static_cast<double>(items.size());
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= inv;
  return Tensor::make_op(std::move(out), items, [inv](detail::Node& self) {
    const Matrix delta = scale(self.grad, inv);
    for (const auto& p : self.parents) oracle_add_grad(*p, delta);
  });
}

Tensor oracle_masked_log_softmax_row(const Tensor& logits,
                                     const std::vector<std::uint8_t>& mask) {
  const Matrix& x = logits.value();
  double max_logit = -std::numeric_limits<double>::infinity();
  for (int j = 0; j < x.cols(); ++j) {
    if (mask[static_cast<std::size_t>(j)]) max_logit = std::max(max_logit, x.at(0, j));
  }
  double denom = 0.0;
  for (int j = 0; j < x.cols(); ++j) {
    if (mask[static_cast<std::size_t>(j)]) denom += std::exp(x.at(0, j) - max_logit);
  }
  const double log_denom = std::log(denom) + max_logit;
  Matrix out(1, x.cols());
  for (int j = 0; j < x.cols(); ++j) {
    out.at(0, j) = mask[static_cast<std::size_t>(j)] ? x.at(0, j) - log_denom : -1e30;
  }
  return Tensor::make_op(std::move(out), {logits}, [mask](detail::Node& self) {
    detail::Node& pa = *self.parents[0];
    double grad_sum = 0.0;
    for (int j = 0; j < self.grad.cols(); ++j) {
      if (mask[static_cast<std::size_t>(j)]) grad_sum += self.grad.at(0, j);
    }
    Matrix delta(1, self.grad.cols());
    for (int i = 0; i < delta.cols(); ++i) {
      if (!mask[static_cast<std::size_t>(i)]) continue;
      delta.at(0, i) = self.grad.at(0, i) - std::exp(self.value.at(0, i)) * grad_sum;
    }
    oracle_add_grad(pa, delta);
  });
}

// The per-step actor loss composition, exactly as it stood.
ActorLoss oracle_actor_loss(const ActorCritic& net, const PpoBatch& staged, const Batch& batch,
                            double clip_ratio) {
  const Tensor all_logits = net.forward_logits_batch(staged.observations);
  std::vector<Tensor> objectives;
  double kl_sum = 0.0;
  for (std::size_t i = 0; i < batch.steps.size(); ++i) {
    const StepRecord& s = batch.steps[i];
    const Tensor logits = oracle_select_row(all_logits, static_cast<int>(i));
    const Tensor log_probs = oracle_masked_log_softmax_row(logits, s.mask);
    const Tensor logp = oracle_select(log_probs, 0, s.action);
    const Tensor ratio = exp_op(sub(logp, Tensor::constant(Matrix(1, 1, s.log_prob))));
    const double adv = batch.advantages[i];
    const Tensor unclipped = scale(ratio, adv);
    const Tensor clipped = scale(clamp(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio), adv);
    objectives.push_back(min2(unclipped, clipped));
    kl_sum += s.log_prob - logp.item();
  }
  ActorLoss result;
  result.loss = scale(oracle_average(objectives), -1.0);
  result.approx_kl = kl_sum / static_cast<double>(batch.steps.size());
  return result;
}

Tensor oracle_critic_loss(const ActorCritic& net, const PpoBatch& staged, const Batch& batch) {
  const Tensor all_values = net.forward_value_batch(staged.observations);
  std::vector<Tensor> losses;
  for (std::size_t i = 0; i < batch.steps.size(); ++i) {
    const Tensor value = oracle_select_row(all_values, static_cast<int>(i));
    const Tensor err = sub(value, Tensor::constant(Matrix(1, 1, batch.returns[i])));
    losses.push_back(hadamard(err, err));
  }
  return oracle_average(losses);
}

// The per-step ratio pi(a|s) / pi_old(a|s), as the oracle computes it.
std::vector<double> oracle_ratios(const ActorCritic& net, const PpoBatch& staged,
                                  const Batch& batch) {
  const Tensor all_logits = net.forward_logits_batch(staged.observations);
  std::vector<double> ratios;
  for (std::size_t i = 0; i < batch.steps.size(); ++i) {
    const StepRecord& s = batch.steps[i];
    const Tensor log_probs =
        oracle_masked_log_softmax_row(oracle_select_row(all_logits, static_cast<int>(i)), s.mask);
    ratios.push_back(std::exp(log_probs.value().at(0, s.action) - s.log_prob));
  }
  return ratios;
}

// --- an ADS rollout ------------------------------------------------------------

struct AdsRollout {
  PlanningProblem problem = with_flows(make_ads(), ads_flows());
  NptsnConfig config;
  std::unique_ptr<ActorCritic> net;
  Batch batch;  // advantages and returns are filled per test
};

// 48 steps of planning episodes on ADS, actions sampled from the network's
// own masked policy (so the recorded behavior log-probs are real).
const AdsRollout& ads_setup() {
  static const AdsRollout setup = [] {
    AdsRollout s;
    s.config.path_actions = 4;
    const ObservationEncoder encoder(s.problem, s.config.path_actions);
    const HeuristicRecovery nbf;
    SolutionRecorder recorder;
    Rng rng(5);
    PlanningEnv env(s.problem, nbf, s.config, recorder, rng.split());
    ActorCritic::Config c;
    c.num_nodes = s.problem.num_nodes();
    c.feature_dim = encoder.feature_dim();
    c.param_dim = encoder.param_dim();
    c.num_actions = env.num_actions();
    c.gcn_layers = 2;
    c.actor_hidden = {16, 16};
    c.critic_hidden = {16, 16};
    Rng net_rng(21);
    s.net = std::make_unique<ActorCritic>(c, net_rng);

    env.reset();
    while (s.batch.steps.size() < 48) {
      StepRecord record;
      record.obs = env.observe();
      record.mask = env.action_mask();
      const ActorCritic::Output out = s.net->forward(record.obs);
      const CategoricalSample sample = sample_masked(out.logits.value(), record.mask, rng);
      record.action = sample.action;
      record.log_prob = sample.log_prob;
      record.value = out.value.item();
      const Environment::StepResult step = env.step(sample.action);
      record.reward = step.reward;
      s.batch.steps.push_back(std::move(record));
      if (step.episode_end) env.reset();
    }
    return s;
  }();
  return setup;
}

// The rollout with test-chosen advantages and returns: a mix of positive,
// negative and exactly zero advantages.
Batch with_targets(const Batch& rollout, std::uint64_t seed) {
  Batch batch = rollout;
  Rng rng(seed);
  batch.advantages.clear();
  batch.returns.clear();
  for (std::size_t i = 0; i < batch.steps.size(); ++i) {
    batch.advantages.push_back(i % 5 == 0 ? 0.0 : rng.uniform(-2.0, 2.0));
    batch.returns.push_back(rng.uniform(-3.0, 3.0));
  }
  return batch;
}

// --- comparison ----------------------------------------------------------------

struct Evaluated {
  double loss = 0.0;
  double approx_kl = 0.0;
  std::vector<Matrix> grads;
};

Evaluated evaluate(const ActorCritic& net, const std::function<ActorLoss()>& build) {
  for (Tensor p : net.all_parameters()) p.zero_grad();
  const ActorLoss built = build();
  built.loss.backward();
  Evaluated e;
  e.loss = built.loss.item();
  e.approx_kl = built.approx_kl;
  for (const Tensor& p : net.all_parameters()) e.grads.push_back(p.grad());
  return e;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_identical(const Evaluated& batched, const Evaluated& oracle) {
  EXPECT_TRUE(same_bits(batched.loss, oracle.loss)) << batched.loss << " vs " << oracle.loss;
  EXPECT_TRUE(same_bits(batched.approx_kl, oracle.approx_kl))
      << batched.approx_kl << " vs " << oracle.approx_kl;
  ASSERT_EQ(batched.grads.size(), oracle.grads.size());
  for (std::size_t p = 0; p < batched.grads.size(); ++p) {
    const Matrix& a = batched.grads[p];
    const Matrix& b = oracle.grads[p];
    ASSERT_TRUE(a.same_shape(b)) << "parameter " << p;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(double) * static_cast<std::size_t>(a.size())),
              0)
        << "parameter " << p << " gradient differs";
  }
}

void expect_actor_matches(const ActorCritic& net, const Batch& batch, double clip_ratio) {
  const PpoBatch staged = stage_ppo_batch(net, batch);
  expect_identical(
      evaluate(net, [&] { return ppo_actor_loss(net, staged, clip_ratio); }),
      evaluate(net, [&] { return oracle_actor_loss(net, staged, batch, clip_ratio); }));
}

TEST(PpoLossOracle, ActorLossMatchesPerStepCompositionAsRolledOut) {
  const AdsRollout& s = ads_setup();
  expect_actor_matches(*s.net, with_targets(s.batch, 1), 0.2);
}

TEST(PpoLossOracle, ActorLossMatchesWithRatiosAcrossTheClipBounds) {
  const AdsRollout& s = ads_setup();
  // Shift the behavior log-probs so the ratios spread over [0.55, 1.8]:
  // both clip bounds bind on some steps, with positive, negative and zero
  // advantages.
  Batch batch = with_targets(s.batch, 2);
  Rng rng(3);
  for (StepRecord& step : batch.steps) step.log_prob += rng.uniform(-0.6, 0.6);
  expect_actor_matches(*s.net, batch, 0.2);
}

TEST(PpoLossOracle, ActorLossMatchesWithRatiosExactlyOnTheClipBounds) {
  const AdsRollout& s = ads_setup();
  Batch batch = with_targets(s.batch, 4);
  Rng rng(6);
  for (StepRecord& step : batch.steps) step.log_prob += rng.uniform(-0.3, 0.3);
  const PpoBatch staged = stage_ppo_batch(*s.net, batch);
  const std::vector<double> ratios = oracle_ratios(*s.net, staged, batch);
  int above = -1;
  int below = -1;
  for (int i = 0; i < static_cast<int>(ratios.size()); ++i) {
    const double adv = batch.advantages[static_cast<std::size_t>(i)];
    if (adv == 0.0) continue;
    if (above < 0 && ratios[static_cast<std::size_t>(i)] > 1.05) above = i;
    if (below < 0 && ratios[static_cast<std::size_t>(i)] < 0.95) below = i;
  }
  ASSERT_GE(above, 0);
  ASSERT_GE(below, 0);
  // r - 1 and 1 - r are exact for r in [0.5, 2], so the bound lands on the
  // ratio bit for bit: clamp keeps it, and min2 sees a tie.
  const double upper = ratios[static_cast<std::size_t>(above)];
  const double lower = ratios[static_cast<std::size_t>(below)];
  ASSERT_EQ(1.0 + (upper - 1.0), upper);
  ASSERT_EQ(1.0 - (1.0 - lower), lower);
  expect_actor_matches(*s.net, batch, upper - 1.0);
  expect_actor_matches(*s.net, batch, 1.0 - lower);
}

TEST(PpoLossOracle, ActorLossMatchesWithAllAdvantagesZeroOrNegative) {
  const AdsRollout& s = ads_setup();
  Batch batch = with_targets(s.batch, 7);
  Rng rng(8);
  for (double& adv : batch.advantages) adv = adv > 0.0 ? 0.0 : adv;
  for (StepRecord& step : batch.steps) step.log_prob += rng.uniform(-0.6, 0.6);
  expect_actor_matches(*s.net, batch, 0.2);
}

TEST(PpoLossOracle, CriticLossMatchesPerStepComposition) {
  const AdsRollout& s = ads_setup();
  const Batch batch = with_targets(s.batch, 9);
  const PpoBatch staged = stage_ppo_batch(*s.net, batch);
  const auto as_actor_loss = [](Tensor loss) { return ActorLoss{std::move(loss), 0.0}; };
  expect_identical(
      evaluate(*s.net, [&] { return as_actor_loss(ppo_critic_loss(*s.net, staged)); }),
      evaluate(*s.net, [&] { return as_actor_loss(oracle_critic_loss(*s.net, staged, batch)); }));
}

// Whole updates: ppo_update against the same loop over the oracle losses,
// so later iterations compare at weights the earlier Adam steps moved.
TEST(PpoLossOracle, UpdatesMatchPerStepCompositionOverIterations) {
  const AdsRollout& s = ads_setup();
  Batch batch = with_targets(s.batch, 10);
  Rng rng(11);
  for (StepRecord& step : batch.steps) step.log_prob += rng.uniform(-0.4, 0.4);
  PpoConfig config;
  config.train_actor_iters = 4;
  config.train_critic_iters = 4;
  config.target_kl = 1e9;

  Rng copy_rng(0);
  ActorCritic batched(s.net->config(), copy_rng);
  ActorCritic oracle(s.net->config(), copy_rng);
  batched.copy_parameters_from(*s.net);
  oracle.copy_parameters_from(*s.net);
  const Adam::Options adam{.learning_rate = 1e-2};
  Adam batched_actor(batched.actor_parameters(), adam);
  Adam batched_critic(batched.critic_parameters(), adam);
  Adam oracle_actor(oracle.actor_parameters(), adam);
  Adam oracle_critic(oracle.critic_parameters(), adam);

  const PpoStats stats = ppo_update(batched, batched_actor, batched_critic, batch, config);

  const PpoBatch staged = stage_ppo_batch(oracle, batch);
  double actor_loss = 0.0;
  double critic_loss = 0.0;
  for (int iter = 0; iter < config.train_actor_iters; ++iter) {
    const ActorLoss al = oracle_actor_loss(oracle, staged, batch, config.clip_ratio);
    if (iter == 0) actor_loss = al.loss.item();
    oracle_actor.zero_grad();
    al.loss.backward();
    oracle_actor.step();
  }
  for (int iter = 0; iter < config.train_critic_iters; ++iter) {
    const Tensor loss = oracle_critic_loss(oracle, staged, batch);
    if (iter == 0) critic_loss = loss.item();
    oracle_critic.zero_grad();
    loss.backward();
    oracle_critic.step();
  }

  EXPECT_TRUE(same_bits(stats.actor_loss, actor_loss));
  EXPECT_TRUE(same_bits(stats.critic_loss, critic_loss));
  const std::vector<Tensor> a = batched.all_parameters();
  const std::vector<Tensor> b = oracle.all_parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(std::memcmp(a[p].value().data(), b[p].value().data(),
                          sizeof(double) * static_cast<std::size_t>(a[p].value().size())),
              0)
        << "parameter " << p << " differs after the update";
  }
}

// Distinct tape nodes reachable from t.
std::size_t tape_size(const Tensor& t) {
  std::unordered_set<const detail::Node*> seen;
  std::vector<const detail::Node*> stack = {t.node().get()};
  while (!stack.empty()) {
    const detail::Node* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    for (const auto& parent : node->parents) stack.push_back(parent.get());
  }
  return seen.size();
}

TEST(PpoLossOracle, LossTapesDoNotGrowWithTheBatch) {
  const AdsRollout& s = ads_setup();
  const Batch full = with_targets(s.batch, 12);
  Batch small = full;
  small.steps.resize(6);
  small.advantages.resize(6);
  small.returns.resize(6);
  const PpoBatch staged_small = stage_ppo_batch(*s.net, small);
  const PpoBatch staged_full = stage_ppo_batch(*s.net, full);
  EXPECT_EQ(tape_size(ppo_actor_loss(*s.net, staged_small, 0.2).loss),
            tape_size(ppo_actor_loss(*s.net, staged_full, 0.2).loss));
  EXPECT_EQ(tape_size(ppo_critic_loss(*s.net, staged_small)),
            tape_size(ppo_critic_loss(*s.net, staged_full)));
}

}  // namespace
}  // namespace nptsn
