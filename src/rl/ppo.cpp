#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>

#include "rl/health.hpp"
#include "util/expect.hpp"

namespace nptsn {
namespace {

// A B x 1 constant column.
Tensor column(const std::vector<double>& values) {
  Matrix m = Matrix::uninitialized(static_cast<int>(values.size()), 1);
  std::copy(values.begin(), values.end(), m.data());
  return Tensor::constant(std::move(m));
}

}  // namespace

PpoBatch stage_ppo_batch(const ActorCritic& net, const Batch& batch) {
  NPTSN_EXPECT(!batch.steps.empty(), "cannot update from an empty batch");
  NPTSN_EXPECT(batch.advantages.size() == batch.steps.size() &&
                   batch.returns.size() == batch.steps.size(),
               "batch arity mismatch");
  const int rows = static_cast<int>(batch.steps.size());
  const int actions = net.config().num_actions;
  PpoBatch staged;
  std::vector<const Observation*> obs;
  obs.reserve(batch.steps.size());
  staged.mask = Matrix(rows, actions);
  staged.actions.reserve(batch.steps.size());
  std::vector<double> old_logp;
  old_logp.reserve(batch.steps.size());
  for (int i = 0; i < rows; ++i) {
    const StepRecord& s = batch.steps[static_cast<std::size_t>(i)];
    NPTSN_EXPECT(static_cast<int>(s.mask.size()) == actions, "mask size mismatch");
    obs.push_back(&s.obs);
    for (int j = 0; j < actions; ++j) {
      staged.mask.at(i, j) = s.mask[static_cast<std::size_t>(j)] ? 1.0 : 0.0;
    }
    staged.actions.push_back(s.action);
    old_logp.push_back(s.log_prob);
  }
  staged.observations = net.stage_batch(obs);
  staged.old_logp = column(old_logp);
  staged.advantages = column(batch.advantages);
  staged.returns = column(batch.returns);
  return staged;
}

ActorLoss ppo_actor_loss(const ActorCritic& net, const PpoBatch& batch, double clip_ratio) {
  const Tensor log_probs =
      masked_log_softmax_rows(net.forward_logits_batch(batch.observations), batch.mask);
  const Tensor logp = pick_cols(log_probs, batch.actions);
  // ratio = pi(a|s) / pi_old(a|s)
  const Tensor ratio = exp_op(sub(logp, batch.old_logp));
  const Tensor unclipped = hadamard(ratio, batch.advantages);
  const Tensor clipped =
      hadamard(clamp(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio), batch.advantages);
  ActorLoss result;
  // Gradient ASCENT on the objective.
  result.loss = scale(mean_rows(min2(unclipped, clipped)), -1.0);
  double kl_sum = 0.0;
  for (int i = 0; i < logp.rows(); ++i) {
    kl_sum += batch.old_logp.value().at(i, 0) - logp.value().at(i, 0);
  }
  result.approx_kl = kl_sum / static_cast<double>(logp.rows());
  return result;
}

Tensor ppo_critic_loss(const ActorCritic& net, const PpoBatch& batch) {
  const Tensor err = sub(net.forward_value_batch(batch.observations), batch.returns);
  return mean_rows(hadamard(err, err));
}

PpoStats ppo_update(const ActorCritic& net, Adam& actor_opt, Adam& critic_opt,
                    const Batch& batch, const PpoConfig& config) {
  PpoStats stats;

  // Stage the batch once for the whole update: the stacked features/params,
  // the adjacency CSR index and the per-step data are weight-independent, so
  // every actor and critic iteration below reuses the same staged constants.
  const PpoBatch staged = stage_ppo_batch(net, batch);

  for (int iter = 0; iter < config.train_actor_iters; ++iter) {
    ActorLoss al = ppo_actor_loss(net, staged, config.clip_ratio);
    if (iter == 0) stats.actor_loss = al.loss.item();
    stats.approx_kl = al.approx_kl;
    if (config.check_numerics &&
        (!std::isfinite(al.loss.item()) || !std::isfinite(al.approx_kl))) {
      throw NumericAnomalyError(Anomaly{AnomalyCode::kNonFiniteLoss, -1, -1,
                                        al.loss.item(),
                                        "actor loss at PPO iteration " +
                                            std::to_string(iter)});
    }
    // SpinningUp PPO: stop updating the policy once it drifted too far from
    // the behavior policy.
    if (al.approx_kl > 1.5 * config.target_kl) break;
    actor_opt.zero_grad();
    al.loss.backward();
    actor_opt.step();
    ++stats.actor_iters_run;
  }

  for (int iter = 0; iter < config.train_critic_iters; ++iter) {
    Tensor loss = ppo_critic_loss(net, staged);
    if (iter == 0) stats.critic_loss = loss.item();
    if (config.check_numerics && !std::isfinite(loss.item())) {
      throw NumericAnomalyError(Anomaly{AnomalyCode::kNonFiniteLoss, -1, -1,
                                        loss.item(),
                                        "critic loss at PPO iteration " +
                                            std::to_string(iter)});
    }
    critic_opt.zero_grad();
    loss.backward();
    critic_opt.step();
  }
  return stats;
}

}  // namespace nptsn
