// Proximal Policy Optimization update (Schulman et al., Eq. 5 of the paper):
// clipped surrogate objective for the actor, mean-squared error for the
// critic, with KL-based early stopping as in SpinningUp.
#pragma once

#include "nn/adam.hpp"
#include "rl/actor_critic.hpp"
#include "rl/buffer.hpp"

namespace nptsn {

struct PpoConfig {
  double clip_ratio = 0.2;
  int train_actor_iters = 80;
  int train_critic_iters = 80;
  // Early-stop the actor updates when approximate KL exceeds 1.5x this.
  double target_kl = 0.01;
  // Health supervisor: abort the update with a typed NumericAnomalyError the
  // moment a loss or the approximate KL goes NaN/Inf, instead of letting the
  // remaining iterations poison the weights and both Adam moment sets (a
  // NaN KL also disables the early-stop comparison above, so without this
  // check every remaining iteration would apply NaN gradients). Off by
  // default: honest runs are bit-identical either way, the flag only changes
  // how a poisoned update fails.
  bool check_numerics = false;
};

struct PpoStats {
  double actor_loss = 0.0;   // at the first iteration
  double critic_loss = 0.0;  // at the first iteration
  double approx_kl = 0.0;    // at the last actor iteration run
  int actor_iters_run = 0;
};

// One update's inputs, staged once and reused by every actor and critic
// iteration: the batched observations and the per-step data as whole-batch
// constants. It points into the Batch it was staged from, which must
// outlive it.
struct PpoBatch {
  ActorCritic::ObservationBatch observations;
  Matrix mask;               // B x A, 1 where the action was legal
  std::vector<int> actions;  // B, the action taken at each step
  Tensor old_logp;           // B x 1, behavior-policy log pi(a|s)
  Tensor advantages;         // B x 1
  Tensor returns;            // B x 1, the critic's targets
};
PpoBatch stage_ppo_batch(const ActorCritic& net, const Batch& batch);

// The clipped-surrogate actor loss, negated so that minimizing it ascends
// the objective, and the mean approximate KL between the behavior policy and
// the current one. Built as one expression over the whole batch: its tape
// holds the same number of nodes whatever the batch size.
struct ActorLoss {
  Tensor loss;
  double approx_kl = 0.0;
};
ActorLoss ppo_actor_loss(const ActorCritic& net, const PpoBatch& batch, double clip_ratio);
// Mean squared error of the value head against the returns.
Tensor ppo_critic_loss(const ActorCritic& net, const PpoBatch& batch);

// One full PPO update over the batch. actor_opt must own the network's
// actor_parameters() and critic_opt its critic_parameters(); the shared GCN
// weights belong to both and are therefore updated twice.
PpoStats ppo_update(const ActorCritic& net, Adam& actor_opt, Adam& critic_opt,
                    const Batch& batch, const PpoConfig& config);

}  // namespace nptsn
