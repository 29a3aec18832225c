// The one-network-function contract (DESIGN.md §11): the rollout's
// forward(obs) and the PPO update's batched head forwards evaluate the same
// pi_theta. Row i of forward_logits_batch / forward_value_batch over a
// staged batch must equal forward(obs[i]) bit for bit, under both kernel
// families and for every encoder shape the planner can build. forward()
// stages its one-graph batch outside the shared stage cache, so rollouts
// leave the cache's counters untouched.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/environment.hpp"
#include "core/observation_encoder.hpp"
#include "nn/stage_cache.hpp"
#include "rl/actor_critic.hpp"
#include "scenarios/ads.hpp"
#include "scenarios/scenario.hpp"
#include "tsn/recovery.hpp"

namespace nptsn {
namespace {

class KernelGuard {
 public:
  KernelGuard() : kernel_(nn_kernel()) {}
  ~KernelGuard() { set_nn_kernel(kernel_); }

 private:
  NnKernel kernel_;
};

struct Rollout {
  PlanningProblem problem = with_flows(make_ads(), ads_flows());
  NptsnConfig config;
  std::vector<Observation> observations;
};

// Observations of a planning episode stream driven by uniformly random
// masked actions: the adjacencies and features the trainer actually feeds
// the network, including resets across episode ends.
const Rollout& ads_rollout() {
  static const Rollout rollout = [] {
    Rollout r;
    r.config.path_actions = 4;
    const HeuristicRecovery nbf;
    SolutionRecorder recorder;
    Rng rng(5);
    PlanningEnv env(r.problem, nbf, r.config, recorder, rng.split());
    env.reset();
    while (r.observations.size() < 40) {
      const auto& mask = env.action_mask();
      std::vector<int> allowed;
      for (std::size_t a = 0; a < mask.size(); ++a) {
        if (mask[a] != 0) allowed.push_back(static_cast<int>(a));
      }
      if (allowed.empty()) {
        env.reset();
        continue;
      }
      r.observations.push_back(env.observe());
      if (env.step(rng.pick(allowed)).episode_end) env.reset();
    }
    return r;
  }();
  return rollout;
}

struct Variant {
  std::string name;
  int gcn_layers = 2;
  GraphEncoder encoder = GraphEncoder::kGcn;
  bool with_params = true;
};

ActorCritic make_net(const Rollout& r, const Variant& v) {
  const ObservationEncoder encoder(r.problem, r.config.path_actions);
  ActorCritic::Config c;
  c.num_nodes = r.problem.num_nodes();
  c.feature_dim = encoder.feature_dim();
  c.param_dim = v.with_params ? encoder.param_dim() : 0;
  c.num_actions = r.problem.num_switches() + r.config.path_actions;
  c.gcn_layers = v.gcn_layers;
  c.encoder = v.encoder;
  c.actor_hidden = {16, 16};
  c.critic_hidden = {16, 16};
  Rng rng(21);
  return ActorCritic(c, rng);
}

// The rollout's observations, with the parameter vector dropped for the
// param_dim == 0 variant.
std::vector<Observation> observations_for(const Variant& v) {
  std::vector<Observation> obs = ads_rollout().observations;
  if (!v.with_params) {
    for (Observation& o : obs) o.params = Matrix(1, 0);
  }
  return obs;
}

std::vector<const Observation*> pointers(const std::vector<Observation>& obs) {
  std::vector<const Observation*> ptrs;
  for (const Observation& o : obs) ptrs.push_back(&o);
  return ptrs;
}

TEST(ForwardContract, BatchedRowsEqualRolloutForward) {
  const KernelGuard guard;
  const std::vector<Variant> variants = {
      {"gcn_layers=0", 0},
      {"gcn_layers=1", 1},
      {"gcn_layers=2", 2},
      {"gat", 2, GraphEncoder::kGat},
      {"param_dim=0", 2, GraphEncoder::kGcn, /*with_params=*/false},
  };
  for (const NnKernel family : {NnKernel::kReference, NnKernel::kFast}) {
    set_nn_kernel(family);
    for (const Variant& v : variants) {
      SCOPED_TRACE((family == NnKernel::kFast ? "fast " : "reference ") + v.name);
      const ActorCritic net = make_net(ads_rollout(), v);
      const std::vector<Observation> obs = observations_for(v);
      const ActorCritic::ObservationBatch staged = net.stage_batch(pointers(obs));
      const Matrix logits = net.forward_logits_batch(staged).value();
      const Matrix values = net.forward_value_batch(staged).value();
      ASSERT_EQ(logits.rows(), static_cast<int>(obs.size()));
      ASSERT_EQ(values.rows(), static_cast<int>(obs.size()));
      int mismatches = 0;
      for (int i = 0; i < static_cast<int>(obs.size()); ++i) {
        const ActorCritic::Output single = net.forward(obs[static_cast<std::size_t>(i)]);
        ASSERT_EQ(single.logits.cols(), logits.cols());
        for (int j = 0; j < logits.cols(); ++j) {
          mismatches += single.logits.value().at(0, j) != logits.at(i, j);
        }
        mismatches += single.value.item() != values.at(i, 0);
      }
      EXPECT_EQ(mismatches, 0);
    }
  }
}

TEST(ForwardContract, RolloutForwardBypassesTheStageCache) {
  const KernelGuard guard;
  set_nn_kernel(NnKernel::kFast);
  ActorCritic net = make_net(ads_rollout(), {"gcn_layers=2", 2});
  const std::vector<Observation> obs = observations_for({"gcn_layers=2", 2});
  auto cache = std::make_shared<AdjacencyStageCache>();
  net.set_stage_cache(cache);

  // One staging fills the cache; forwards afterwards must not touch it.
  const ActorCritic::ObservationBatch staged = net.stage_batch(pointers(obs));
  const AdjacencyStageCache::Stats before = cache->stats();
  ASSERT_EQ(before.misses, 1u);
  for (const Observation& o : obs) net.forward(o);
  const AdjacencyStageCache::Stats after = cache->stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, before.entries);

  // And the cached batch still forwards to the same rows as the rollout.
  const Matrix logits = net.forward_logits_batch(staged).value();
  const Matrix last = net.forward(obs.back()).logits.value();
  for (int j = 0; j < logits.cols(); ++j) {
    EXPECT_EQ(last.at(0, j), logits.at(logits.rows() - 1, j));
  }
}

}  // namespace
}  // namespace nptsn
