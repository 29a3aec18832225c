#include "traced_plan.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>

#include "analysis/auditor.hpp"
#include "analysis/engine_cache.hpp"
#include "rl/warm_start.hpp"

namespace perfbench {
namespace {

using namespace nptsn;

// Where the current epoch stands, shared by the decorated environments and
// the epoch callback.
struct EpochMarks {
  double epoch_start = 0.0;
  std::atomic<double> last_env_end{0.0};
  int first_span = 0;  // first span recorded in the current epoch

  void env_call_ended(double end) {
    double seen = last_env_end.load();
    while (seen < end && !last_env_end.compare_exchange_weak(seen, end)) {
    }
  }
};

class TracedSession final : public NbfSession {
 public:
  TracedSession(std::unique_ptr<NbfSession> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  NbfResult recover(const FailureScenario& scenario) const override {
    const Tracer::Scope span(*tracer_, "tsn.nbf");
    return inner_->recover(scenario);
  }

 private:
  std::unique_ptr<NbfSession> inner_;
  Tracer* tracer_;
};

// Forwards stage() so the packed session path stays the one in use.
class TracedNbf final : public StatelessNbf {
 public:
  TracedNbf(const StatelessNbf& inner, Tracer& tracer) : inner_(&inner), tracer_(&tracer) {}

  NbfResult recover(const Topology& topology, const FailureScenario& scenario) const override {
    const Tracer::Scope span(*tracer_, "tsn.nbf");
    return inner_->recover(topology, scenario);
  }

  std::unique_ptr<NbfSession> stage(const Topology& topology) const override {
    std::unique_ptr<NbfSession> staged;
    {
      const Tracer::Scope span(*tracer_, "tsn.stage");
      staged = inner_->stage(topology);
    }
    if (!staged) return nullptr;
    return std::make_unique<TracedSession>(std::move(staged), *tracer_);
  }

 private:
  const StatelessNbf* inner_;
  Tracer* tracer_;
};

class TracedEnv final : public Environment {
 public:
  TracedEnv(std::unique_ptr<PlanningEnv> inner, Tracer& tracer, EpochMarks& marks)
      : inner_(std::move(inner)), tracer_(&tracer), marks_(&marks) {}

  int num_actions() const override { return inner_->num_actions(); }
  Observation observe() const override {
    const Call call(*this, "core.observe");
    return inner_->observe();
  }
  const std::vector<std::uint8_t>& action_mask() const override {
    return inner_->action_mask();
  }
  StepResult step(int action) override {
    const Call call(*this, "core.env_step");
    return inner_->step(action);
  }
  void reset() override {
    const Call call(*this, "core.env_reset");
    inner_->reset();
  }
  Stats stats() const override { return inner_->stats(); }
  bool snapshot_supported() const override { return inner_->snapshot_supported(); }
  void save_snapshot(ByteWriter& out) const override { inner_->save_snapshot(out); }
  void load_snapshot(ByteReader& in) override { inner_->load_snapshot(in); }

 private:
  // One env call's span; its end marks the last env call so far.
  class Call {
   public:
    Call(const TracedEnv& env, const char* name)
        : env_(env), id_(env.tracer_->open(name)) {}
    ~Call() { env_.marks_->env_call_ended(env_.tracer_->close(id_)); }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    const TracedEnv& env_;
    int id_;
  };

  std::unique_ptr<PlanningEnv> inner_;
  Tracer* tracer_;
  EpochMarks* marks_;
};

}  // namespace

PlanningResult traced_plan(const PlanningProblem& problem, const StatelessNbf& nbf,
                           const NptsnConfig& config, Tracer& tracer, int session) {
  // Files are the one plan() feature this composition leaves out.
  if (!config.checkpoint_path.empty() || !config.certificate_path.empty()) {
    throw std::invalid_argument("traced_plan writes no checkpoint or certificate file");
  }
  const Tracer::Scope root(tracer, "core.plan", session);
  const TracedNbf traced_nbf(nbf, tracer);
  EpochMarks marks;

  // From here to the end of certification: the body of nptsn::plan().
  problem.validate();
  set_nn_kernel(config.nn_kernel);
  set_nn_kernel_threads(config.nn_threads);
  set_tsn_kernel(config.tsn_kernel);

  std::unique_ptr<Tracer::Scope> setup =
      std::make_unique<Tracer::Scope>(tracer, "core.session_setup");
  SolutionRecorder recorder;
  const ObservationEncoder encoder(problem, config.path_actions);
  const Soag soag(problem, config.path_actions);

  ActorCritic::Config net_config;
  net_config.num_nodes = problem.num_nodes();
  net_config.feature_dim = encoder.feature_dim();
  net_config.param_dim = encoder.param_dim();
  net_config.num_actions = soag.num_actions();
  net_config.gcn_layers = config.gcn_layers;
  net_config.embedding_dim = config.embedding_dim;
  net_config.encoder = config.use_gat_encoder ? GraphEncoder::kGat : GraphEncoder::kGcn;
  net_config.actor_hidden = config.mlp_hidden;
  net_config.critic_hidden = config.mlp_hidden;

  Rng rng(config.seed);
  ActorCritic net(net_config, rng);
  if (config.stage_cache) net.set_stage_cache(config.stage_cache);
  if (config.warm_start && config.policy_store) config.policy_store->warm_start(net);

  TrainerConfig trainer_config;
  trainer_config.epochs = config.epochs;
  trainer_config.steps_per_epoch = config.steps_per_epoch;
  trainer_config.gamma = config.discount_factor;
  trainer_config.gae_lambda = config.gae_lambda;
  trainer_config.actor_lr = config.actor_lr;
  trainer_config.critic_lr = config.critic_lr;
  trainer_config.ppo.clip_ratio = config.clip_ratio;
  trainer_config.ppo.train_actor_iters = config.train_actor_iters;
  trainer_config.ppo.train_critic_iters = config.train_critic_iters;
  trainer_config.ppo.target_kl = config.target_kl;
  trainer_config.num_workers = config.num_workers;
  trainer_config.seed = rng.next_u64();
  trainer_config.checkpoint_interval = config.checkpoint_interval;
  trainer_config.checkpoint_on_stop = config.checkpoint_on_stop;
  trainer_config.max_epoch_retries = config.max_epoch_retries;
  trainer_config.health.enabled = config.health_checks;
  trainer_config.health.max_rollbacks = config.max_rollbacks;
  trainer_config.health.max_grad_norm = config.max_grad_norm;
  trainer_config.health.max_approx_kl = config.max_approx_kl;
  trainer_config.health.min_mean_entropy = config.min_mean_entropy;
  trainer_config.health.max_critic_loss = config.max_critic_loss;
  trainer_config.max_wall_seconds = config.max_wall_seconds;
  trainer_config.max_total_steps = config.max_total_steps;
  trainer_config.deadline = config.deadline.get();

  const std::shared_ptr<const EngineStaging> staging =
      config.use_verification_engine ? make_engine_staging(problem) : nullptr;

  Rng env_seeder(rng.next_u64());
  Trainer trainer(
      net,
      [&]() -> std::unique_ptr<Environment> {
        return std::make_unique<TracedEnv>(
            std::make_unique<PlanningEnv>(problem, traced_nbf, config, recorder,
                                          env_seeder.split(), staging),
            tracer, marks);
      },
      trainer_config);
  setup.reset();

  // Epoch boundaries: everything up to the last env call is rollout, the
  // rest (the PPO update) runs until the trainer reports the epoch.
  marks.epoch_start = tracer.now();
  marks.last_env_end = marks.epoch_start;
  marks.first_span = tracer.size();
  auto close_epoch_span = [&](const char* name, double start, double end) {
    const int id = tracer.add(name, start, end, root.id(), session);
    tracer.reparent(marks.first_span, id, root.id(), id, end);
  };
  PlanningResult result;
  result.history = trainer.train([&](const EpochStats&) {
    const double now = tracer.now();
    const double last_env_end = marks.last_env_end.load();
    close_epoch_span("rl.rollout", marks.epoch_start, last_env_end);
    close_epoch_span("rl.update", last_env_end, now);
    marks.epoch_start = now;
    marks.last_env_end = now;
    marks.first_span = tracer.size();
  });
  if (tracer.size() > marks.first_span) {
    // Stopped mid-epoch: the partial rollout, then the rollback to the last
    // epoch boundary.
    const double last_env_end = marks.last_env_end.load();
    close_epoch_span("rl.rollout", marks.epoch_start, last_env_end);
    close_epoch_span("rl.stop", last_env_end, tracer.now());
  }

  result.feasible = recorder.has_solution();
  result.best = recorder.best();
  result.best_cost = recorder.best_cost();
  result.solutions_found = recorder.solutions_found();
  result.stopped_reason = trainer.stopped_reason();
  result.epochs_completed = trainer.next_epoch();
  result.anomalies = trainer.ledger().entries();
  result.anomalies_total = trainer.ledger().total();
  result.rollbacks = trainer.total_rollbacks();
  result.quarantined_worker_epochs = trainer.total_quarantined();

  if (config.policy_store && result.feasible) {
    config.policy_store->publish(net, result.best_cost);
  }

  for (const EpochStats& epoch : result.history) {
    result.audits_run += epoch.audits_run;
    result.audits_rejected += epoch.audits_rejected;
  }
  result.audit_failures = recorder.rejection_summaries();
  if (config.audit_mode != AuditMode::kOff && result.best) {
    ++result.audits_run;
    CertificateOptions cert_options;
    cert_options.min_order = config.min_frontier_order;
    cert_options.include_links = config.frontier_include_links;
    cert_options.deadline = config.deadline.get();
    AuditOptions audit_options;
    audit_options.deadline = config.deadline.get();
    CertificateBuildResult built;
    bool clean = false;
    std::string why;
    try {
      {
        const Tracer::Scope span(tracer, "analysis.certificate");
        built = build_certificate(*result.best, traced_nbf, cert_options);
      }
      clean = built.ok;
      if (!built.ok) {
        why = "final audit: certificate build failed (NBF could not prove a "
              "non-safe scenario)";
      } else {
        AuditReport report;
        {
          const Tracer::Scope span(tracer, "analysis.audit");
          report = audit_certificate(problem, built.certificate, audit_options);
        }
        clean = report.ok;
        if (!report.ok) why = "final audit: " + report.summary();
      }
    } catch (const DeadlineExceeded& e) {
      clean = false;
      why = "final audit aborted: " + e.reason();
      if (result.stopped_reason.empty()) result.stopped_reason = e.reason();
    }
    if (clean) {
      result.certificate = std::move(built.certificate);
    } else {
      ++result.audits_rejected;
      result.audit_failures.push_back(std::move(why));
      result.feasible = false;
      result.best.reset();
      result.best_cost = 0.0;
    }
  }
  return result;
}

}  // namespace perfbench
