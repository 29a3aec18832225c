#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>

#include "analysis/auditor.hpp"
#include "analysis/engine_cache.hpp"
#include "bench/common.hpp"
#include "core/planner.hpp"
#include "nn/stage_cache.hpp"
#include "scenarios/generator.hpp"
#include "scenarios/orion.hpp"
#include "scenarios/scenario.hpp"
#include "service/service.hpp"
#include "trace.hpp"
#include "traced_plan.hpp"

namespace perfbench {
namespace {

using namespace nptsn;
using Clock = std::chrono::steady_clock;

// --- workload shapes ---------------------------------------------------------
// plan-orion: the PPO update dominates (ROADMAP "Measured at this re-anchor").
constexpr int kOrionFlows = 4;
constexpr int kPlanEpochs = 2;
constexpr std::size_t kMinPlans = 2;
// cancel-orion: short epochs, cancelled at offsets spread over one window.
constexpr int kCancelStepsPerEpoch = 64;
constexpr int kMinCancels = 20;
// serve-zonal: open-loop arrivals below the 2 x 1 service's capacity.
constexpr double kServeRatePerSecond = 4.0;
constexpr int kServeHotProblems = 8;
// Set-up is timed this many times per run and reported as the median.
constexpr int kSetupRepeats = 31;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear interpolation between closest ranks (numpy's default).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

// Peak resident set of this process, from /proc.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// Times `build` kSetupRepeats times and keeps the last result.
template <class Build>
auto timed_setup(Build build, double* median_seconds) {
  std::vector<double> seconds;
  std::optional<decltype(build())> built;
  for (int i = 0; i < kSetupRepeats; ++i) {
    built.reset();
    const auto start = Clock::now();
    built.emplace(build());
    seconds.push_back(seconds_since(start));
  }
  *median_seconds = median(seconds);
  return std::move(*built);
}

std::vector<std::uint8_t> topology_bytes(const std::optional<Topology>& topology) {
  if (!topology) return {};
  ByteWriter out;
  save_topology(*topology, out);
  return out.data();
}

std::vector<std::uint8_t> certificate_bytes(
    const std::optional<ReliabilityCertificate>& certificate) {
  if (!certificate) return {};
  ByteWriter out;
  save_certificate(*certificate, out);
  return out.data();
}

// The deterministic EpochStats fields; verify_nbf_executed and the reuse and
// timing fields depend on cache warmth and are not compared.
bool same_history(const std::vector<EpochStats>& a, const std::vector<EpochStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const EpochStats& x = a[i];
    const EpochStats& y = b[i];
    if (x.epoch != y.epoch || x.mean_episode_reward != y.mean_episode_reward ||
        x.episodes_finished != y.episodes_finished || x.actor_loss != y.actor_loss ||
        x.critic_loss != y.critic_loss || x.approx_kl != y.approx_kl ||
        x.steps != y.steps || x.verify_nbf_calls != y.verify_nbf_calls ||
        x.audits_run != y.audits_run || x.audits_rejected != y.audits_rejected ||
        x.quarantined_workers != y.quarantined_workers || x.rollbacks != y.rollbacks ||
        x.mean_entropy != y.mean_entropy) {
      return false;
    }
  }
  return true;
}

// Gate: plain plan() and the traced composition ran the same program.
void check_same_run(const PlanningResult& plain, const PlanningResult& traced,
                    const std::string& what, Outcome& outcome) {
  if (!same_history(plain.history, traced.history) || plain.feasible != traced.feasible ||
      plain.best_cost != traced.best_cost ||
      plain.solutions_found != traced.solutions_found ||
      plain.stopped_reason.empty() != traced.stopped_reason.empty() ||
      topology_bytes(plain.best) != topology_bytes(traced.best) ||
      certificate_bytes(plain.certificate) != certificate_bytes(traced.certificate)) {
    outcome.gate_failures.push_back(what +
                                    ": the traced composition diverged from plan() (epoch "
                                    "history, plan or certificate bytes differ)");
  }
}

// Gate: a returned plan carries a certificate that re-audits clean.
bool certified(const PlanningProblem& problem, const PlanningResult& result,
               std::string* why) {
  if (!result.feasible) return true;
  if (!result.best || !result.certificate) {
    *why = "a feasible plan came back without a certificate";
    return false;
  }
  const AuditReport report = audit_certificate(problem, *result.certificate);
  if (!report.ok) {
    *why = "certificate re-audit failed: " + report.summary();
    return false;
  }
  return true;
}

PlanningProblem orion_problem(std::uint64_t seed) {
  const Scenario orion = make_orion();
  Rng flow_rng(seed);
  PlanningProblem problem = with_flows(orion, random_flows(orion.problem, kOrionFlows, flow_rng));
  problem.validate();
  return problem;
}

NptsnConfig orion_config(std::uint64_t seed) {
  NptsnConfig config = bench::training_config(bench::Mode{}, seed);
  config.epochs = kPlanEpochs;
  // Every epoch runs all its PPO iterations. With the KL early stop the
  // iteration count, and so plan()'s time, depends on the trajectory: 6.8 to
  // 11.5 s over ten seeds of this workload.
  config.target_kl = 1e9;
  config.audit_mode = AuditMode::kFinal;
  return config;
}

// --- per-layer figures from the spans ------------------------------------------

struct LayerTotals {
  std::map<std::string, SpanTotal> spans;
  std::int64_t nbf_calls = 0;
  std::int64_t nbf_executed = 0;
  double verify_seconds = 0.0;

  void add_history(const std::vector<EpochStats>& history) {
    for (const EpochStats& epoch : history) {
      nbf_calls += epoch.verify_nbf_calls;
      nbf_executed += epoch.verify_nbf_executed;
      verify_seconds += epoch.verify_seconds;
    }
  }
  const SpanTotal& at(const char* name) const {
    static const SpanTotal kNone;
    const auto it = spans.find(name);
    return it == spans.end() ? kNone : it->second;
  }
};

// Figures a workload without that layer reports as zero.
struct ServiceFigures {
  double submit_share = 0.0;
  double queue_share = 0.0;
  double session_share = 0.0;
  double finish_share = 0.0;
  double journal_appends_per_request = 0.0;
  double repeat_share = 0.0;
  double verdict_hit_ratio = 0.0;
  double outcome_hit_ratio = 0.0;
  double stage_hit_ratio = 0.0;
};

double ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// The per-layer metric set, in BENCHMARK.json order. `overhead_s` is traced
// minus untraced time of the same computation.
std::vector<Metric> layer_metrics(const LayerTotals& t, const ServiceFigures& service,
                                  double cancel_in_update_share, double overhead_s) {
  const SpanTotal& rollout = t.at("rl.rollout");
  const SpanTotal& update = t.at("rl.update");
  const SpanTotal& step = t.at("core.env_step");
  const SpanTotal& observe = t.at("core.observe");
  const SpanTotal& reset = t.at("core.env_reset");
  const SpanTotal& nbf = t.at("tsn.nbf");
  const SpanTotal& stage = t.at("tsn.stage");
  const auto count = [](long long n) { return static_cast<double>(n); };
  return {
      {"rl.update_s", update.seconds, "s"},
      {"rl.update_calls", count(update.calls), "count"},
      {"rl.rollout_s", rollout.seconds, "s"},
      {"rl.policy_s", rollout.self_seconds, "s"},
      {"rl.cancel_in_update_share", cancel_in_update_share, "ratio"},
      {"core.session_setup_s", t.at("core.session_setup").seconds, "s"},
      {"core.env_step_s", step.seconds, "s"},
      {"core.env_step_calls", count(step.calls), "count"},
      {"core.observe_s", observe.seconds, "s"},
      {"core.observe_calls", count(observe.calls), "count"},
      {"core.env_reset_s", reset.seconds, "s"},
      {"analysis.verify_s", t.verify_seconds, "s"},
      {"analysis.nbf_calls", count(t.nbf_calls), "count"},
      {"analysis.nbf_executed", count(t.nbf_executed), "count"},
      {"analysis.reuse_ratio",
       t.nbf_calls > 0 ? 1.0 - static_cast<double>(t.nbf_executed) / count(t.nbf_calls) : 0.0,
       "ratio"},
      {"analysis.certificate_s", t.at("analysis.certificate").seconds, "s"},
      {"analysis.audit_s", t.at("analysis.audit").seconds, "s"},
      {"analysis.shared_verdict_hit_ratio", service.verdict_hit_ratio, "ratio"},
      {"analysis.shared_outcome_hit_ratio", service.outcome_hit_ratio, "ratio"},
      {"nn.stage_cache_hit_ratio", service.stage_hit_ratio, "ratio"},
      {"tsn.nbf_s", nbf.seconds, "s"},
      {"tsn.nbf_calls", count(nbf.calls), "count"},
      {"tsn.stage_s", stage.seconds, "s"},
      {"tsn.stage_calls", count(stage.calls), "count"},
      {"service.submit_share", service.submit_share, "ratio"},
      {"service.queue_share", service.queue_share, "ratio"},
      {"service.session_share", service.session_share, "ratio"},
      {"service.finish_share", service.finish_share, "ratio"},
      {"service.journal_appends_per_request", service.journal_appends_per_request, "count"},
      {"service.repeat_share", service.repeat_share, "ratio"},
      {"trace.overhead_s", overhead_s, "s"},
  };
}

// Layer shares of the traced session time, for the README table: every
// second of core.plan lands in exactly one of these.
void add_layer_shares(const LayerTotals& t, std::vector<Metric>& report) {
  const double plan = t.at("core.plan").seconds;
  const double tsn = t.at("tsn.nbf").seconds + t.at("tsn.stage").seconds;
  const double env = t.at("core.env_step").seconds + t.at("core.observe").seconds +
                     t.at("core.env_reset").seconds;
  // Verification runs inside the env calls and contains the NBF calls made
  // there; certificate building contains the rest.
  const double cert_nbf =
      t.at("analysis.certificate").seconds - t.at("analysis.certificate").self_seconds;
  const double verify_own = std::max(0.0, t.verify_seconds - (tsn - cert_nbf));
  const double core_own = env - t.verify_seconds;
  const double analysis_own = verify_own + t.at("analysis.certificate").self_seconds +
                              t.at("analysis.audit").seconds;
  const double rl_update = t.at("rl.update").seconds;
  const double rl_policy = t.at("rl.rollout").self_seconds;
  const double other = plan - rl_update - rl_policy - core_own - analysis_own - tsn;
  report.push_back({"share.rl.update", ratio(rl_update, plan), "ratio"});
  report.push_back({"share.rl.policy", ratio(rl_policy, plan), "ratio"});
  report.push_back({"share.core.env", ratio(core_own, plan), "ratio"});
  report.push_back({"share.analysis", ratio(analysis_own, plan), "ratio"});
  report.push_back({"share.tsn", ratio(tsn, plan), "ratio"});
  report.push_back({"share.other", ratio(other, plan), "ratio"});
  report.push_back({"core.plan_s", plan, "s"});
}

void write_trace(const Tracer& tracer, const Options& options) {
  const std::string path = options.work_dir + "/trace-" + options.workload + "-" +
                           std::to_string(options.seed) + ".json";
  tracer.write_json(path);
}

std::vector<Metric> end_to_end(double setup_s, const std::vector<double>& latencies,
                               std::int64_t attempted, std::int64_t failed) {
  return {
      {"setup_s", setup_s, "s"},
      {"latency_p50_s", percentile(latencies, 0.5), "s"},
      {"latency_p90_s", percentile(latencies, 0.9), "s"},
      {"ok_share", 1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

}  // namespace

// --- plan-orion ----------------------------------------------------------------

Outcome run_plan_orion(const Options& options) {
  Outcome outcome;
  double setup_s = 0.0;
  const PlanningProblem problem =
      timed_setup([&] { return orion_problem(options.seed); }, &setup_s);
  const NptsnConfig config = orion_config(options.seed);
  const HeuristicRecovery nbf;

  auto checked_plan = [&](std::vector<double>& plan_seconds) -> std::optional<PlanningResult> {
    ++outcome.attempted;
    const auto start = Clock::now();
    try {
      PlanningResult result = plan(problem, nbf, config);
      plan_seconds.push_back(seconds_since(start));
      std::string why;
      if (!result.feasible) {
        why = "plan-orion returned no certified plan";
      } else {
        certified(problem, result, &why);
      }
      if (!why.empty()) {
        ++outcome.failed;
        outcome.gate_failures.push_back(why);
      }
      return result;
    } catch (const std::exception& e) {
      ++outcome.failed;
      outcome.gate_failures.push_back(std::string("plan() threw: ") + e.what());
      return std::nullopt;
    }
  };

  std::vector<double> plan_seconds;
  if (!options.trace) {
    // Repeats of the same seeded plan(): at least kMinPlans, then more while
    // the next one still fits the measuring window. Every repeat must return
    // the same plan.
    const auto start = Clock::now();
    std::optional<PlanningResult> first = checked_plan(plan_seconds);
    while (first && plan_seconds.size() == static_cast<std::size_t>(outcome.attempted) &&
           (plan_seconds.size() < kMinPlans ||
            seconds_since(start) + plan_seconds.back() <= options.seconds)) {
      const std::optional<PlanningResult> again = checked_plan(plan_seconds);
      if (again) check_same_run(*first, *again, "plan-orion repeat", outcome);
    }
    outcome.metrics = end_to_end(setup_s, plan_seconds, outcome.attempted, outcome.failed);
    if (first) {
      outcome.report.push_back({"plan_s", median(plan_seconds), "s"});
      outcome.report.push_back({"best_cost", first->best_cost, "cost"});
      outcome.report.push_back({"plans", static_cast<double>(plan_seconds.size()), "count"});
    }
    outcome.report.push_back({"failed_share", ratio(static_cast<double>(outcome.failed),
                                                    static_cast<double>(outcome.attempted)),
                              "ratio"});
    return outcome;
  }

  // Traced pass: plain, traced, plain. The traced composition must
  // reproduce plain plan() exactly; the plain runs on both sides of it cancel
  // warm-up and drift out of the tracing overhead.
  const std::optional<PlanningResult> plain = checked_plan(plan_seconds);
  Tracer tracer;
  ++outcome.attempted;
  const PlanningResult traced = traced_plan(problem, nbf, config, tracer, 0);
  const std::size_t failures = outcome.gate_failures.size();
  if (plain) check_same_run(*plain, traced, "plan-orion", outcome);
  if (outcome.gate_failures.size() > failures) ++outcome.failed;
  checked_plan(plan_seconds);

  LayerTotals totals;
  totals.spans = tracer.totals();
  totals.add_history(traced.history);
  const double traced_s = totals.at("core.plan").seconds;
  const double untraced_s =
      plan_seconds.empty() ? traced_s
                           : sum(plan_seconds) / static_cast<double>(plan_seconds.size());
  const double overhead_s = traced_s - untraced_s;
  outcome.metrics = layer_metrics(totals, {}, 0.0, overhead_s);
  add_layer_shares(totals, outcome.report);
  // The four phases account for plan_s when what they leave over is within
  // the tracing overhead plus the session set-up outside them.
  const double phases_s = totals.at("rl.rollout").seconds + totals.at("rl.update").seconds +
                          totals.at("analysis.certificate").seconds +
                          totals.at("analysis.audit").seconds;
  const double unaccounted_s = untraced_s - phases_s;
  outcome.report.push_back({"plan_s", untraced_s, "s"});
  outcome.report.push_back({"phases_s", phases_s, "s"});
  outcome.report.push_back({"unaccounted_s", unaccounted_s, "s"});
  outcome.report.push_back(
      {"phases_account_for_plan",
       std::abs(unaccounted_s) <= std::abs(overhead_s) + totals.at("core.session_setup").seconds
           ? 1.0
           : 0.0,
       "bool"});
  write_trace(tracer, options);
  return outcome;
}

// --- cancel-orion --------------------------------------------------------------

namespace {

// Offsets spread evenly over [0, window) for any prefix length (golden-ratio
// sequence from a seeded start), so the stop-latency median does not hang
// on where a handful of random offsets happened to fall.
double cancel_offset(std::uint64_t seed, int index, double window) {
  Rng rng(seed ^ 0x63616e63656cULL);
  const double start = rng.uniform();
  const double phi = 0.6180339887498949;
  const double u = start + phi * static_cast<double>(index);
  return window * (u - std::floor(u));
}

// Fires one session's deadline at a set time, from a single long-lived
// thread, so every session runs plan() on the calling thread.
class Canceller {
 public:
  Canceller() : thread_([this] { loop(); }) {}
  ~Canceller() {
    {
      const std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  Canceller(const Canceller&) = delete;
  Canceller& operator=(const Canceller&) = delete;

  void arm(std::shared_ptr<Deadline> deadline, Clock::time_point at) {
    {
      const std::lock_guard lock(mutex_);
      deadline_ = std::move(deadline);
      at_ = at;
      fired_.reset();
    }
    wake_.notify_all();
  }

  // Disarms; returns when the cancel fired, or nothing when it had not.
  std::optional<Clock::time_point> disarm() {
    const std::lock_guard lock(mutex_);
    deadline_.reset();
    wake_.notify_all();
    return fired_;
  }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    while (!stop_) {
      if (!deadline_) {
        wake_.wait(lock);
        continue;
      }
      const Clock::time_point at = at_;
      if (wake_.wait_until(lock, at, [&] { return stop_ || !deadline_ || at_ != at; })) {
        continue;
      }
      fired_ = Clock::now();
      deadline_->cancel("perfbench cancel");
      deadline_.reset();
    }
  }

  std::mutex mutex_;  // guards everything below but thread_
  std::condition_variable wake_;
  std::shared_ptr<Deadline> deadline_;  // armed when set
  Clock::time_point at_{};
  std::optional<Clock::time_point> fired_;
  bool stop_ = false;
  std::thread thread_;
};

struct CancelledSession {
  double seconds = 0.0;       // the whole plan() call
  double stop_seconds = 0.0;  // cancel() -> plan() returned or threw
  double cancel_at = 0.0;     // tracer time of the cancel (traced sessions)
  std::optional<PlanningResult> result;
  // plan() threw the cancelled token's DeadlineExceeded instead of returning
  // with a stopped_reason (the token fired before training started).
  bool threw_on_cancel = false;
  std::string error;  // anything else that went wrong
};

template <class Plan>
CancelledSession run_cancelled(Canceller& canceller, double offset,
                               const std::shared_ptr<Deadline>& deadline, const Tracer* tracer,
                               Plan plan_fn) {
  CancelledSession session;
  const auto start = Clock::now();
  canceller.arm(deadline, start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(offset)));
  try {
    session.result = plan_fn();
  } catch (const DeadlineExceeded& e) {
    session.threw_on_cancel = deadline->cancelled();
    if (!session.threw_on_cancel) session.error = e.what();
  } catch (const std::exception& e) {
    session.error = e.what();
  }
  const auto returned = Clock::now();
  session.seconds = std::chrono::duration<double>(returned - start).count();
  const std::optional<Clock::time_point> fired = canceller.disarm();
  if (!fired) {
    session.result.reset();
    session.error = "plan() returned before it was cancelled";
    return session;
  }
  session.stop_seconds = std::chrono::duration<double>(returned - *fired).count();
  if (tracer) {
    session.cancel_at =
        tracer->now() - std::chrono::duration<double>(Clock::now() - *fired).count();
  }
  return session;
}

}  // namespace

Outcome run_cancel_orion(const Options& options) {
  Outcome outcome;
  double setup_s = 0.0;
  const PlanningProblem problem =
      timed_setup([&] { return orion_problem(options.seed); }, &setup_s);
  NptsnConfig base = orion_config(options.seed);
  base.steps_per_epoch = kCancelStepsPerEpoch;
  base.epochs = 100000;  // never the reason a session ends
  const HeuristicRecovery nbf;

  // A plan() that throws on cancel instead of returning counts as a failed
  // operation (its stop latency as +inf); any other error, a return without
  // a stopped_reason or an uncertified plan fails the correctness check.
  std::int64_t thrown = 0;
  auto check = [&](const CancelledSession& session) {
    ++outcome.attempted;
    std::string why;
    if (session.threw_on_cancel) {
      ++outcome.failed;
      ++thrown;
      std::fprintf(stderr, "cancel-orion: plan() threw on cancel instead of returning\n");
      return;
    }
    if (!session.error.empty()) {
      why = "cancelled plan(): " + session.error;
    } else if (session.result->stopped_reason.empty()) {
      why = "a cancelled plan() returned without a stopped_reason";
    } else {
      certified(problem, *session.result, &why);
    }
    if (!why.empty()) {
      ++outcome.failed;
      outcome.gate_failures.push_back(why);
    }
  };

  // The cancel window is the length of a session's first epoch, so the
  // cancels fall evenly over its phases however long it takes: the
  // stop-latency median is about half an epoch. Two uncancelled epochs give
  // the first estimate (the second, warm one); then the window follows the
  // median length of the sessions that stopped after exactly one epoch.
  NptsnConfig probe = base;
  probe.epochs = 2;
  std::vector<Clock::time_point> epoch_ends;
  const auto probe_start = Clock::now();
  const PlanningResult plain =
      plan(problem, nbf, probe, [&](const EpochStats&) { epoch_ends.push_back(Clock::now()); });
  const double probe_s = seconds_since(probe_start);
  const double epoch_s =
      std::chrono::duration<double>(epoch_ends.at(1) - epoch_ends.at(0)).count();
  if (std::string why; !certified(problem, plain, &why)) outcome.gate_failures.push_back(why);

  Tracer tracer;
  LayerTotals totals;
  Canceller canceller;
  std::vector<double> first_epochs;
  double window_s = epoch_s;
  std::vector<double> stops;
  std::int64_t in_update = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kMinCancels || seconds_since(start) < options.seconds; ++i) {
    NptsnConfig config = base;
    config.deadline = std::make_shared<Deadline>();
    const double offset = cancel_offset(options.seed, i, window_s);
    CancelledSession session;
    if (options.trace) {
      session = run_cancelled(canceller, offset, config.deadline, &tracer,
                              [&] { return traced_plan(problem, nbf, config, tracer, i); });
    } else {
      session = run_cancelled(canceller, offset, config.deadline, nullptr,
                              [&] { return plan(problem, nbf, config); });
    }
    check(session);
    if (session.result && session.result->epochs_completed == 1) {
      first_epochs.push_back(session.seconds);
      window_s = median(first_epochs);
    }
    stops.push_back(session.result ? session.stop_seconds
                                   : std::numeric_limits<double>::infinity());
    if (options.trace && session.result) {
      totals.add_history(session.result->history);
      for (const Span& span : tracer.spans()) {
        if (span.session == i && std::string(span.name) == "rl.update" &&
            span.start <= session.cancel_at && session.cancel_at < span.end) {
          ++in_update;
        }
      }
    }
  }

  if (!options.trace) {
    outcome.metrics = end_to_end(setup_s, stops, outcome.attempted, outcome.failed);
    outcome.report.push_back({"stop_p50_s", percentile(stops, 0.5), "s"});
    outcome.report.push_back({"sessions", static_cast<double>(stops.size()), "count"});
    outcome.report.push_back({"thrown_on_cancel", static_cast<double>(thrown), "count"});
    outcome.report.push_back({"window_s", window_s, "s"});
    outcome.report.push_back({"failed_share", ratio(static_cast<double>(outcome.failed),
                                                    static_cast<double>(outcome.attempted)),
                              "ratio"});
    return outcome;
  }

  // Tracing overhead on the uncancelled epochs, which also checks that the
  // traced composition matches plan() here.
  const int probe_root = tracer.size();
  const PlanningResult traced = traced_plan(problem, nbf, probe, tracer,
                                             static_cast<int>(outcome.attempted));
  check_same_run(plain, traced, "cancel-orion", outcome);
  const Span probe_span = tracer.spans()[static_cast<std::size_t>(probe_root)];
  const double traced_s = probe_span.end - probe_span.start;
  const auto again_start = Clock::now();
  plan(problem, nbf, probe);
  const double untraced_s = (probe_s + seconds_since(again_start)) / 2.0;

  totals.spans = tracer.totals();
  totals.add_history(traced.history);
  outcome.metrics = layer_metrics(totals, {}, ratio(static_cast<double>(in_update),
                                                    static_cast<double>(stops.size())),
                                  traced_s - untraced_s);
  add_layer_shares(totals, outcome.report);
  outcome.report.push_back({"stop_p50_s", percentile(stops, 0.5), "s"});
  write_trace(tracer, options);
  return outcome;
}

// --- serve-zonal ---------------------------------------------------------------

namespace {

GeneratorParams zonal_params() {
  GeneratorParams params;
  params.zones = 4;
  params.stations_per_zone = 3;
  // Two zone switches per zone: every end station can be dual-homed, so a
  // plan that survives every single failure (min_frontier_order = 1) exists.
  params.switches_per_zone = 2;
  params.backbone_switches = 2;
  params.flow_count = 6;
  return params;
}

NptsnConfig serve_session_config() {
  NptsnConfig config = bench::training_config(bench::Mode{}, /*seed=*/11);
  config.epochs = 2;
  config.steps_per_epoch = 96;
  config.mlp_hidden = {16, 16};
  config.gcn_layers = 1;
  config.train_actor_iters = 3;
  config.train_critic_iters = 3;
  config.target_kl = 1e9;  // all PPO iterations, as for plan-orion
  config.audit_mode = AuditMode::kFinal;
  config.min_frontier_order = 1;
  config.frontier_include_links = true;
  return config;
}

struct Stream {
  std::vector<PlanningRequest> requests;
  std::vector<int> problem_of;           // request -> distinct problem index
  std::vector<std::vector<std::uint8_t>> problems;  // distinct problem bytes
};

// Even requests cycle through a small hot set, odd ones are all distinct.
Stream make_stream(std::uint64_t seed, int count) {
  Stream stream;
  const GeneratorParams params = zonal_params();
  Rng rng(seed);
  auto fresh_problem = [&] {
    stream.problems.push_back(problem_bytes(generate(params, rng.next_u64())));
    return static_cast<int>(stream.problems.size()) - 1;
  };
  std::vector<int> hot;
  for (int h = 0; h < kServeHotProblems; ++h) hot.push_back(fresh_problem());
  for (int i = 0; i < count; ++i) {
    const int problem = i % 2 == 0 ? hot[static_cast<std::size_t>((i / 2) % kServeHotProblems)]
                                   : fresh_problem();
    PlanningRequest request;
    request.id = "req-" + std::to_string(i);
    request.problem_bytes = stream.problems[static_cast<std::size_t>(problem)];
    stream.requests.push_back(std::move(request));
    stream.problem_of.push_back(problem);
  }
  return stream;
}

struct Sent {
  std::future<PlanningResponse> future;
  double scheduled = 0.0;  // seconds since the stream started
  double sent = 0.0;
  double submitted = 0.0;  // submit() returned
  double ready = 0.0;
  std::optional<PlanningResponse> response;
};

}  // namespace

Outcome run_serve_zonal(const Options& options) {
  Outcome outcome;
  const int count = std::max(2, static_cast<int>(std::lround(options.seconds *
                                                             kServeRatePerSecond)));
  const std::string journal_root = options.work_dir + "/journal-" + std::to_string(getpid());
  std::filesystem::remove_all(journal_root);

  ServiceConfig service_config;
  service_config.shards = 2;
  service_config.workers_per_shard = 1;
  service_config.shared_caches = true;
  service_config.session = serve_session_config();

  // Set-up: problem generation, service construction and journal recovery
  // over an empty journal directory.
  int setup_round = 0;
  struct Booted {
    Stream stream;
    std::unique_ptr<PlannerService> service;
  };
  double setup_s = 0.0;
  Booted booted = timed_setup(
      [&] {
        Booted b;
        b.stream = make_stream(options.seed, count);
        ServiceConfig config = service_config;
        config.journal_dir = journal_root + "/" + std::to_string(setup_round++);
        b.service = std::make_unique<PlannerService>(config);
        return b;
      },
      &setup_s);
  Stream& stream = booted.stream;
  PlannerService& service = *booted.service;

  // Open loop: one thread sends on schedule and collects ready futures while
  // it waits for the next send time.
  Tracer tracer;
  std::vector<Sent> sent(stream.requests.size());
  std::size_t outstanding = 0;
  double late_max = 0.0;
  const auto start = Clock::now();
  const double interval = 1.0 / kServeRatePerSecond;
  auto collect = [&] {
    for (Sent& s : sent) {
      if (!s.future.valid()) continue;
      if (s.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) continue;
      s.ready = seconds_since(start);
      s.response = s.future.get();
      --outstanding;
    }
  };
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    sent[i].scheduled = static_cast<double>(i) * interval;
    while (seconds_since(start) < sent[i].scheduled) {
      collect();
      const double wait = sent[i].scheduled - seconds_since(start);
      if (wait > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(std::min(wait, 0.001)));
      }
    }
    sent[i].sent = seconds_since(start);
    late_max = std::max(late_max, sent[i].sent - sent[i].scheduled);
    sent[i].future = service.submit(stream.requests[i]);
    sent[i].submitted = seconds_since(start);
    ++outstanding;
  }
  const double drain_limit = 150.0 - options.seconds;
  while (outstanding > 0 && seconds_since(start) < options.seconds + drain_limit) {
    collect();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double stream_seconds = seconds_since(start);
  if (outstanding > 0) {
    outcome.gate_failures.push_back(std::to_string(outstanding) +
                                    " requests never answered");
  }
  service.shutdown(PlannerService::Shutdown::kDrain);

  // Latency from the scheduled send; a failed request counts as +inf.
  std::vector<double> latencies;
  std::map<std::string, double> by_status;
  std::vector<double> submit_s, queue_s, session_s, finish_s;
  std::int64_t planned = 0;
  double cost_sum = 0.0;
  std::map<int, std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>> answers;
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < sent.size(); ++i) {
    ++outcome.attempted;
    Sent& s = sent[i];
    if (!s.response) {
      ++outcome.failed;
      latencies.push_back(inf);
      continue;
    }
    const PlanningResponse& r = *s.response;
    by_status[to_string(r.status)] += 1.0;
    const bool ok = r.status == ResponseStatus::kPlanned ||
                    r.status == ResponseStatus::kInfeasible;
    if (!ok) {
      ++outcome.failed;
      latencies.push_back(inf);
      continue;
    }
    const double latency = s.ready - s.scheduled;
    latencies.push_back(latency);
    submit_s.push_back(s.submitted - s.sent);
    queue_s.push_back(r.queue_seconds);
    session_s.push_back(r.plan_seconds);
    finish_s.push_back(latency - (s.sent - s.scheduled) - (s.submitted - s.sent) -
                       r.queue_seconds - r.plan_seconds);
    const int problem = stream.problem_of[i];
    if (r.status == ResponseStatus::kPlanned) {
      ++planned;
      cost_sum += r.best_cost;
      // Gate: the certificate re-audits clean against its problem.
      const PlanningProblem p =
          problem_from_bytes(stream.problems[static_cast<std::size_t>(problem)]);
      ByteReader in(r.certificate_bytes);
      const AuditReport report = audit_certificate(p, load_certificate(in));
      if (!report.ok) {
        outcome.gate_failures.push_back(r.id + ": certificate re-audit failed: " +
                                        report.summary());
      }
    }
    // Gate: every repeat of a problem answers with the same bytes.
    const auto answer = std::make_pair(r.topology_bytes, r.certificate_bytes);
    const auto [it, inserted] = answers.emplace(problem, answer);
    if (!inserted && it->second != answer) {
      outcome.gate_failures.push_back(r.id + ": a repeated problem got a different plan");
    }
    if (options.trace) {
      const int root = tracer.add("service.request", s.scheduled, s.ready, -1,
                                  static_cast<int>(i));
      tracer.add("service.submit", s.sent, s.submitted, root, static_cast<int>(i));
      const double picked = s.submitted + r.queue_seconds;
      tracer.add("service.queue", s.submitted, picked, root, static_cast<int>(i));
      tracer.add("service.session", picked, picked + r.plan_seconds, root,
                 static_cast<int>(i));
    }
  }
  std::filesystem::remove_all(journal_root);

  const double n = static_cast<double>(sent.size());
  if (!options.trace) {
    outcome.metrics = end_to_end(setup_s, latencies, outcome.attempted, outcome.failed);
    outcome.report.push_back({"latency_p50_s", percentile(latencies, 0.5), "s"});
    outcome.report.push_back({"latency_p90_s", percentile(latencies, 0.9), "s"});
    outcome.report.push_back({"feasible_share", ratio(static_cast<double>(planned), n), "ratio"});
    outcome.report.push_back({"mean_best_cost", ratio(cost_sum, static_cast<double>(planned)),
                              "cost"});
    outcome.report.push_back({"failed_share", ratio(static_cast<double>(outcome.failed), n),
                              "ratio"});
    outcome.report.push_back({"generator_late_max_s", late_max, "s"});
    outcome.report.push_back({"utilisation",
                              ratio(sum(session_s), 2.0 * stream_seconds), "ratio"});
    outcome.report.push_back({"requests", n, "count"});
    outcome.report.push_back({"succeeded", n - static_cast<double>(outcome.failed), "count"});
    outcome.report.push_back({"service.queue_p90_s", percentile(queue_s, 0.9), "s"});
    outcome.report.push_back({"service.session_p50_s", percentile(session_s, 0.5), "s"});
    outcome.report.push_back({"service.session_p90_s", percentile(session_s, 0.9), "s"});
    for (const auto& [status, k] : by_status) {
      outcome.report.push_back({std::string("status.") + status, k, "count"});
    }
    return outcome;
  }

  // Service figures from the stream.
  ServiceFigures figures;
  const double latency_sum = sum(submit_s) + sum(queue_s) + sum(session_s) + sum(finish_s);
  figures.submit_share = ratio(sum(submit_s), latency_sum);
  figures.queue_share = ratio(sum(queue_s), latency_sum);
  figures.session_share = ratio(sum(session_s), latency_sum);
  figures.finish_share = ratio(sum(finish_s), latency_sum);
  const PlannerService::ServiceStats stats = service.stats();
  figures.journal_appends_per_request = ratio(static_cast<double>(stats.journal.appends), n);
  figures.repeat_share = ratio(n - static_cast<double>(answers.size()), n);
  const EngineSharedCache::Stats engine = service.engine_cache()->stats();
  figures.verdict_hit_ratio =
      ratio(static_cast<double>(engine.verdict_hits),
            static_cast<double>(engine.verdict_hits + engine.verdict_misses));
  figures.outcome_hit_ratio =
      ratio(static_cast<double>(engine.outcome_hits),
            static_cast<double>(engine.outcome_hits + engine.outcome_misses));
  const AdjacencyStageCache::Stats stage = service.stage_cache()->stats();
  figures.stage_hit_ratio = ratio(static_cast<double>(stage.hits),
                                  static_cast<double>(stage.hits + stage.misses));

  // The split inside a session: each distinct problem of the stream once,
  // plain and traced, each pass with its own fresh shared caches so both
  // see the same cache warmth.
  auto replay_config = [&] {
    NptsnConfig config = service_config.session;
    config.engine_shared_cache = std::make_shared<EngineSharedCache>(service_config.engine_cache);
    config.stage_cache = std::make_shared<AdjacencyStageCache>(service_config.stage_cache_bytes);
    return config;
  };
  NptsnConfig plain_config = replay_config();
  NptsnConfig traced_config = replay_config();
  const HeuristicRecovery nbf;
  LayerTotals totals;
  double untraced_s = 0.0;
  for (std::size_t p = 0; p < stream.problems.size(); ++p) {
    const PlanningProblem problem = problem_from_bytes(stream.problems[p]);
    // As the service runs a session: a fresh, unlimited deadline token.
    plain_config.deadline = std::make_shared<Deadline>();
    traced_config.deadline = std::make_shared<Deadline>();
    const auto plain_start = Clock::now();
    const PlanningResult plain = plan(problem, nbf, plain_config);
    untraced_s += seconds_since(plain_start);
    const PlanningResult traced =
        traced_plan(problem, nbf, traced_config, tracer, static_cast<int>(sent.size() + p));
    check_same_run(plain, traced, "serve-zonal replay", outcome);
    totals.add_history(traced.history);
  }
  totals.spans = tracer.totals();
  outcome.metrics =
      layer_metrics(totals, figures, 0.0, totals.at("core.plan").seconds - untraced_s);
  add_layer_shares(totals, outcome.report);
  outcome.report.push_back({"service.submit_p50_s", percentile(submit_s, 0.5), "s"});
  outcome.report.push_back({"service.submit_p90_s", percentile(submit_s, 0.9), "s"});
  outcome.report.push_back({"service.queue_p50_s", percentile(queue_s, 0.5), "s"});
  outcome.report.push_back({"service.queue_p90_s", percentile(queue_s, 0.9), "s"});
  outcome.report.push_back({"service.session_p50_s", percentile(session_s, 0.5), "s"});
  outcome.report.push_back({"service.finish_p50_s", percentile(finish_s, 0.5), "s"});
  write_trace(tracer, options);
  return outcome;
}

}  // namespace perfbench
