// The public NPTSN entry point: given a planning problem and a recovery
// mechanism, trains the intelligent network generator (Algorithm 2) and
// returns the cheapest reliability-verified TSSDN discovered.
#pragma once

#include <array>
#include <optional>

#include "analysis/certificate.hpp"
#include "core/config.hpp"
#include "core/environment.hpp"
#include "rl/trainer.hpp"

namespace nptsn {

struct PlanningResult {
  // True when at least one solution satisfying the reliability guarantee
  // was found during training. A run budget never weakens this: the best
  // topology is always fully reliability-verified, a budget stop only
  // shortens the search.
  bool feasible = false;
  double best_cost = 0.0;               // valid when feasible
  std::optional<Topology> best;         // the cheapest verified topology;
                                        // points at plan()'s problem
  std::int64_t solutions_found = 0;     // reliability-verified networks seen
  std::vector<EpochStats> history;      // stats of the epochs run by THIS call
  // Empty when all configured epochs ran; otherwise describes the run
  // budget (wall clock / steps) that stopped training early.
  std::string stopped_reason;
  // Epochs completed over the lifetime of the run, including epochs done by
  // a previous process when resuming from config.checkpoint_path.
  int epochs_completed = 0;

  // --- certified planning (config.audit_mode != kOff) -----------------------
  // The final plan's reliability certificate, present iff the plan was
  // audited clean; with audit on, feasible == certificate.has_value(). Also
  // written to config.certificate_path when set.
  std::optional<ReliabilityCertificate> certificate;
  // Independent audits run / rejected, over training (every_solution mode)
  // plus the final audit; first few rejection summaries for diagnostics.
  std::int64_t audits_run = 0;
  std::int64_t audits_rejected = 0;
  std::vector<std::string> audit_failures;

  // --- training health (config.health_checks) --------------------------------
  // The supervisor's typed incident log for the whole run (including epochs
  // run by a previous process when resuming): every quarantined worker,
  // tripped sentinel, and divergence rollback. Empty on an honest run.
  std::vector<Anomaly> anomalies;
  // Entries dropped past the ledger cap are still counted here.
  std::int64_t anomalies_total = 0;
  // Divergence rollbacks taken / worker-epochs spent quarantined.
  std::int64_t rollbacks = 0;
  std::int64_t quarantined_worker_epochs = 0;
};

// Runs NPTSN end to end. The NBF must stay alive for the call; the problem
// must outlive the RESULT, because result.best (and every Topology copied
// from it) points at the problem rather than owning a copy.
// on_epoch (optional) observes training progress (Fig. 5 curves).
// With config.checkpoint_path set, the run is crash-resilient: it resumes
// from an existing checkpoint (ignoring torn/corrupt files in favor of the
// previous valid generation) and periodically persists its state.
PlanningResult plan(const PlanningProblem& problem, const StatelessNbf& nbf,
                    const NptsnConfig& config,
                    const Trainer::EpochCallback& on_epoch = {});

// Per-level switch count of a topology (Fig. 4(c) histograms), indexed by
// static_cast<int>(Asil).
std::array<int, kNumAsilLevels> switch_asil_histogram(const Topology& topology);

}  // namespace nptsn
