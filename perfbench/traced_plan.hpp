// nptsn::plan() rebuilt from the library's public pieces — Trainer, a
// decorated PlanningEnv, a decorated NBF and an epoch callback, then
// build_certificate and audit_certificate — with spans around the calls into
// each layer. The benchmark checks that it reproduces plan()'s epoch history
// and plan bytes exactly, so the spans time the same program.
//
// Spans recorded under one "core.plan" root per call:
//   core.session_setup   network, encoder, SOAG, staging, environment creation
//   rl.rollout           epoch start -> end of the epoch's last env call
//     core.env_step      PlanningEnv::step (SOAG/Yen plus failure analysis)
//     core.observe       PlanningEnv::observe (observation encoding)
//     core.env_reset     PlanningEnv::reset
//       tsn.nbf          StatelessNbf::recover / NbfSession::recover
//       tsn.stage        StatelessNbf::stage
//   rl.update            end of the last env call -> epoch callback (PPO)
//   rl.stop              a mid-epoch stop: last env call -> train() returns
//   analysis.certificate build_certificate
//   analysis.audit       audit_certificate
// rl.rollout's self time is the policy: ActorCritic forward plus sampling.
#pragma once

#include "core/planner.hpp"
#include "trace.hpp"

namespace perfbench {

nptsn::PlanningResult traced_plan(const nptsn::PlanningProblem& problem,
                                  const nptsn::StatelessNbf& nbf,
                                  const nptsn::NptsnConfig& config, Tracer& tracer,
                                  int session);

}  // namespace perfbench
