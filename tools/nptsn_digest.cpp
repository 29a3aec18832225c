// nptsn_digest: prints the byte-identity digest of a set of seeded plan()
// runs, so two builds (or two settings that must not change results) can be
// compared with a plain diff.
//
// For every run it prints each epoch's EpochStats with the floating-point
// fields in hex-float (every bit shows) and every deterministic counter,
// then one summary line with the plan's feasibility, cost, and the FNV-1a 64
// of the save_topology and save_certificate bytes. Timing fields
// (verify_seconds) are left out: they differ run to run by nature.
//
// Runs (every one certifies and audits its final plan):
//   orion    ORION with 4 seeded random flows (flow seed = training seed) and
//            the plan-orion benchmark config: the fast training budget, two
//            epochs, every PPO iteration (no KL early stop).
//   ads      ADS with its application flows, the fast training budget with
//            the KL early stop.
//   ads-gat  as ads, with the GAT encoder.
//
//   nptsn_digest [--runs orion,ads,ads-gat] [--seeds 1,9001]
//                [--nn-threads N] [--nn-kernel fast|reference]
//                [--workers N] [--gcn-layers N]
//
// Exit codes: 0 = printed, 2 = usage error, 1 = a run threw.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/planner.hpp"
#include "scenarios/ads.hpp"
#include "scenarios/orion.hpp"
#include "scenarios/scenario.hpp"
#include "tsn/recovery.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

struct Options {
  std::vector<std::string> runs = {"orion", "ads", "ads-gat"};
  std::vector<std::uint64_t> seeds = {1, 9001};
  int nn_threads = 1;
  NnKernel nn_kernel = NnKernel::kFast;
  int workers = 1;
  int gcn_layers = -1;  // -1: the run's own config
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--runs orion,ads,ads-gat] [--seeds 1,9001]\n"
               "          [--nn-threads N] [--nn-kernel fast|reference]\n"
               "          [--workers N] [--gcn-layers N]\n",
               argv0);
}

std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) items.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

bool parse_int(const char* text, int min, int* out) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < min || value > 1024) return false;
  *out = static_cast<int>(value);
  return true;
}

bool parse(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--runs") {
      options->runs = split(value);
      for (const std::string& run : options->runs) {
        if (run != "orion" && run != "ads" && run != "ads-gat") return false;
      }
      if (options->runs.empty()) return false;
    } else if (flag == "--seeds") {
      options->seeds.clear();
      for (const std::string& seed : split(value)) {
        char* end = nullptr;
        options->seeds.push_back(std::strtoull(seed.c_str(), &end, 10));
        if (end == seed.c_str() || *end != '\0') return false;
      }
      if (options->seeds.empty()) return false;
    } else if (flag == "--nn-threads") {
      if (!parse_int(value, 1, &options->nn_threads)) return false;
    } else if (flag == "--nn-kernel") {
      const std::string kernel = value;
      if (kernel == "fast") {
        options->nn_kernel = NnKernel::kFast;
      } else if (kernel == "reference") {
        options->nn_kernel = NnKernel::kReference;
      } else {
        return false;
      }
    } else if (flag == "--workers") {
      if (!parse_int(value, 1, &options->workers)) return false;
    } else if (flag == "--gcn-layers") {
      if (!parse_int(value, 0, &options->gcn_layers)) return false;
    } else {
      return false;
    }
  }
  return true;
}

PlanningProblem problem_for(const std::string& run, std::uint64_t seed) {
  if (run == "orion") {
    const Scenario orion = make_orion();
    Rng flow_rng(seed);
    return with_flows(orion, random_flows(orion.problem, 4, flow_rng));
  }
  return with_flows(make_ads(), ads_flows());
}

NptsnConfig config_for(const std::string& run, std::uint64_t seed, const Options& options) {
  NptsnConfig config = bench::training_config(bench::Mode{}, seed);
  if (run == "orion") {
    config.epochs = 2;
    config.target_kl = 1e9;
  }
  config.audit_mode = AuditMode::kFinal;
  config.use_gat_encoder = run == "ads-gat";
  config.nn_threads = options.nn_threads;
  config.nn_kernel = options.nn_kernel;
  config.num_workers = options.workers;
  if (options.gcn_layers >= 0) config.gcn_layers = options.gcn_layers;
  return config;
}

std::uint64_t fnv(const ByteWriter& bytes) {
  return fnv1a64(bytes.data().data(), bytes.data().size());
}

void print_run(const std::string& run, std::uint64_t seed, const PlanningResult& result) {
  const unsigned long long s = seed;
  for (const EpochStats& e : result.history) {
    std::printf(
        "%s seed=%llu epoch=%d reward=%a episodes=%d actor_loss=%a critic_loss=%a "
        "approx_kl=%a steps=%d nbf_calls=%lld nbf_executed=%lld memo_hits=%lld "
        "residual_reuses=%lld shared_hits=%lld audits_run=%lld audits_rejected=%lld "
        "quarantined=%d rollbacks=%d entropy=%a\n",
        run.c_str(), s, e.epoch, e.mean_episode_reward, e.episodes_finished, e.actor_loss,
        e.critic_loss, e.approx_kl, e.steps, static_cast<long long>(e.verify_nbf_calls),
        static_cast<long long>(e.verify_nbf_executed),
        static_cast<long long>(e.verify_memo_hits),
        static_cast<long long>(e.verify_residual_reuses),
        static_cast<long long>(e.verify_shared_hits), static_cast<long long>(e.audits_run),
        static_cast<long long>(e.audits_rejected), e.quarantined_workers, e.rollbacks,
        e.mean_entropy);
  }
  ByteWriter topo;
  if (result.best) save_topology(*result.best, topo);
  ByteWriter cert;
  if (result.certificate) save_certificate(*result.certificate, cert);
  std::printf("%s seed=%llu feasible=%d cost=%a solutions=%lld topo=%016llx cert=%016llx\n",
              run.c_str(), s, result.feasible ? 1 : 0, result.best_cost,
              static_cast<long long>(result.solutions_found),
              static_cast<unsigned long long>(result.best ? fnv(topo) : 0),
              static_cast<unsigned long long>(result.certificate ? fnv(cert) : 0));
  std::fflush(stdout);
}

}  // namespace
}  // namespace nptsn

int main(int argc, char** argv) {
  using namespace nptsn;
  Options options;
  if (!parse(argc, argv, &options)) {
    usage(argv[0]);
    return 2;
  }
  const HeuristicRecovery nbf;
  for (const std::string& run : options.runs) {
    for (const std::uint64_t seed : options.seeds) {
      try {
        const PlanningProblem problem = problem_for(run, seed);
        print_run(run, seed, plan(problem, nbf, config_for(run, seed, options)));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s seed=%llu: plan() threw: %s\n", run.c_str(),
                     static_cast<unsigned long long>(seed), e.what());
        return 1;
      }
    }
  }
  return 0;
}
