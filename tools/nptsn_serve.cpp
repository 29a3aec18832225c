// nptsn_serve: the planning-as-a-service daemon front end (DESIGN.md §13).
//
// Boots a PlannerService (sharded worker pools + cross-session caches),
// submits the planning problems named on the command line, and streams each
// session's outcome as it resolves. Problems come from the evaluation
// scenarios (ads/orion), the seeded procedural generator (gen:...), or raw
// canonical problem-bytes files (problem:PATH).
//
// Crash durability: with --journal DIR (or --state-dir DIR alone, which
// journals under DIR/journal) every request is written ahead to a fsynced
// journal before its handle exists, and a re-run over the same journal
// recovers — unfinished sessions re-execute, finished ones replay their
// persisted (re-audited) answer. Recovered sessions are reported like fresh
// ones and CLI specs whose id a recovered session already covers are
// deduplicated, so "restart with the same command line" is always safe.
//
// Graceful shutdown: SIGTERM/SIGINT switches the service into cancelling
// shutdown — every in-flight session's deadline token fires and the session
// unwinds through the trainer's clean-stop path, persisting a resumable
// <state-dir>/<id>.ckpt checkpoint under --state-dir. Cancelled requests
// are never journaled as terminal, so they stay live in the journal and the
// same command line resumes them: started sessions continue from their
// checkpoints, unstarted ones run.
//
// Exit codes (distinct so scripts and CI can branch without parsing output):
//   0 = every submitted or recovered session planned successfully (audit
//       clean when auditing is configured; replayed answers are re-audited)
//   1 = the service ran to completion but some session was infeasible,
//       audit-rejected, faulted, or shed as overloaded
//   2 = usage error (bad flags, malformed spec, out-of-range number)
//   3 = I/O error (unreadable problem file, unwritable state dir, unusable
//       journal directory)
//   5 = interrupted (SIGTERM/SIGINT): the run did not finish; with a journal
//       every unanswered request stays live in it and re-running the same
//       command resumes them (without one, cancelled work is not kept)
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/certificate.hpp"
#include "scenarios/ads.hpp"
#include "scenarios/generator.hpp"
#include "scenarios/orion.hpp"
#include "service/crash_point.hpp"
#include "service/service.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace {

using namespace nptsn;

constexpr int kMaxInt = std::numeric_limits<int>::max();
// Bound on every seconds flag (~11.6 days): far past any real budget, and
// small enough to convert to clock ticks without overflow.
constexpr double kMaxSeconds = 1e6;

std::atomic<int> g_signal{0};
std::atomic<bool> g_dump_stats{false};

void on_signal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

void on_sigusr1(int) { g_dump_stats.store(true, std::memory_order_relaxed); }

// SIGUSR1 handler's deferred work: a point-in-time operational snapshot on
// stderr — queue depths, shard quarantine state, degraded-mode durability,
// watchdog counters, journal segments. Safe to call any time the service is
// alive; costs a few mutex acquisitions.
void dump_stats(const PlannerService& service) {
  const PlannerService::ServiceStats stats = service.stats();
  const PlannerService::Counters& c = stats.counters;
  std::fprintf(stderr, "=== nptsn_serve stats ===\n");
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const PlannerService::ShardSnapshot& shard = stats.shards[i];
    std::string notes;
    if (shard.quarantined) notes += " QUARANTINED";
    if (shard.wedged_sessions > 0) {
      notes += " wedged=" + std::to_string(shard.wedged_sessions);
    }
    std::fprintf(stderr, "shard %zu: queue_depth=%zu%s\n", i, shard.queue_depth,
                 notes.c_str());
  }
  std::fprintf(stderr, "inflight=%zu retry_backlog=%zu\n", stats.inflight,
               stats.retry_backlog);
  std::fprintf(stderr,
               "counters: submitted=%lld planned=%lld infeasible=%lld "
               "rejected=%lld faulted=%lld cancelled=%lld overloaded=%lld "
               "retried=%lld recovered=%lld replayed=%lld\n",
               static_cast<long long>(c.submitted), static_cast<long long>(c.planned),
               static_cast<long long>(c.infeasible), static_cast<long long>(c.rejected),
               static_cast<long long>(c.faulted), static_cast<long long>(c.cancelled),
               static_cast<long long>(c.overloaded), static_cast<long long>(c.retried),
               static_cast<long long>(c.recovered), static_cast<long long>(c.replayed));
  std::fprintf(stderr,
               "faults: degraded_sheds=%lld non_durable=%lld rearmed=%lld "
               "watchdog_cancels=%lld wedged=%lld unwedged=%lld rerouted=%lld\n",
               static_cast<long long>(c.degraded), static_cast<long long>(c.non_durable),
               static_cast<long long>(c.rearmed),
               static_cast<long long>(c.watchdog_cancels),
               static_cast<long long>(c.wedged), static_cast<long long>(c.unwedged),
               static_cast<long long>(c.rerouted));
  if (stats.journal_configured) {
    const RequestJournal::Stats& j = stats.journal;
    std::fprintf(stderr,
                 "journal: %s%s%s appends=%lld rotations=%lld compactions=%lld "
                 "live=%lld undelivered=%lld io_retries=%lld abandoned=%lld "
                 "close_errors=%lld degraded_entered=%lld rearms=%lld "
                 "reconciled=%lld\n",
                 stats.durable ? "DURABLE" : "DEGRADED",
                 stats.durable ? "" : ": ",
                 stats.durable ? "" : stats.degraded_reason.c_str(),
                 static_cast<long long>(j.appends), static_cast<long long>(j.rotations),
                 static_cast<long long>(j.compactions), static_cast<long long>(j.live),
                 static_cast<long long>(j.undelivered),
                 static_cast<long long>(j.io_retries),
                 static_cast<long long>(j.segments_abandoned),
                 static_cast<long long>(j.close_errors),
                 static_cast<long long>(j.degraded_entered),
                 static_cast<long long>(j.rearms), static_cast<long long>(j.reconciled));
    for (const auto& [path, size] : stats.journal_segments) {
      std::fprintf(stderr, "journal segment: %s (%llu bytes)\n", path.c_str(),
                   static_cast<unsigned long long>(size));
    }
  } else {
    std::fprintf(stderr, "journal: not configured\n");
  }
  std::fprintf(stderr, "=== end stats ===\n");
  std::fflush(stderr);
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] SPEC [SPEC...]\n"
      "\n"
      "Runs the planner service over the given problems and reports each\n"
      "session's outcome. SPEC is one of:\n"
      "  ads                the ADS scenario with its application flows\n"
      "  orion[:FLOWS[:SEED]]   ORION with FLOWS random flows (default 4)\n"
      "  gen:SEED[:FLOWS[:ZONES]]  a generated zonal instance\n"
      "  problem:PATH       canonical problem bytes (net/problem.hpp)\n"
      "Append @P to any spec to set its queue priority (e.g. ads@10).\n"
      "\n"
      "service options:\n"
      "  --shards N           worker-pool shards (default 1)\n"
      "  --workers N          workers per shard (default 1)\n"
      "  --queue-capacity N   per-shard admission bound (default 64)\n"
      "  --no-shared-cache    disable the cross-session caches\n"
      "  --warm-start         warm-start policy weights across sessions\n"
      "                       (opt-in: changes training trajectories)\n"
      "  --state-dir DIR      per-session checkpoints (DIR/<id>.ckpt); without\n"
      "                       --journal the journal lives in DIR/journal\n"
      "  --journal DIR        write-ahead request journal; a re-run over the\n"
      "                       same DIR recovers unfinished requests and\n"
      "                       replays finished ones (ids deduplicated)\n"
      "  --max-attempts N     retry faulted/deadline-expired sessions up to\n"
      "                       N attempts with exponential backoff (default 1)\n"
      "  --admission-timeout SEC  shed a request as overloaded after waiting\n"
      "                       SEC for a queue slot (default 0 = wait forever)\n"
      "session options (template for every request):\n"
      "  --epochs N           training epochs (default 12)\n"
      "  --steps N            steps per epoch (default 256)\n"
      "  --seed S             base RNG seed (default 1)\n"
      "  --workers-per-session N  rollout workers inside a session\n"
      "  --audit              audit the final plan (certificate in-band)\n"
      "  --certificates DIR   additionally write every planned session's\n"
      "                       certificate to DIR/<id>.cert (re-checkable\n"
      "                       offline with nptsn_audit)\n"
      "  --min-order K        frontier floor: verify (and certify) every\n"
      "                       failure scenario up to order K even below the\n"
      "                       reliability goal (default 0 = Algorithm 3)\n"
      "  --include-links      mixed frontiers: planned links fail as\n"
      "                       first-class candidates next to switches\n"
      "  --session-wall SEC   per-session wall budget (0 = unlimited)\n"
      "  --watchdog-grace G   cancel sessions overrunning the wall budget by\n"
      "                       Gx and quarantine shards that still hang (G >= 1;\n"
      "                       default 0 = off; needs --session-wall)\n"
      "  --repeat N           submit every spec N times (ids get -rK)\n"
      "\n"
      "signals: SIGTERM/SIGINT cancel (exit 5; with a journal, re-running the\n"
      "same command resumes the unanswered requests); SIGUSR1 dumps live service\n"
      "stats (queue depths, shard health, journal durability) to stderr.\n"
      "A supervisor that may signal the daemon right after spawning it should\n"
      "exec it with SIGTERM, SIGINT and SIGUSR1 blocked: the daemon unblocks\n"
      "them once its handlers are installed, so an early signal is delivered\n"
      "then instead of killing it. Otherwise wait for the startup banner.\n",
      argv0);
}

// All of `text` as a T in [lo, hi], or nullopt: empty input, trailing junk,
// overflow, inf/nan and out-of-range values are all refused (atoi/atof would
// read most of them as 0).
template <typename T>
std::optional<T> parse_number(const std::string& text, T lo, T hi) {
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc{} || ptr != end || !(parsed >= lo && parsed <= hi)) {
    return std::nullopt;
  }
  return parsed;
}

struct Spec {
  std::string text;
  int priority = 0;
};

// "name@P" -> {name, P}; no @ -> priority 0. Throws ValidationError when P
// is not an integer.
Spec parse_spec(const std::string& raw) {
  Spec spec;
  const std::size_t at = raw.rfind('@');
  spec.text = raw.substr(0, at);
  if (at != std::string::npos) {
    const auto priority = parse_number(raw.substr(at + 1), std::numeric_limits<int>::min(),
                                       std::numeric_limits<int>::max());
    if (!priority) {
      throw ValidationError("spec '" + raw + "' needs an integer priority after @");
    }
    spec.priority = *priority;
  }
  return spec;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<char> data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) throw std::runtime_error("cannot read " + path);
  return {data.begin(), data.end()};
}

// Builds the request for one spec. Throws ValidationError on a malformed
// spec (exit 2 at the call site) and std::runtime_error on I/O (exit 3).
PlanningRequest build_request(const Spec& spec) {
  PlanningRequest request;
  request.priority = spec.priority;
  const std::string& text = spec.text;

  auto split = [](const std::string& s) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
      const std::size_t colon = s.find(':', start);
      parts.push_back(s.substr(start, colon - start));
      if (colon == std::string::npos) return parts;
      start = colon + 1;
    }
  };
  const std::vector<std::string> parts = split(text);

  if (parts[0] == "ads") {
    const Scenario scenario = make_ads();
    request.id = "ads";
    request.label = "ADS / application flows";
    request.problem_bytes = problem_bytes(with_flows(scenario, ads_flows()));
  } else if (parts[0] == "orion") {
    const int flows = parts.size() > 1 ? std::atoi(parts[1].c_str()) : 4;
    const std::uint64_t seed =
        parts.size() > 2 ? std::strtoull(parts[2].c_str(), nullptr, 10) : 1;
    const Scenario scenario = make_orion();
    Rng rng(seed);
    request.id = "orion-f" + std::to_string(flows) + "-s" + std::to_string(seed);
    request.label = "ORION / " + std::to_string(flows) + " random flows";
    request.problem_bytes =
        problem_bytes(with_flows(scenario, random_flows(scenario.problem, flows, rng)));
  } else if (parts[0] == "gen") {
    if (parts.size() < 2 || parts[1].empty()) {
      throw ValidationError(
          "gen spec needs a seed: gen:SEED[:FLOWS[:ZONES[:SPZ[:BACKBONE[:ESDEG]]]]]");
    }
    const std::uint64_t seed = std::strtoull(parts[1].c_str(), nullptr, 10);
    GeneratorParams params;
    if (parts.size() > 2) params.flow_count = std::atoi(parts[2].c_str());
    if (parts.size() > 3) params.zones = std::atoi(parts[3].c_str());
    // Optional richness knobs (frontier hardening needs them: a min-order-2
    // plan only exists when end stations can be homed to >= 3 switches).
    if (parts.size() > 4) params.switches_per_zone = std::atoi(parts[4].c_str());
    if (parts.size() > 5) params.backbone_switches = std::atoi(parts[5].c_str());
    if (parts.size() > 6) params.max_es_degree = std::atoi(parts[6].c_str());
    request.id = "gen-" + std::to_string(seed) + "-f" +
                 std::to_string(params.flow_count) + "-z" + std::to_string(params.zones);
    if (parts.size() > 4) {
      request.id += "-s" + std::to_string(params.switches_per_zone) + "-b" +
                    std::to_string(params.backbone_switches) + "-d" +
                    std::to_string(params.max_es_degree);
    }
    request.label = describe(params) + " seed " + std::to_string(seed);
    request.problem_bytes = problem_bytes(generate(params, seed));
  } else if (parts[0] == "problem") {
    if (parts.size() < 2 || parts[1].empty()) {
      throw ValidationError("problem spec needs a path: problem:PATH");
    }
    // The rest of the spec is the path (it may itself contain colons).
    const std::string path = text.substr(std::strlen("problem:"));
    request.id = path.substr(path.find_last_of('/') + 1);
    request.label = "problem file " + path;
    request.problem_bytes = read_file_bytes(path);
  } else {
    throw ValidationError("unknown spec '" + text + "'");
  }
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  // First thing: until these are installed SIGUSR1's default action kills the
  // process, so a stats request racing startup must find them in place. The
  // handlers only set flags; the wait loop below acts on them. A supervisor
  // that launched us with the three signals blocked (the mask survives exec)
  // closed the window before main as well: whatever arrived meanwhile stays
  // pending and is delivered to the handlers by the unblock.
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGUSR1, on_sigusr1);
  sigset_t handled;
  sigemptyset(&handled);
  sigaddset(&handled, SIGTERM);
  sigaddset(&handled, SIGINT);
  sigaddset(&handled, SIGUSR1);
  sigprocmask(SIG_UNBLOCK, &handled, nullptr);

  ServiceConfig config;
  config.session.epochs = 12;
  config.session.steps_per_epoch = 256;
  config.session.num_workers = 1;
  int repeat = 1;
  double admission_timeout = 0.0;
  std::string certificates_dir;
  std::vector<std::string> spec_args;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // The flag's value parsed in full and range-checked; anything else is a
    // usage error here rather than a zero that fails later and elsewhere.
    const auto number = [&](auto lo, auto hi) {
      const std::string text = value();
      const auto parsed = parse_number(text, lo, hi);
      if (!parsed) {
        std::ostringstream range;
        range << '[' << lo << ", " << hi << ']';
        std::fprintf(stderr, "error: %s needs a number in %s, got '%s'\n", arg.c_str(),
                     range.str().c_str(), text.c_str());
        std::exit(2);
      }
      return *parsed;
    };
    if (arg == "--shards") {
      config.shards = number(1, kMaxInt);
    } else if (arg == "--workers") {
      config.workers_per_shard = number(1, kMaxInt);
    } else if (arg == "--queue-capacity") {
      config.queue_capacity = number(std::size_t{1}, std::numeric_limits<std::size_t>::max());
    } else if (arg == "--no-shared-cache") {
      config.shared_caches = false;
    } else if (arg == "--warm-start") {
      config.warm_start = true;
    } else if (arg == "--state-dir") {
      config.state_dir = value();
    } else if (arg == "--journal") {
      config.journal_dir = value();
    } else if (arg == "--max-attempts") {
      config.default_max_attempts = number(1, kMaxInt);
    } else if (arg == "--admission-timeout") {
      admission_timeout = number(0.0, kMaxSeconds);
    } else if (arg == "--epochs") {
      config.session.epochs = number(1, kMaxInt);
    } else if (arg == "--steps") {
      config.session.steps_per_epoch = number(1, kMaxInt);
    } else if (arg == "--seed") {
      config.session.seed =
          number(std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--workers-per-session") {
      config.session.num_workers = number(1, kMaxInt);
    } else if (arg == "--audit") {
      config.session.audit_mode = AuditMode::kFinal;
    } else if (arg == "--certificates") {
      certificates_dir = value();
    } else if (arg == "--min-order") {
      config.session.min_frontier_order = number(0, 4096);
    } else if (arg == "--include-links") {
      config.session.frontier_include_links = true;
    } else if (arg == "--session-wall") {
      config.session_wall_seconds = number(0.0, kMaxSeconds);
    } else if (arg == "--watchdog-grace") {
      config.watchdog_grace = number(0.0, kMaxSeconds);
    } else if (arg == "--repeat") {
      repeat = number(1, kMaxInt);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown argument %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else {
      spec_args.push_back(arg);
    }
  }
  if (spec_args.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (config.watchdog_grace != 0.0 &&
      (config.watchdog_grace < 1.0 || config.session_wall_seconds <= 0.0)) {
    std::fprintf(stderr,
                 "error: --watchdog-grace must be >= 1 and needs --session-wall\n");
    return 2;
  }

  // SIGTERM must lose nothing a --state-dir run admitted: journal there
  // unless a journal directory was named.
  if (config.journal_dir.empty() && !config.state_dir.empty()) {
    config.journal_dir = config.state_dir + "/journal";
  }

  // Build every request before booting the service, so a malformed spec is a
  // clean usage/I-O error instead of a half-run.
  std::vector<PlanningRequest> requests;
  try {
    for (const std::string& arg : spec_args) {
      const PlanningRequest request = build_request(parse_spec(arg));
      for (int r = 0; r < repeat; ++r) {
        PlanningRequest copy = request;
        if (repeat > 1) copy.id += "-r" + std::to_string(r);
        requests.push_back(std::move(copy));
      }
    }
  } catch (const ValidationError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }

  // Chaos harness hook: lets an out-of-process test plant a SIGKILL at a
  // named journal/service point inside this real daemon. Inert otherwise.
  if (arm_crash_point_from_env()) {
    std::fprintf(stderr, "crash point armed from NPTSN_CRASH_POINT\n");
  }
  // Fault-soak hook: deterministic I/O faults (ENOSPC, EIO, EINTR storms,
  // short writes) against named journal/checkpoint sites. Inert otherwise.
  if (const int armed = io::arm_io_faults_from_env(); armed > 0) {
    std::fprintf(stderr, "%d I/O fault(s) armed from NPTSN_IO_FAULT\n", armed);
  }

  std::printf("nptsn_serve: %d shard(s) x %d worker(s), caches %s, %zu request(s)\n",
              config.shards, config.workers_per_shard,
              config.shared_caches ? "shared" : "off", requests.size());
  std::fflush(stdout);

  std::unique_ptr<PlannerService> service;
  try {
    service = std::make_unique<PlannerService>(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: cannot start service: %s\n", e.what());
    return 3;
  }

  // Journal recovery: report what came back, wait on it alongside the fresh
  // submissions, and drop CLI specs a recovered session already covers —
  // "rerun the same command after a crash" must not double-run anything.
  for (const std::string& warning : service->recovery_warnings()) {
    std::fprintf(stderr, "journal warning: %s\n", warning.c_str());
  }
  std::vector<std::future<PlanningResponse>> futures;
  std::set<std::string> recovered_ids;
  for (PlannerService::RecoveredSession& session : service->take_recovered()) {
    std::printf("recovered from journal: %s%s\n", session.request.id.c_str(),
                session.replayed ? " (finished: replaying persisted answer)" : "");
    recovered_ids.insert(session.request.id);
    futures.push_back(std::move(session.response));
  }
  std::fflush(stdout);

  try {
    for (PlanningRequest& request : requests) {
      if (recovered_ids.count(request.id) != 0) {
        std::printf("skipping %s: already recovered from the journal\n",
                    request.id.c_str());
        continue;
      }
      futures.push_back(admission_timeout > 0.0
                            ? service->submit_within(std::move(request), admission_timeout)
                            : service->submit(std::move(request)));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: submit failed: %s\n", e.what());
    service->shutdown(PlannerService::Shutdown::kCancel);
    return 3;
  }

  // Wait for every response, polling for the shutdown signal. A signal
  // cancels the service; already-resolved futures keep their results and the
  // rest resolve as kCancelled.
  bool interrupted = false;
  int failures = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    while (!interrupted &&
           futures[i].wait_for(std::chrono::milliseconds(100)) !=
               std::future_status::ready) {
      if (g_dump_stats.exchange(false, std::memory_order_relaxed)) {
        dump_stats(*service);
      }
      if (g_signal.load(std::memory_order_relaxed) != 0) {
        std::printf("signal received: cancelling in-flight sessions...\n");
        std::fflush(stdout);
        service->shutdown(PlannerService::Shutdown::kCancel);
        interrupted = true;
      }
    }
    const PlanningResponse response = futures[i].get();
    const char* status = to_string(response.status);
    if (response.status == ResponseStatus::kPlanned) {
      std::printf(
          "[%s] %s: cost %.1f, %d epoch(s), shard %d, queue %.2fs, plan %.2fs, "
          "%lld shared hit(s)%s%s%s%s\n",
          status, response.id.c_str(), response.best_cost, response.epochs_completed,
          response.shard, response.queue_seconds, response.plan_seconds,
          static_cast<long long>(response.verify_shared_hits),
          response.certificate_bytes.empty() ? "" : ", certified",
          response.stopped_reason.empty() ? "" : ", stopped early",
          response.attempt > 1 ? ", retried" : "",
          response.replayed ? ", replayed" : "");
      if (!certificates_dir.empty() && !response.certificate_bytes.empty()) {
        const std::string path = certificates_dir + "/" + response.id + ".cert";
        try {
          ByteReader in(response.certificate_bytes);
          save_certificate_file(path, load_certificate(in));
          std::printf("certificate written: %s\n", path.c_str());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "error: cannot write %s: %s\n", path.c_str(), e.what());
          ++failures;
        }
      }
    } else {
      std::printf("[%s] %s: %s\n", status, response.id.c_str(),
                  !response.error.empty() ? response.error.c_str()
                  : !response.stopped_reason.empty() ? response.stopped_reason.c_str()
                                                     : "no verified solution");
      if (response.status != ResponseStatus::kCancelled) ++failures;
    }
    std::fflush(stdout);
  }

  // Honor a stats request that landed after the last future resolved.
  if (g_dump_stats.exchange(false, std::memory_order_relaxed)) {
    dump_stats(*service);
  }

  if (!interrupted) service->shutdown(PlannerService::Shutdown::kDrain);

  const PlannerService::Counters counters = service->counters();
  std::printf(
      "done: %lld submitted, %lld planned, %lld infeasible, %lld rejected, "
      "%lld faulted, %lld cancelled, %lld overloaded, %lld retried, "
      "%lld recovered, %lld replayed, %lld degraded, %lld non-durable\n",
      static_cast<long long>(counters.submitted), static_cast<long long>(counters.planned),
      static_cast<long long>(counters.infeasible),
      static_cast<long long>(counters.rejected), static_cast<long long>(counters.faulted),
      static_cast<long long>(counters.cancelled),
      static_cast<long long>(counters.overloaded),
      static_cast<long long>(counters.retried),
      static_cast<long long>(counters.recovered),
      static_cast<long long>(counters.replayed),
      static_cast<long long>(counters.degraded),
      static_cast<long long>(counters.non_durable));

  if (interrupted) return 5;
  return failures == 0 ? 0 : 1;
}
