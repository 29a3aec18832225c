// Planning-as-a-service runtime (DESIGN.md §13–14).
//
// A long-lived planner process: callers submit serialized PlanningProblems
// (the canonical save_problem bytes) into a bounded, prioritized queue;
// sharded worker pools run each request as a full plan-train-audit session
// under its own cooperative Deadline envelope; and one set of cross-session
// stores — the engine verdict/outcome cache, the staged-adjacency cache, and
// the warm-start policy store — is installed into every session's config, so
// warm state survives session boundaries.
//
// Fault isolation: a session is one plan() call. Every throw a session can
// produce (malformed bytes, validation errors, NBF faults that exhaust the
// trainer's retries) is caught at the worker boundary and returned as a
// kFaulted response; the worker, its shard, and the other in-flight sessions
// keep running. Nothing a request contains can take the service down.
//
// Crash durability (service/journal.hpp): with journal_dir configured every
// submit appends a fsynced kAccepted record BEFORE the future is returned,
// every attempt start / retry / terminal outcome is journaled as it happens,
// and a restarted service recovers: non-terminal requests re-execute
// (at-least-once), terminal ones replay their persisted answer without
// re-running (exactly-once answered). A torn journal tail is dropped with a
// warning, never a refusal to start.
//
// Retry: a kFaulted or deadline-expired session re-runs up to the request's
// max_attempts, spaced by bounded exponential backoff with deterministic
// (seeded) jitter; per-request checkpoints under state_dir make each retry a
// resume rather than a restart. Backpressure: try_submit / submit_within
// shed with an explicit kOverloaded response instead of blocking forever.
//
// Graceful shutdown: kDrain closes admission and finishes the backlog
// (pending retries run immediately, skipping their remaining backoff);
// kCancel additionally fires every in-flight session's deadline token
// (Deadline::cancel), so each session unwinds through the trainer's
// clean-stop path — persisting a resumable checkpoint when a state_dir is
// configured (checkpoint_on_stop) — and resolves the untouched backlog as
// kCancelled. The journal is the only record of that backlog: cancelled
// requests are never journaled as terminal, so a service constructed over
// the same journal_dir recovers them (and resumes their checkpoints).
// Without a journal, cancelled work is answered kCancelled and not kept.
//
// Determinism: the exact shared caches never change a session's result —
// plans, certificates, and training trajectories are bit-identical with
// shared_caches on or off (differential-tested in tests/service). Warm-start
// is the documented exception and stays opt-in.
//
// Environmental faults (DESIGN.md §15): storage trouble never takes the
// service down. When the journal exhausts its transient-retry budget or hits
// a persistent error (ENOSPC, EROFS...), it DEGRADES: in-flight sessions
// complete and answer — flagged response.durable == false — while new
// submissions are shed with kDegraded instead of being acknowledged into a
// journal that cannot hold them. A background durability probe re-arms the
// journal once the disk heals (re-journaling everything that mutated while
// degraded), after which a restart converges to exactly the answered state.
//
// Liveness: sessions are cooperative, but a request can wedge a worker in
// code that never polls its Deadline. With watchdog_grace > 0 a watchdog
// thread cancels any session that overruns session_wall_seconds by the grace
// factor; a session that STILL does not return within another grace window
// is declared wedged — its shard is quarantined (new work routes to healthy
// shards, its backlog is rerouted) until the wedged session finally returns.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine_cache.hpp"
#include "core/config.hpp"
#include "nn/stage_cache.hpp"
#include "rl/warm_start.hpp"
#include "service/journal.hpp"
#include "service/queue.hpp"
#include "service/request.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace nptsn {

struct ServiceConfig {
  // Worker topology: shards * workers_per_shard session slots. Requests are
  // routed to a shard by problem fingerprint, so repeated submissions of the
  // same problem serialize onto one shard's queue (back-to-back sessions on
  // one problem hit the caches hardest); distinct problems spread.
  int shards = 1;
  int workers_per_shard = 1;
  std::size_t queue_capacity = 64;  // per shard

  // Install the exact cross-session stores (engine cache + stage cache).
  bool shared_caches = true;
  EngineSharedCache::Config engine_cache;
  std::size_t stage_cache_bytes = std::size_t{64} << 20;
  // Opt into warm-started policy weights (NOT result-preserving; see
  // rl/warm_start.hpp). Installs the policy store and sets warm_start on
  // every session.
  bool warm_start = false;
  std::size_t policy_store_bytes = std::size_t{256} << 20;

  // Session template: every request's NptsnConfig starts from this (the
  // request may override epochs/steps/seed). The template's deadline and
  // cache/store fields are ignored — the service installs its own.
  NptsnConfig session;
  // Per-session cooperative budget (0 = unlimited). A fresh Deadline token
  // is minted per session either way, so shutdown(kCancel) can always fire.
  double session_wall_seconds = 0.0;
  std::int64_t session_max_ticks = 0;

  // When non-empty: per-session checkpoints land at <state_dir>/<id>.ckpt,
  // sessions checkpoint on early stops (checkpoint_on_stop), and a session
  // resumed under the same id continues from its persisted state. Created if
  // missing.
  std::string state_dir;

  // When non-empty: the write-ahead request journal lives here and the
  // service recovers journaled requests on construction (take_recovered()).
  std::string journal_dir;
  std::size_t journal_segment_bytes = std::size_t{4} << 20;
  int journal_compact_min_delivered = 64;
  // Transient-I/O retry policy handed to the journal (see RequestJournal::
  // Config) and the cadence of the durability probe that re-arms a degraded
  // journal once its storage heals.
  int journal_io_retry_attempts = 4;
  double journal_io_retry_base_seconds = 0.002;
  double durability_probe_seconds = 0.25;
  // Re-run the independent auditor over replayed kPlanned answers before
  // handing them out, so a recovered result is never weaker than a fresh one.
  bool audit_replays = true;

  // Retry policy for kFaulted / deadline-expired sessions. Attempt k waits
  // min(retry_max_seconds, retry_base_seconds * 2^(k-1)) scaled by a
  // deterministic jitter in [1, 1 + retry_jitter) before re-running.
  // Requests with max_attempts == 0 inherit default_max_attempts.
  int default_max_attempts = 1;
  double retry_base_seconds = 0.05;
  double retry_max_seconds = 2.0;
  double retry_jitter = 0.25;
  std::uint64_t retry_seed = 0x9e3779b97f4a7c15ull;

  // Stuck-session watchdog (0 disables; requires session_wall_seconds > 0).
  // A session still running after session_wall_seconds * watchdog_grace gets
  // its deadline token cancelled by force; one more grace window without
  // returning marks the worker wedged and quarantines its shard. Grace < 1
  // would cancel sessions that are merely slow, so values are >= 1 (enforced
  // at construction).
  double watchdog_grace = 0.0;
  double watchdog_poll_seconds = 0.02;
};

class PlannerService {
 public:
  explicit PlannerService(ServiceConfig config);
  // Cancelling shutdown if the caller never shut down explicitly.
  ~PlannerService();
  PlannerService(const PlannerService&) = delete;
  PlannerService& operator=(const PlannerService&) = delete;

  // Admits a request (blocking while the target shard's queue is full) and
  // returns the future response. With a journal configured the request is
  // durable before this returns. Throws std::runtime_error after shutdown;
  // throws ValidationError on an empty id or empty problem bytes.
  std::future<PlanningResponse> submit(PlanningRequest request);
  // Non-blocking admission: when the target shard's queue is full RIGHT NOW
  // the request is shed — the returned future is already resolved with
  // kOverloaded (and the journal records the shed, so the request is NOT
  // resurrected on restart).
  std::future<PlanningResponse> try_submit(PlanningRequest request);
  // Bounded-wait admission: like submit, but sheds with kOverloaded once
  // `timeout_seconds` elapse without a queue slot.
  std::future<PlanningResponse> submit_within(PlanningRequest request,
                                              double timeout_seconds);

  // What the journal recovered at construction. Replayed sessions carry a
  // ready future (the persisted, digest-checked, optionally re-audited
  // answer); live ones were resubmitted and resolve when their session runs.
  // Clears on first call. Empty without a journal.
  struct RecoveredSession {
    PlanningRequest request;
    std::future<PlanningResponse> response;
    bool replayed = false;
  };
  std::vector<RecoveredSession> take_recovered();
  // Damage diagnostics from the recovery scan (torn tails, corrupt records).
  std::vector<std::string> recovery_warnings() const;

  enum class Shutdown { kDrain, kCancel };
  // Idempotent. kDrain: stop admitting, finish the backlog (queued retries
  // run immediately), join workers. kCancel: stop admitting, fire every
  // in-flight session's deadline, join, and resolve the unstarted backlog —
  // including backoff-pending retries — as kCancelled. With a journal every
  // cancelled request stays live in it and recovers on the next construction
  // over the same journal_dir.
  void shutdown(Shutdown mode);

  struct Counters {
    std::int64_t submitted = 0;
    std::int64_t planned = 0;
    std::int64_t infeasible = 0;
    std::int64_t rejected = 0;
    std::int64_t faulted = 0;
    std::int64_t cancelled = 0;
    std::int64_t overloaded = 0;  // shed at admission
    std::int64_t retried = 0;     // attempts re-scheduled after a retryable failure
    std::int64_t recovered = 0;   // live requests resubmitted from the journal
    std::int64_t replayed = 0;    // terminal answers replayed from the journal
    // Environmental-fault accounting (DESIGN.md §15).
    std::int64_t degraded = 0;     // shed at admission: journal not durable
    std::int64_t non_durable = 0;  // answers delivered with durable == false
    std::int64_t rearmed = 0;      // probe passes that restored durability
    std::int64_t watchdog_cancels = 0;  // sessions force-cancelled for overrun
    std::int64_t wedged = 0;       // sessions that ignored the forced cancel
    std::int64_t unwedged = 0;     // wedged sessions that eventually returned
    std::int64_t rerouted = 0;     // queued requests moved off a quarantined shard
  };
  Counters counters() const;

  // Point-in-time operational snapshot — everything the SIGUSR1 stats dump
  // prints (tools/nptsn_serve.cpp) and the soak assertions read.
  struct ShardSnapshot {
    std::size_t queue_depth = 0;
    int wedged_sessions = 0;
    bool quarantined = false;
  };
  struct ServiceStats {
    std::vector<ShardSnapshot> shards;
    std::size_t inflight = 0;       // sessions currently running
    std::size_t retry_backlog = 0;  // retries waiting out their backoff
    Counters counters;
    bool journal_configured = false;
    bool durable = true;  // true when no journal is configured (nothing to lose)
    std::string degraded_reason;
    RequestJournal::Stats journal;  // zeroes when no journal is configured
    std::vector<std::pair<std::string, std::uint64_t>> journal_segments;
  };
  ServiceStats stats() const;

  // The installed cross-session stores (null when disabled) — for
  // instrumentation and tests.
  const std::shared_ptr<EngineSharedCache>& engine_cache() const { return engine_cache_; }
  const std::shared_ptr<AdjacencyStageCache>& stage_cache() const { return stage_cache_; }
  const std::shared_ptr<PolicyStore>& policy_store() const { return policy_store_; }
  const RequestJournal* journal() const { return journal_.get(); }
  const ServiceConfig& config() const { return config_; }

 private:
  struct Ticket {
    PlanningRequest request;
    std::promise<PlanningResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
    int attempt = 1;  // 1-based; >1 for retries and crash-recovered re-runs
  };
  struct Shard {
    explicit Shard(std::size_t capacity) : queue(capacity) {}
    BoundedPriorityQueue<Ticket> queue;
    std::vector<std::thread> workers;
    // Lock-free so shard_for can route around a quarantined shard without
    // taking state_mutex_; wedged_sessions is guarded by state_mutex_.
    std::atomic<bool> quarantined{false};
    int wedged_sessions = 0;
  };
  // One running session, as the watchdog sees it.
  struct Inflight {
    std::string id;
    std::shared_ptr<Deadline> deadline;
    std::chrono::steady_clock::time_point started;
    int shard_index = 0;
    bool watchdog_cancelled = false;
    std::chrono::steady_clock::time_point cancelled_at{};
    bool wedged = false;
  };
  enum class Admission { kBlock, kTry, kTimed };

  std::future<PlanningResponse> submit_impl(PlanningRequest request, Admission mode,
                                            double timeout_seconds);
  void worker_loop(int shard_index);
  // One full session; never throws (faults become kFaulted responses).
  PlanningResponse run_session(const PlanningRequest& request, int shard_index,
                               const std::shared_ptr<Deadline>& deadline);
  int shard_for(const ProblemFp& fp) const;
  int max_attempts_for(const PlanningRequest& request) const;
  bool retryable(const PlanningResponse& response) const;
  // Hands the failed attempt to the retry scheduler (or resolves it if the
  // scheduler is already stopped). ticket.attempt is the attempt that FAILED.
  void schedule_retry(Ticket ticket, int shard_index, PlanningResponse failed);
  void retry_loop();
  // Journal + deliver one terminal response (the single exit path a worker
  // uses): journal terminal -> resolve promise -> acknowledge delivery.
  void finish_ticket(Ticket ticket, PlanningResponse response);
  void replay_recovered(RequestJournal::Recovered item);
  void resubmit_recovered(RequestJournal::Recovered item);
  void resolve_cancelled(Ticket ticket);
  void count(ResponseStatus status);
  // Background threads: the durability probe re-arms a degraded journal; the
  // watchdog cancels/wedges overrunning sessions and reroutes quarantined
  // shards' backlogs to healthy ones.
  void probe_loop();
  void watchdog_loop();
  void reroute_shard(int shard_index);

  ServiceConfig config_;
  std::shared_ptr<EngineSharedCache> engine_cache_;
  std::shared_ptr<AdjacencyStageCache> stage_cache_;
  std::shared_ptr<PolicyStore> policy_store_;
  std::unique_ptr<RequestJournal> journal_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> cancelling_{false};
  std::atomic<bool> joined_{false};
  mutable std::mutex state_mutex_;  // guards inflight_, counters_, and
                                    // Shard::wedged_sessions
  std::vector<Inflight> inflight_;
  Counters counters_;
  std::mutex shutdown_mutex_;  // serializes shutdown() callers

  // Shared stop signal of the probe and watchdog threads.
  std::mutex background_mutex_;
  std::condition_variable background_cv_;
  bool background_stop_ = false;
  std::thread probe_thread_;
  std::thread watchdog_thread_;

  // Retry scheduler: a dedicated thread sleeps until the earliest due ticket
  // and feeds it back into its shard's queue.
  struct PendingRetry {
    std::chrono::steady_clock::time_point due;
    Ticket ticket;
    int shard_index = 0;
  };
  // Feeds a due (or drain-forfeited) retry back into its shard's queue,
  // waiting out a full queue; resolves it as cancelled once the queue closes.
  void requeue_retry(PendingRetry item);
  mutable std::mutex retry_mutex_;  // guards retry_heap_, retry_stop_, retry_rng_
  std::condition_variable retry_cv_;
  std::vector<PendingRetry> retry_heap_;  // min-heap by due
  bool retry_stop_ = false;
  Rng retry_rng_;
  std::thread retry_thread_;

  std::vector<RecoveredSession> recovered_;  // filled at construction
};

}  // namespace nptsn
