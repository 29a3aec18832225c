// Service-level durability tests: retry with deterministic backoff,
// backpressure shedding, and restart recovery over a real journal —
// finished requests replay their persisted answer, unfinished ones
// re-execute, and a torn journal tail degrades to a warning.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "net/problem.hpp"
#include "service/crash_point.hpp"
#include "service/journal.hpp"
#include "service/service.hpp"
#include "testing/fault_injector.hpp"
#include "testing/temp_dir.hpp"
#include "testing/test_problems.hpp"

namespace nptsn {
namespace {

using nptsn::testing::fresh_temp_dir;
using nptsn::testing::tiny_problem;
using nptsn::testing::truncate_file;

NptsnConfig small_session() {
  NptsnConfig c;
  c.path_actions = 4;
  c.gcn_layers = 1;
  c.mlp_hidden = {16};
  c.embedding_dim = 8;
  c.epochs = 2;
  c.steps_per_epoch = 32;
  c.train_actor_iters = 3;
  c.train_critic_iters = 3;
  c.seed = 21;
  return c;
}

ServiceConfig small_service(const std::string& journal_dir) {
  ServiceConfig config;
  config.session = small_session();
  config.journal_dir = journal_dir;
  // Keep retry spacing far below session runtime so tests stay fast.
  config.retry_base_seconds = 0.001;
  config.retry_max_seconds = 0.01;
  return config;
}

PlanningRequest tiny_request(const std::string& id) {
  PlanningRequest request;
  request.id = id;
  request.problem_bytes = problem_bytes(tiny_problem());
  return request;
}

PlanningRequest garbage_request(const std::string& id) {
  PlanningRequest request;
  request.id = id;
  request.problem_bytes = {1, 2, 3};  // faults every attempt, deterministically
  return request;
}

TEST(ServiceRecovery, RetryConsumesMaxAttemptsThenFaults) {
  const std::string dir = fresh_temp_dir("recovery_retry");
  ServiceConfig config = small_service(dir);
  PlanningRequest request = garbage_request("doomed");
  request.max_attempts = 3;

  PlannerService service(config);
  const PlanningResponse response = service.submit(std::move(request)).get();
  EXPECT_EQ(response.status, ResponseStatus::kFaulted);
  EXPECT_EQ(response.attempt, 3);  // the answer comes from the LAST attempt
  service.shutdown(PlannerService::Shutdown::kDrain);

  const auto counters = service.counters();
  EXPECT_EQ(counters.submitted, 1);
  EXPECT_EQ(counters.faulted, 1);
  EXPECT_EQ(counters.retried, 2);  // attempts 2 and 3 were re-scheduled

  // The journal saw the full attempt history and one terminal.
  const JournalScan scan = scan_journal(dir);
  int started = 0, retries = 0, terminals = 0;
  for (const auto& record : scan.records) {
    if (record.type == JournalRecordType::kStarted) ++started;
    if (record.type == JournalRecordType::kRetry) ++retries;
    if (record.type == JournalRecordType::kFaulted) ++terminals;
  }
  EXPECT_EQ(started, 3);
  EXPECT_EQ(retries, 2);
  EXPECT_EQ(terminals, 1);
  std::filesystem::remove_all(dir);
}

TEST(ServiceRecovery, BackoffIsDeterministicAcrossSameSeedRuns) {
  const auto backoffs_of = [](const std::string& dir) {
    ServiceConfig config = small_service(dir);
    config.retry_seed = 1234;
    PlanningRequest request = garbage_request("doomed");
    request.max_attempts = 4;
    PlannerService service(config);
    (void)service.submit(std::move(request)).get();
    service.shutdown(PlannerService::Shutdown::kDrain);
    std::vector<double> backoffs;
    for (const auto& record : scan_journal(dir).records) {
      if (record.type == JournalRecordType::kRetry) backoffs.push_back(record.backoff_seconds);
    }
    return backoffs;
  };

  const std::string dir_a = fresh_temp_dir("recovery_backoff_a");
  const std::string dir_b = fresh_temp_dir("recovery_backoff_b");
  const std::vector<double> a = backoffs_of(dir_a);
  const std::vector<double> b = backoffs_of(dir_b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a, b);  // same seed, same jitter sequence, bit for bit
  for (const double backoff : a) {
    EXPECT_GT(backoff, 0.0);
    EXPECT_LE(backoff, 0.01 * 1.25);  // retry_max * (1 + jitter)
  }
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(ServiceRecovery, TrySubmitShedsWithOverloadedAndIsNeverResurrected) {
  const std::string dir = fresh_temp_dir("recovery_overload");
  ServiceConfig config = small_service(dir);
  config.shards = 1;
  config.workers_per_shard = 1;
  config.queue_capacity = 1;

  // Park the single worker at the start of its first session so the queue
  // stays provably full while we shed.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;
  set_crash_point_hook([&](const char*) {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return released; });
  });
  arm_crash_point("service.start.after_journal", 1);

  PlannerService service(config);
  auto running = service.submit(tiny_request("running"));   // worker parks on it
  auto queued = service.submit(tiny_request("queued"));     // fills the only slot
  // Wait until the worker is actually parked (the queue slot is free again
  // once "running" is popped, so "queued" occupying it means we are parked).
  auto shed = service.try_submit(tiny_request("shed"));
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const PlanningResponse shed_response = shed.get();
  EXPECT_EQ(shed_response.status, ResponseStatus::kOverloaded);
  EXPECT_NE(shed_response.error.find("overloaded"), std::string::npos);

  auto timed = service.submit_within(tiny_request("timed"), 0.02);
  EXPECT_EQ(timed.get().status, ResponseStatus::kOverloaded);

  {
    std::lock_guard lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();
  (void)running.get();
  (void)queued.get();
  service.shutdown(PlannerService::Shutdown::kDrain);
  disarm_crash_points();
  set_crash_point_hook(nullptr);

  EXPECT_EQ(service.counters().overloaded, 2);

  // A shed request was answered kOverloaded and journaled as such: a restart
  // must not resurrect it (it was never acknowledged as accepted-for-work).
  RequestJournal reopened({dir});
  for (const auto& item : reopened.take_recovered()) {
    EXPECT_NE(item.request.id, "shed");
    EXPECT_NE(item.request.id, "timed");
  }
  std::filesystem::remove_all(dir);
}

TEST(ServiceRecovery, FinishedRequestReplaysAcrossRestartWithoutReExecution) {
  const std::string dir = fresh_temp_dir("recovery_replay");
  PlanningResponse first;
  {
    PlannerService service(small_service(dir));
    first = service.submit(tiny_request("job")).get();
    service.shutdown(PlannerService::Shutdown::kDrain);
  }
  ASSERT_TRUE(first.status == ResponseStatus::kPlanned ||
              first.status == ResponseStatus::kInfeasible);

  PlannerService restarted(small_service(dir));
  auto recovered = restarted.take_recovered();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].request.id, "job");
  EXPECT_TRUE(recovered[0].replayed);
  const PlanningResponse replay = recovered[0].response.get();
  EXPECT_TRUE(replay.replayed);
  EXPECT_EQ(replay.status, first.status);
  EXPECT_EQ(replay.feasible, first.feasible);
  EXPECT_DOUBLE_EQ(replay.best_cost, first.best_cost);
  EXPECT_EQ(replay.topology_bytes, first.topology_bytes);
  EXPECT_EQ(restarted.counters().replayed, 1);
  EXPECT_EQ(restarted.counters().recovered, 0);
  // The answer replays by id even if the caller resubmits: dedup is the
  // caller's job via take_recovered, but nothing re-executed here.
  restarted.shutdown(PlannerService::Shutdown::kDrain);
  std::filesystem::remove_all(dir);
}

TEST(ServiceRecovery, UnfinishedRequestReExecutesWithAttemptsPreserved) {
  const std::string dir = fresh_temp_dir("recovery_unfinished");
  {
    // Simulate a process that journaled accept + start + one retry and then
    // died: no terminal record ever made it to disk.
    RequestJournal journal({dir});
    PlanningRequest request = tiny_request("halfway");
    request.max_attempts = 3;
    journal.append_accepted(request, problem_fingerprint128(request.problem_bytes));
    journal.append_started("halfway", 1);
    journal.append_retry("halfway", 1, "simulated fault", 0.001);
  }

  PlannerService service(small_service(dir));
  auto recovered = service.take_recovered();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].request.id, "halfway");
  EXPECT_FALSE(recovered[0].replayed);
  const PlanningResponse response = recovered[0].response.get();
  EXPECT_TRUE(response.status == ResponseStatus::kPlanned ||
              response.status == ResponseStatus::kInfeasible)
      << to_string(response.status) << ": " << response.error;
  // One attempt was consumed before the crash; the recovered run is attempt 2.
  EXPECT_EQ(response.attempt, 2);
  EXPECT_FALSE(response.replayed);
  EXPECT_EQ(service.counters().recovered, 1);
  service.shutdown(PlannerService::Shutdown::kDrain);

  // Now the journal holds a terminal: a second restart replays, not re-runs.
  PlannerService again(small_service(dir));
  auto replayed = again.take_recovered();
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_TRUE(replayed[0].replayed);
  EXPECT_EQ(replayed[0].response.get().status, response.status);
  again.shutdown(PlannerService::Shutdown::kDrain);
  std::filesystem::remove_all(dir);
}

TEST(ServiceRecovery, CancelledWorkIsRecoveredNotLost) {
  const std::string dir = fresh_temp_dir("recovery_cancel");
  ResponseStatus first_status;
  {
    PlannerService service(small_service(dir));
    auto future = service.submit(tiny_request("interrupted"));
    service.shutdown(PlannerService::Shutdown::kCancel);
    first_status = future.get().status;
  }

  // Whatever the race resolved to, nothing is lost: a cancelled session is
  // never journaled terminal, so it recovers live; a session that beat the
  // cancel to its terminal record replays.
  PlannerService restarted(small_service(dir));
  auto recovered = restarted.take_recovered();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].request.id, "interrupted");
  if (first_status == ResponseStatus::kCancelled) {
    EXPECT_FALSE(recovered[0].replayed);
    const PlanningResponse rerun = recovered[0].response.get();
    EXPECT_TRUE(rerun.status == ResponseStatus::kPlanned ||
                rerun.status == ResponseStatus::kInfeasible)
        << to_string(rerun.status) << ": " << rerun.error;
  } else {
    EXPECT_TRUE(recovered[0].replayed);
  }
  restarted.shutdown(PlannerService::Shutdown::kDrain);
  std::filesystem::remove_all(dir);
}

TEST(ServiceRecovery, TornJournalTailWarnsButServiceStarts) {
  const std::string dir = fresh_temp_dir("recovery_torn");
  {
    RequestJournal journal({dir});
    PlanningRequest request = tiny_request("whole");
    journal.append_accepted(request, problem_fingerprint128(request.problem_bytes));
  }
  const JournalScan scan = scan_journal(dir);
  ASSERT_EQ(scan.segments.size(), 1u);
  const auto size = std::filesystem::file_size(scan.segments[0]);
  truncate_file(scan.segments[0], static_cast<std::size_t>(size) - 7);

  PlannerService service(small_service(dir));
  EXPECT_FALSE(service.recovery_warnings().empty());
  // The torn accept never became durable, so its request is (correctly) gone;
  // the service itself is healthy and admits new work.
  EXPECT_TRUE(service.take_recovered().empty());
  const PlanningResponse response = service.submit(tiny_request("fresh")).get();
  EXPECT_TRUE(response.status == ResponseStatus::kPlanned ||
              response.status == ResponseStatus::kInfeasible);
  service.shutdown(PlannerService::Shutdown::kDrain);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nptsn
