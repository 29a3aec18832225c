// End-to-end tests for the planner service: sessions complete with correct
// statuses, faults stay isolated to their own session, the shared cache layer
// is bit-identity-preserving (the differential test the cache contract
// demands), and a cancelling shutdown resolves every admitted request.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "net/problem.hpp"
#include "service/service.hpp"
#include "testing/test_problems.hpp"

namespace nptsn {
namespace {

using nptsn::testing::tiny_problem;

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

ServiceConfig small_service() {
  ServiceConfig config;
  config.session = small_session();
  return config;
}

PlanningRequest tiny_request(const std::string& id) {
  PlanningRequest request;
  request.id = id;
  request.problem_bytes = problem_bytes(tiny_problem());
  return request;
}

TEST(PlannerService, RunsASessionEndToEnd) {
  PlannerService service(small_service());
  auto future = service.submit(tiny_request("a"));
  const PlanningResponse response = future.get();
  EXPECT_EQ(response.id, "a");
  // A tiny training budget may or may not find a verified plan; either way
  // the session must complete, not fault.
  ASSERT_TRUE(response.status == ResponseStatus::kPlanned ||
              response.status == ResponseStatus::kInfeasible)
      << to_string(response.status) << ": " << response.error;
  EXPECT_EQ(response.feasible, response.status == ResponseStatus::kPlanned);
  EXPECT_EQ(response.feasible, !response.topology_bytes.empty());
  EXPECT_EQ(response.epochs_completed, 2);
  EXPECT_GE(response.shard, 0);
  EXPECT_GE(response.plan_seconds, 0.0);
  service.shutdown(PlannerService::Shutdown::kDrain);
  const auto counters = service.counters();
  EXPECT_EQ(counters.submitted, 1);
  EXPECT_EQ(counters.planned + counters.infeasible, 1);
  EXPECT_EQ(counters.faulted, 0);
}

TEST(PlannerService, ValidatesRequestsAtTheDoor) {
  PlannerService service(small_service());
  PlanningRequest no_id = tiny_request("");
  EXPECT_THROW((void)service.submit(std::move(no_id)), ValidationError);
  PlanningRequest no_bytes;
  no_bytes.id = "b";
  EXPECT_THROW((void)service.submit(std::move(no_bytes)), ValidationError);
  service.shutdown(PlannerService::Shutdown::kDrain);
  EXPECT_THROW((void)service.submit(tiny_request("late")), std::runtime_error);
  EXPECT_EQ(service.counters().submitted, 0);
}

TEST(PlannerService, FaultsStayInsideTheirSession) {
  PlannerService service(small_service());

  PlanningRequest garbage;
  garbage.id = "garbage";
  garbage.problem_bytes = {0xde, 0xad, 0xbe, 0xef};
  auto bad = service.submit(std::move(garbage));
  auto good = service.submit(tiny_request("good"));

  const PlanningResponse bad_response = bad.get();
  EXPECT_EQ(bad_response.status, ResponseStatus::kFaulted);
  EXPECT_FALSE(bad_response.error.empty());

  // The fault was absorbed at the worker boundary: the next session on the
  // same worker completes normally.
  const PlanningResponse good_response = good.get();
  EXPECT_TRUE(good_response.status == ResponseStatus::kPlanned ||
              good_response.status == ResponseStatus::kInfeasible);

  service.shutdown(PlannerService::Shutdown::kDrain);
  const auto counters = service.counters();
  EXPECT_EQ(counters.faulted, 1);
  EXPECT_EQ(counters.submitted, 2);
}

// The cache layer's core contract, tested differentially: an identical
// request stream through a shared-cache service and a cache-free service
// produces bit-identical per-session results. Repeats of one problem make
// the second session a pure cache consumer in the shared run.
TEST(PlannerService, SharedCachesPreserveBitIdenticalResults) {
  const auto run = [](bool shared) {
    ServiceConfig config = small_service();
    config.shared_caches = shared;
    PlannerService service(config);
    std::vector<std::future<PlanningResponse>> futures;
    for (int rep = 0; rep < 3; ++rep) {
      futures.push_back(service.submit(tiny_request("r" + std::to_string(rep))));
    }
    std::vector<PlanningResponse> responses;
    for (auto& future : futures) responses.push_back(future.get());
    service.shutdown(PlannerService::Shutdown::kDrain);
    return responses;
  };

  const std::vector<PlanningResponse> off = run(false);
  const std::vector<PlanningResponse> on = run(true);
  ASSERT_EQ(off.size(), on.size());
  std::int64_t shared_hits = 0;
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].status, on[i].status) << off[i].id;
    EXPECT_EQ(off[i].feasible, on[i].feasible) << off[i].id;
    EXPECT_EQ(off[i].best_cost, on[i].best_cost) << off[i].id;
    EXPECT_EQ(off[i].topology_bytes, on[i].topology_bytes) << off[i].id;
    EXPECT_EQ(off[i].certificate_bytes, on[i].certificate_bytes) << off[i].id;
    EXPECT_EQ(off[i].epochs_completed, on[i].epochs_completed) << off[i].id;
    EXPECT_EQ(off[i].verify_shared_hits, 0) << "cache-off session saw shared hits";
    shared_hits += on[i].verify_shared_hits;
  }
  // The shared run actually shared: repeat sessions served verification from
  // the cross-problem cache.
  EXPECT_GT(shared_hits, 0);
}

TEST(PlannerService, RoutesSameProblemToSameShard) {
  ServiceConfig config = small_service();
  config.shards = 3;
  PlannerService service(config);
  auto a = service.submit(tiny_request("a"));
  auto b = service.submit(tiny_request("b"));
  const PlanningResponse ra = a.get();
  const PlanningResponse rb = b.get();
  EXPECT_EQ(ra.shard, rb.shard);  // identical bytes, identical shard
  service.shutdown(PlannerService::Shutdown::kDrain);
}

TEST(PlannerService, CancellingShutdownResolvesEveryAdmittedRequest) {
  ServiceConfig config = small_service();
  config.session.epochs = 4;  // keep the single worker busy for a while
  PlannerService service(config);

  std::vector<std::future<PlanningResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.submit(tiny_request("c" + std::to_string(i))));
  }
  service.shutdown(PlannerService::Shutdown::kCancel);

  int cancelled = 0;
  for (auto& future : futures) {
    const PlanningResponse response = future.get();  // nothing may hang
    if (response.status == ResponseStatus::kCancelled) ++cancelled;
  }
  // With one worker and six queued sessions, a cancelling shutdown must
  // cancel most of the backlog.
  EXPECT_GT(cancelled, 0);
  const auto counters = service.counters();
  EXPECT_EQ(counters.submitted, 6);
  EXPECT_EQ(counters.cancelled, cancelled);
}

TEST(PlannerService, ShutdownIsIdempotentAndDestructorSafe) {
  PlannerService service(small_service());
  auto future = service.submit(tiny_request("x"));
  service.shutdown(PlannerService::Shutdown::kDrain);
  service.shutdown(PlannerService::Shutdown::kDrain);
  service.shutdown(PlannerService::Shutdown::kCancel);
  EXPECT_NO_THROW((void)future.get());
  // Destructor runs another shutdown on scope exit — must be a no-op.
}

}  // namespace
}  // namespace nptsn
