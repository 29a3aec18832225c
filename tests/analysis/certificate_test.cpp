// Reliability-certificate tests: builder-vs-analyzer consistency, frontier
// coverage, superset flow-state reuse, serialization round trips, and
// loader robustness against corrupt bytes.
#include "analysis/certificate.hpp"

#include <gtest/gtest.h>

#include "analysis/failure_analyzer.hpp"
#include "testing/temp_dir.hpp"
#include "testing/test_problems.hpp"
#include "tsn/recovery.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

using testing::dual_homed_topology;
using testing::star_topology;
using testing::tiny_problem;

void expect_certificates_equal(const ReliabilityCertificate& a,
                               const ReliabilityCertificate& b) {
  EXPECT_EQ(a.problem_fp, b.problem_fp);
  EXPECT_EQ(a.switch_ids, b.switch_ids);
  EXPECT_EQ(a.switch_levels, b.switch_levels);
  EXPECT_EQ(a.links, b.links);
  EXPECT_EQ(a.link_levels, b.link_levels);
  EXPECT_EQ(a.topology_fp, b.topology_fp);
  EXPECT_EQ(a.reliability_goal, b.reliability_goal);
  EXPECT_EQ(a.claimed_cost, b.claimed_cost);
  EXPECT_EQ(a.max_order, b.max_order);
  EXPECT_EQ(a.flow_level_redundancy, b.flow_level_redundancy);
  ASSERT_EQ(a.proofs.size(), b.proofs.size());
  for (std::size_t i = 0; i < a.proofs.size(); ++i) {
    EXPECT_EQ(a.proofs[i].scenario.failed_switches, b.proofs[i].scenario.failed_switches);
    EXPECT_EQ(a.proofs[i].scenario.failed_links, b.proofs[i].scenario.failed_links);
    EXPECT_EQ(a.proofs[i].probability, b.proofs[i].probability);
    ASSERT_EQ(a.proofs[i].state.size(), b.proofs[i].state.size());
    for (std::size_t f = 0; f < a.proofs[i].state.size(); ++f) {
      const auto& sa = a.proofs[i].state[f];
      const auto& sb = b.proofs[i].state[f];
      ASSERT_EQ(sa.has_value(), sb.has_value());
      if (sa) {
        EXPECT_EQ(sa->path, sb->path);
        EXPECT_EQ(sa->slots, sb->slots);
      }
    }
  }
}

TEST(CertificateBuild, SucceedsOnReliableTopologyAndCoversFrontier) {
  const auto problem = tiny_problem();
  const auto topology = dual_homed_topology(problem, Asil::A);
  const HeuristicRecovery nbf;

  const auto built = build_certificate(topology, nbf);
  ASSERT_TRUE(built.ok);
  const ReliabilityCertificate& cert = built.certificate;

  EXPECT_EQ(cert.problem_fp, problem_fingerprint(problem));
  EXPECT_EQ(cert.topology_fp, topology.graph_fingerprint());
  EXPECT_EQ(cert.reliability_goal, problem.reliability_goal);
  EXPECT_EQ(cert.claimed_cost, topology.cost());
  EXPECT_EQ(cert.switch_ids, (std::vector<NodeId>{4, 5}));
  EXPECT_EQ(cert.links.size(), topology.graph().edges().size());

  // maxord 1 for two ASIL-A switches at R = 1e-6: the frontier is the empty
  // scenario plus each single-switch failure.
  EXPECT_EQ(cert.max_order, 1);
  ASSERT_EQ(cert.proofs.size(), 3u);
  EXPECT_TRUE(cert.proofs[0].scenario.empty());
  EXPECT_EQ(cert.proofs[1].scenario.failed_switches, (std::vector<NodeId>{4}));
  EXPECT_EQ(cert.proofs[2].scenario.failed_switches, (std::vector<NodeId>{5}));
  EXPECT_EQ(cert.proofs[0].probability, 1.0);
  for (const ScenarioProof& proof : cert.proofs) {
    EXPECT_EQ(proof.probability, failure_probability(topology, proof.scenario));
    ASSERT_EQ(proof.state.size(), problem.flows.size());
    for (const auto& assignment : proof.state) EXPECT_TRUE(assignment.has_value());
  }
}

TEST(CertificateBuild, FailsOnSinglePointOfFailureWithAnalyzerCounterexample) {
  const auto problem = tiny_problem();
  const auto topology = star_topology(problem, Asil::A);
  const HeuristicRecovery nbf;

  const auto analysis = FailureAnalyzer(nbf).analyze(topology);
  ASSERT_FALSE(analysis.reliable);

  const auto built = build_certificate(topology, nbf);
  EXPECT_FALSE(built.ok);
  EXPECT_EQ(built.counterexample.failed_switches, analysis.counterexample.failed_switches);
  EXPECT_EQ(built.errors, analysis.errors);
}

TEST(CertificateBuild, AgreesWithAnalyzerAcrossUpgradeLevels) {
  const auto problem = tiny_problem(3);
  const HeuristicRecovery nbf;
  for (const Asil level : kAllAsil) {
    const auto dual = dual_homed_topology(problem, level);
    EXPECT_EQ(build_certificate(dual, nbf).ok, FailureAnalyzer(nbf).analyze(dual).reliable);
    const auto star = star_topology(problem, level);
    EXPECT_EQ(build_certificate(star, nbf).ok, FailureAnalyzer(nbf).analyze(star).reliable);
  }
}

// Fails (claims unrecoverable flows) exactly on the empty scenario;
// delegates everything else. The greedy NBF verdict is not monotone, so the
// builder must prove such a subset via an already-proven superset's state.
class EmptyFailNbf final : public StatelessNbf {
 public:
  explicit EmptyFailNbf(const StatelessNbf& inner) : inner_(&inner) {}
  NbfResult recover(const Topology& topology,
                    const FailureScenario& scenario) const override {
    if (scenario.empty()) {
      NbfResult result;
      result.errors.push_back({0, 1});
      return result;
    }
    return inner_->recover(topology, scenario);
  }

 private:
  const StatelessNbf* inner_;
};

TEST(CertificateBuild, ReusesProvenSupersetStateForFailedSubset) {
  const auto problem = tiny_problem();
  const auto topology = dual_homed_topology(problem, Asil::A);
  const HeuristicRecovery heuristic;
  const EmptyFailNbf nbf(heuristic);

  // The pruning analyzer never evaluates the empty scenario (it is a subset
  // of the proven singles), so it still reports reliable.
  ASSERT_TRUE(FailureAnalyzer(nbf).analyze(topology).reliable);

  const auto built = build_certificate(topology, nbf);
  ASSERT_TRUE(built.ok);
  EXPECT_EQ(built.superset_reuses, 1);
  ASSERT_EQ(built.certificate.proofs.size(), 3u);
  // The empty scenario's proof carries the {4}-failure state (the first
  // proven superset in enumeration order): routes avoid switch 4 entirely.
  ASSERT_TRUE(built.certificate.proofs[0].scenario.empty());
  for (const auto& assignment : built.certificate.proofs[0].state) {
    ASSERT_TRUE(assignment.has_value());
    for (const NodeId hop : assignment->path) EXPECT_NE(hop, 4);
  }
}

TEST(CertificateSerialization, FileRoundTripIsExact) {
  const auto problem = tiny_problem(3);
  const auto topology = dual_homed_topology(problem, Asil::B);
  const auto built = build_certificate(topology, HeuristicRecovery());
  ASSERT_TRUE(built.ok);

  const std::string path = nptsn::testing::temp_path("certificate_roundtrip.bin");
  save_certificate_file(path, built.certificate);
  const ReliabilityCertificate loaded = load_certificate_file(path);
  expect_certificates_equal(built.certificate, loaded);
  std::remove(path.c_str());
}

TEST(CertificateSerialization, ProblemFingerprintSeparatesProblems) {
  const auto base = tiny_problem();
  const std::uint64_t fp = problem_fingerprint(base);
  EXPECT_EQ(fp, problem_fingerprint(tiny_problem()));  // deterministic

  auto more_flows = tiny_problem(3);
  EXPECT_NE(fp, problem_fingerprint(more_flows));

  auto other_goal = tiny_problem();
  other_goal.reliability_goal = 1e-5;
  EXPECT_NE(fp, problem_fingerprint(other_goal));

  auto other_period = tiny_problem();
  other_period.tsn.slots_per_base = 40;
  EXPECT_NE(fp, problem_fingerprint(other_period));

  auto other_degree = tiny_problem();
  other_degree.max_es_degree = 3;
  EXPECT_NE(fp, problem_fingerprint(other_degree));
}

TEST(CertificateSerialization, LoaderRejectsCorruptBytesWithCheckpointError) {
  const auto problem = tiny_problem();
  const auto built = build_certificate(dual_homed_topology(problem), HeuristicRecovery());
  ASSERT_TRUE(built.ok);
  ByteWriter writer;
  save_certificate(built.certificate, writer);
  const std::vector<std::uint8_t> valid = writer.data();

  auto try_load = [](const std::vector<std::uint8_t>& bytes) {
    ByteReader in(bytes);
    ReliabilityCertificate cert = load_certificate(in);
    in.expect_exhausted("certificate");
    return cert;
  };

  // Truncation at every prefix length: CheckpointError or nothing.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    std::vector<std::uint8_t> truncated(valid.begin(),
                                        valid.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(try_load(truncated), CheckpointError) << "prefix length " << len;
  }

  // Deterministic bit flips over the whole buffer: either the loader still
  // accepts the value-level change or it throws CheckpointError — never
  // anything else (ASan/UBSan in CI turn UB into a failure here).
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> mutated = valid;
    const std::size_t pos = static_cast<std::size_t>(rng.next_u64() % mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
    try {
      (void)try_load(mutated);
    } catch (const CheckpointError&) {
      // expected failure mode
    }
  }
}

}  // namespace
}  // namespace nptsn
