// Deserialization fuzzing: truncated, bit-flipped, and fully random inputs
// fed into every checkpoint-format loader (framed files, topologies, trainer
// state, reliability certificates). The contract under attack: a loader
// either succeeds or throws CheckpointError — never UB, unbounded
// allocation, or a hang. ASan/UBSan in CI turn any violation into a failure.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/certificate.hpp"
#include "net/topology.hpp"
#include "rl/trainer.hpp"
#include "testing/corridor_env.hpp"
#include "testing/temp_dir.hpp"
#include "testing/test_problems.hpp"
#include "tsn/recovery.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

using nptsn::testing::CorridorEnv;
using nptsn::testing::corridor_net_config;
using nptsn::testing::corridor_trainer_config;
using nptsn::testing::dual_homed_topology;
using nptsn::testing::tiny_problem;

// Runs `load` on truncations, seeded single-bit flips, and random buffers
// derived from `valid`. The loader must accept or throw CheckpointError.
template <typename Load>
void fuzz_loader(const std::vector<std::uint8_t>& valid, Load load,
                 std::uint64_t seed, int flip_trials, int random_trials) {
  ASSERT_FALSE(valid.empty());

  auto must_be_checkpoint_error_or_ok = [&](const std::vector<std::uint8_t>& bytes,
                                            const char* what) {
    try {
      load(bytes);
    } catch (const CheckpointError&) {
      // the only acceptable failure mode
    } catch (const std::exception& e) {
      FAIL() << what << ": escaped with " << e.what();
    }
  };

  // Truncation at every prefix length (strided when the payload is large so
  // the quadratic cost stays bounded).
  const std::size_t stride = valid.size() > 4096 ? valid.size() / 1024 : 1;
  for (std::size_t len = 0; len < valid.size(); len += stride) {
    const std::vector<std::uint8_t> truncated(
        valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      load(truncated);
      FAIL() << "truncation to " << len << " bytes was accepted";
    } catch (const CheckpointError&) {
    }
  }

  Rng rng(seed);
  for (int trial = 0; trial < flip_trials; ++trial) {
    std::vector<std::uint8_t> mutated = valid;
    const std::size_t pos = static_cast<std::size_t>(rng.next_u64() % mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
    must_be_checkpoint_error_or_ok(mutated, "bit flip");
  }

  for (int trial = 0; trial < random_trials; ++trial) {
    std::vector<std::uint8_t> garbage(rng.next_u64() % (valid.size() * 2 + 1));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.next_u64());
    must_be_checkpoint_error_or_ok(garbage, "random buffer");
  }
}

TEST(CheckpointFuzz, FramedFileLoaderRejectsCorruptFiles) {
  const std::string path = nptsn::testing::temp_path("fuzz_framed.bin");
  ByteWriter payload;
  payload.str("fuzz payload");
  for (int i = 0; i < 64; ++i) payload.i64(i * 7);
  save_checkpoint_file(path, 3, payload.data());

  // Slurp the framed file so the fuzzer can attack the on-disk bytes.
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> framed(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  ASSERT_EQ(std::fread(framed.data(), 1, framed.size(), f), framed.size());
  std::fclose(f);
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  const std::string scratch = nptsn::testing::temp_path("fuzz_framed_scratch.bin");
  fuzz_loader(
      framed,
      [&](const std::vector<std::uint8_t>& bytes) {
        FILE* out = std::fopen(scratch.c_str(), "wb");
        ASSERT_NE(out, nullptr);
        if (!bytes.empty()) {
          ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
        }
        std::fclose(out);
        (void)load_checkpoint_file(scratch, 3);
      },
      /*seed=*/11, /*flip_trials=*/400, /*random_trials=*/100);
  std::remove(scratch.c_str());

  // The framed format is checksummed, so unlike the raw byte-level loaders
  // below, EVERY bit flip must be rejected, not merely survived.
  Rng rng(12);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> mutated = framed;
    const std::size_t pos = static_cast<std::size_t>(rng.next_u64() % mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
    FILE* out = std::fopen(scratch.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(mutated.data(), 1, mutated.size(), out), mutated.size());
    std::fclose(out);
    EXPECT_THROW((void)load_checkpoint_file(scratch, 3), CheckpointError)
        << "flipped bit at byte " << pos << " was accepted";
  }
  std::remove(scratch.c_str());
}

TEST(CheckpointFuzz, TopologyLoaderRejectsCorruptBytes) {
  const auto problem = tiny_problem();
  const Topology topology = dual_homed_topology(problem, Asil::B);
  ByteWriter writer;
  save_topology(topology, writer);

  fuzz_loader(
      writer.data(),
      [&](const std::vector<std::uint8_t>& bytes) {
        ByteReader in(bytes);
        (void)load_topology(problem, in);
        in.expect_exhausted("topology");
      },
      /*seed=*/21, /*flip_trials=*/2000, /*random_trials=*/500);
}

TEST(CheckpointFuzz, TopologyLoaderRangeChecksIdsAndLevels) {
  const auto problem = tiny_problem();

  // A switch id beyond the node range.
  {
    ByteWriter w;
    w.u32(1);
    w.i64(problem.num_nodes());
    w.u8(0);
    w.u32(0);
    ByteReader in(w.data());
    EXPECT_THROW((void)load_topology(problem, in), CheckpointError);
  }
  // A negative link endpoint.
  {
    ByteWriter w;
    w.u32(0);
    w.u32(1);
    w.i64(-1);
    w.i64(4);
    ByteReader in(w.data());
    EXPECT_THROW((void)load_topology(problem, in), CheckpointError);
  }
  // An ASIL level beyond the library.
  {
    ByteWriter w;
    w.u32(1);
    w.i64(4);
    w.u8(200);
    w.u32(0);
    ByteReader in(w.data());
    EXPECT_THROW((void)load_topology(problem, in), CheckpointError);
  }
  // A count larger than the remaining payload could ever satisfy (must be
  // rejected before any allocation or loop).
  {
    ByteWriter w;
    w.u32(0xffffffffu);
    ByteReader in(w.data());
    EXPECT_THROW((void)load_topology(problem, in), CheckpointError);
  }
}

TEST(CheckpointFuzz, TrainerStateLoaderRejectsCorruptBytes) {
  Rng rng(7);
  ActorCritic net(corridor_net_config(), rng);
  auto config = corridor_trainer_config();
  config.epochs = 1;
  config.steps_per_epoch = 32;
  Trainer trainer(net, [] { return std::make_unique<CorridorEnv>(); }, config);
  trainer.train();
  const std::vector<std::uint8_t> valid = trainer.save_state();

  fuzz_loader(
      valid,
      [&](const std::vector<std::uint8_t>& bytes) { trainer.load_state(bytes); },
      /*seed=*/31, /*flip_trials=*/600, /*random_trials=*/200);

  // The trainer must still be usable after every rejected load: a final
  // honest round trip proves no partial state was torn in.
  trainer.load_state(valid);
  EXPECT_EQ(trainer.save_state(), valid);
}

TEST(CheckpointFuzz, CertificateLoaderRejectsCorruptBytes) {
  const auto problem = tiny_problem();
  const auto built = build_certificate(dual_homed_topology(problem), HeuristicRecovery());
  ASSERT_TRUE(built.ok);
  ByteWriter writer;
  save_certificate(built.certificate, writer);

  fuzz_loader(
      writer.data(),
      [&](const std::vector<std::uint8_t>& bytes) {
        ByteReader in(bytes);
        (void)load_certificate(in);
        in.expect_exhausted("certificate");
      },
      /*seed=*/41, /*flip_trials=*/2000, /*random_trials=*/500);
}

}  // namespace
}  // namespace nptsn
