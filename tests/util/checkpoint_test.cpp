#include "util/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "testing/fault_injector.hpp"
#include "testing/temp_dir.hpp"

namespace nptsn {
namespace {

using nptsn::testing::FaultTrigger;
using nptsn::testing::InjectedFault;
using nptsn::testing::ScopedCheckpointWriteFault;
using nptsn::testing::corrupt_file_byte;
using nptsn::testing::truncate_file;

std::string temp_path(const std::string& name) {
  return nptsn::testing::temp_path("ckpt_" + name);
}

void remove_all(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(ByteIo, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  w.str("hello checkpoint");
  w.str("");

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.str(), "hello checkpoint");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteIo, NanRoundTripsBitExactly) {
  ByteWriter w;
  w.f64(std::numeric_limits<double>::quiet_NaN());
  ByteReader r(w.data());
  EXPECT_TRUE(std::isnan(r.f64()));
}

TEST(ByteIo, BlobRoundTripAndNesting) {
  ByteWriter inner;
  inner.u64(7);
  inner.str("nested");

  ByteWriter outer;
  outer.u8(1);
  outer.blob(inner.data());
  outer.u8(2);

  ByteReader r(outer.data());
  EXPECT_EQ(r.u8(), 1);
  const auto bytes = r.blob();
  EXPECT_EQ(r.u8(), 2);
  ByteReader nested(bytes);
  EXPECT_EQ(nested.u64(), 7u);
  EXPECT_EQ(nested.str(), "nested");
  nested.expect_exhausted("nested blob");
}

TEST(ByteIo, UnderflowThrows) {
  ByteWriter w;
  w.u32(1);
  ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_THROW(r.u8(), CheckpointError);
}

TEST(ByteIo, TruncatedStringThrows) {
  ByteWriter w;
  w.u64(100);  // claims 100 bytes follow
  w.raw("abc", 3);
  ByteReader r(w.data());
  EXPECT_THROW(r.str(), CheckpointError);
}

TEST(ByteIo, ExpectExhaustedFlagsTrailingBytes) {
  ByteWriter w;
  w.u64(1);
  w.u8(9);
  ByteReader r(w.data());
  r.u64();
  EXPECT_THROW(r.expect_exhausted("test section"), CheckpointError);
}

TEST(Checksum, Fnv1a64MatchesReferenceVectors) {
  // Offset basis for the empty input, and the well-known value for "a".
  EXPECT_EQ(fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
  const std::uint8_t a = 'a';
  EXPECT_EQ(fnv1a64(&a, 1), 0xaf63dc4c8601ec8cull);
}

TEST(CheckpointFile, SaveLoadRoundTrip) {
  const std::string path = temp_path("roundtrip");
  remove_all(path);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251, 252};
  save_checkpoint_file(path, 42, payload);
  EXPECT_EQ(load_checkpoint_file(path, 42), payload);
  remove_all(path);
}

TEST(CheckpointFile, EmptyPayloadRoundTrips) {
  const std::string path = temp_path("empty");
  remove_all(path);
  save_checkpoint_file(path, 1, {});
  EXPECT_TRUE(load_checkpoint_file(path, 1).empty());
  remove_all(path);
}

TEST(CheckpointFile, MissingFileThrows) {
  EXPECT_THROW(load_checkpoint_file(temp_path("does_not_exist"), 1), CheckpointError);
}

TEST(CheckpointFile, VersionMismatchIsRefused) {
  const std::string path = temp_path("version");
  remove_all(path);
  save_checkpoint_file(path, 1, {1, 2, 3});
  EXPECT_THROW(load_checkpoint_file(path, 2), CheckpointError);
  remove_all(path);
}

TEST(CheckpointFile, CorruptPayloadIsRefusedByChecksum) {
  const std::string path = temp_path("corrupt");
  remove_all(path);
  save_checkpoint_file(path, 1, {10, 20, 30, 40});
  corrupt_file_byte(path, 34);  // inside the payload (header is 32 bytes)
  EXPECT_THROW(load_checkpoint_file(path, 1), CheckpointError);
  remove_all(path);
}

TEST(CheckpointFile, TruncatedFileIsRefused) {
  const std::string path = temp_path("truncated");
  remove_all(path);
  save_checkpoint_file(path, 1, std::vector<std::uint8_t>(64, 7));
  truncate_file(path, 48);  // torn write: payload cut short
  EXPECT_THROW(load_checkpoint_file(path, 1), CheckpointError);
  truncate_file(path, 10);  // even the header is incomplete
  EXPECT_THROW(load_checkpoint_file(path, 1), CheckpointError);
  remove_all(path);
}

TEST(CheckpointFile, SaveRotatesPreviousGeneration) {
  const std::string path = temp_path("rotate");
  remove_all(path);
  save_checkpoint_file(path, 1, {1});
  save_checkpoint_file(path, 1, {2});
  EXPECT_EQ(load_checkpoint_file(path, 1), (std::vector<std::uint8_t>{2}));
  EXPECT_EQ(load_checkpoint_file(path + ".1", 1), (std::vector<std::uint8_t>{1}));
  remove_all(path);
}

TEST(CheckpointFile, FallbackLoadsPreviousWhenNewestIsTorn) {
  const std::string path = temp_path("fallback");
  remove_all(path);
  save_checkpoint_file(path, 1, {1});
  save_checkpoint_file(path, 1, {2});
  corrupt_file_byte(path, 32);  // the single payload byte

  std::string error;
  const auto loaded = load_checkpoint_with_fallback(path, 1, &error);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(loaded->source_path, path + ".1");
  remove_all(path);
}

TEST(CheckpointFile, FallbackReportsWhenNothingValidates) {
  const std::string path = temp_path("nothing");
  remove_all(path);
  std::string error;
  EXPECT_FALSE(load_checkpoint_with_fallback(path, 1, &error).has_value());
  EXPECT_FALSE(error.empty());

  save_checkpoint_file(path, 1, {1});
  save_checkpoint_file(path, 1, {2});
  corrupt_file_byte(path, 32);
  corrupt_file_byte(path + ".1", 32);
  error.clear();
  EXPECT_FALSE(load_checkpoint_with_fallback(path, 1, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos);
  remove_all(path);
}

TEST(CheckpointFile, CrashAfterTmpWriteLeavesLiveCheckpointIntact) {
  const std::string path = temp_path("crash_tmp");
  remove_all(path);
  save_checkpoint_file(path, 1, {1});
  {
    auto trigger = std::make_shared<FaultTrigger>(1);
    ScopedCheckpointWriteFault fault(CheckpointWriteStage::kAfterTmpWrite, trigger);
    EXPECT_THROW(save_checkpoint_file(path, 1, {2}), InjectedFault);
  }
  // The "crash" hit before any rename: the live file is still generation 1.
  EXPECT_EQ(load_checkpoint_file(path, 1), (std::vector<std::uint8_t>{1}));
  // And the writer recovers on the next attempt.
  save_checkpoint_file(path, 1, {3});
  EXPECT_EQ(load_checkpoint_file(path, 1), (std::vector<std::uint8_t>{3}));
  remove_all(path);
}

TEST(CheckpointFile, CrashAfterTmpWriteLeavesCompleteSyncedTmpFile) {
  const std::string path = temp_path("crash_tmp_complete");
  remove_all(path);
  save_checkpoint_file(path, 1, {1});
  {
    auto trigger = std::make_shared<FaultTrigger>(1);
    ScopedCheckpointWriteFault fault(CheckpointWriteStage::kAfterTmpWrite, trigger);
    EXPECT_THROW(save_checkpoint_file(path, 1, {2, 3, 4}), InjectedFault);
  }
  // The crash hit after the tmp write + file fsync + parent-directory fsync:
  // whatever survives at <path>.tmp must be the COMPLETE new generation, not
  // a torn prefix — write-then-publish means the tmp is all-or-nothing.
  EXPECT_EQ(load_checkpoint_file(path + ".tmp", 1),
            (std::vector<std::uint8_t>{2, 3, 4}));
  // And the live checkpoint is still the old generation, untouched.
  EXPECT_EQ(load_checkpoint_file(path, 1), (std::vector<std::uint8_t>{1}));
  remove_all(path);
}

TEST(CheckpointFile, CrashAfterRotateStillResumesViaFallback) {
  const std::string path = temp_path("crash_rotate");
  remove_all(path);
  save_checkpoint_file(path, 1, {1});
  {
    auto trigger = std::make_shared<FaultTrigger>(1);
    ScopedCheckpointWriteFault fault(CheckpointWriteStage::kAfterRotate, trigger);
    EXPECT_THROW(save_checkpoint_file(path, 1, {2}), InjectedFault);
  }
  // Worst case: the old file was already rotated away, the new one never
  // became live. The fallback path still finds generation 1 under .1.
  std::string error;
  const auto loaded = load_checkpoint_with_fallback(path, 1, &error);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, (std::vector<std::uint8_t>{1}));
  remove_all(path);
}

}  // namespace
}  // namespace nptsn
