// Per-process scratch directories for tests that write files.
#pragma once

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace nptsn::testing {

// The path nptsn_<pid>_<name> under the test temp directory, for a scratch
// file or directory. The pid keeps two concurrent runs of one suite (two
// build trees, or a sanitizer build beside the normal one) from sharing it.
inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nptsn_" + std::to_string(::getpid()) + "_" + name;
}

// temp_path(name) as a directory, emptied of whatever an earlier run left
// there. The directory is created only when `create` is set, so tests of
// code that must create it still see it missing.
inline std::string fresh_temp_dir(const std::string& name, bool create = false) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  if (create) std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace nptsn::testing
