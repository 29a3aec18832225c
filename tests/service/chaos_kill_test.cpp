// Out-of-process chaos-kill harness (DESIGN.md §14): run the REAL
// nptsn_serve daemon, SIGKILL it at randomized journal/execution crash
// points (and once from the outside, mid-burst), restart it over the same
// journal, and audit the durability contract — zero lost acknowledged
// requests, zero double-answers, every request terminal after the re-run.
// A SIGTERM-interrupted --state-dir run is held to the same contract.
//
// The daemon binary path is compiled in as NPTSN_SERVE_BIN. Iteration count
// defaults low for local ctest; CI raises it via NPTSN_CHAOS_ITERS.
#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "service/crash_point.hpp"
#include "service/journal.hpp"
#include "testing/temp_dir.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

using nptsn::testing::fresh_temp_dir;

struct RunResult {
  bool exited = false;   // normal exit (vs killed by a signal)
  int exit_code = -1;    // valid when exited
  int term_signal = 0;   // valid when !exited
  std::string output;    // combined stdout+stderr
};

// True once the capture file holds the daemon's startup banner
// ("nptsn_serve: ... request(s)"), printed after its signal handlers are in
// place and right before the service starts.
bool banner_printed(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("nptsn_serve: ", 0) == 0 && line.find("request(s)") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// fork/exec the serve daemon, optionally with NPTSN_CRASH_POINT and/or
// NPTSN_IO_FAULT planted, and optionally signalling it from outside after
// `signal_after_ms` (SIGKILL for the chaos kills). With `signal_after_banner`
// the signal goes out as soon as the startup banner appears (bounded at
// 10 s); with `signal_at_fork` it goes out straight after the fork, racing
// the child's exec and startup. The daemon is exec'd the way its usage text
// asks supervisors to: with SIGTERM, SIGINT and SIGUSR1 blocked, which it
// unblocks once its handlers are in place, so a signal can never catch it
// with the default dispositions.
RunResult run_serve(const std::vector<std::string>& args, const std::string& crash_point,
                    int signal_after_ms = 0, int signal_to_send = SIGKILL,
                    const std::string& io_fault = "", bool signal_after_banner = false,
                    bool signal_at_fork = false) {
  // The pid keeps the capture files of test processes that ctest runs in
  // parallel apart; the counter keeps one process's runs apart.
  static int run_counter = 0;
  const std::string out_path = ::testing::TempDir() + "nptsn_chaos_out_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(run_counter++) + ".log";

  sigset_t handled;
  sigset_t parent_mask;
  sigemptyset(&handled);
  sigaddset(&handled, SIGTERM);
  sigaddset(&handled, SIGINT);
  sigaddset(&handled, SIGUSR1);
  ::pthread_sigmask(SIG_BLOCK, &handled, &parent_mask);
  const pid_t pid = ::fork();
  if (pid != 0) ::pthread_sigmask(SIG_SETMASK, &parent_mask, nullptr);
  if (pid == 0) {
    const int fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    if (crash_point.empty()) {
      ::unsetenv("NPTSN_CRASH_POINT");
    } else {
      ::setenv("NPTSN_CRASH_POINT", crash_point.c_str(), 1);
    }
    if (io_fault.empty()) {
      ::unsetenv("NPTSN_IO_FAULT");
    } else {
      ::setenv("NPTSN_IO_FAULT", io_fault.c_str(), 1);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(NPTSN_SERVE_BIN));
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(NPTSN_SERVE_BIN, argv.data());
    ::_exit(127);
  }

  if (signal_at_fork) {
    ::kill(pid, signal_to_send);
  } else if (signal_after_banner) {
    for (int waited_ms = 0; waited_ms < 10000 && !banner_printed(out_path); waited_ms += 5) {
      ::usleep(5000);
    }
    ::kill(pid, signal_to_send);
  } else if (signal_after_ms > 0) {
    ::usleep(static_cast<useconds_t>(signal_after_ms) * 1000);
    ::kill(pid, signal_to_send);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);

  RunResult result;
  if (WIFEXITED(status)) {
    result.exited = true;
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.term_signal = WTERMSIG(status);
  }
  std::ifstream in(out_path);
  result.output.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  std::remove(out_path.c_str());
  return result;
}

std::vector<std::string> serve_args(const std::string& journal_dir) {
  // Tiny budgets: the contract under test is durability, not plan quality.
  return {"--journal", journal_dir, "--epochs", "1",       "--steps",    "16",
          "--seed",    "7",         "gen:11:4:2", "gen:12:4:2"};
}

int occurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

// Audits the journal after the recovery run: every request terminal (has a
// persisted answer), none live, and each answered exactly once in `output`.
void audit_journal(const std::string& dir, std::size_t expect_requests,
                   const std::string& output) {
  RequestJournal journal({dir});
  auto recovered = journal.take_recovered();
  ASSERT_EQ(recovered.size(), expect_requests) << "requests lost or duplicated";
  for (const auto& item : recovered) {
    EXPECT_TRUE(item.replay.has_value())
        << item.request.id << " is still live after a completed recovery run";
    // One result line per id: recovered-or-fresh, never both (no double
    // answer, no re-execution of an already-answered request).
    EXPECT_EQ(occurrences(output, "] " + item.request.id + ":"), 1) << output;
  }
}

TEST(ChaosKill, RandomizedCrashPointsLoseNoAcknowledgedRequest) {
  int iterations = 6;
  if (const char* env = std::getenv("NPTSN_CHAOS_ITERS")) {
    iterations = std::atoi(env);
    ASSERT_GT(iterations, 0);
  }
  const auto& points = known_crash_points();
  Rng rng(0xC4A05);
  int kills = 0;

  for (int iter = 0; iter < iterations; ++iter) {
    const std::string dir = fresh_temp_dir("chaos_points_" + std::to_string(iter), /*create=*/true);
    const std::string point =
        points[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(points.size()) - 1))];
    const int at_hit = rng.uniform_int(1, 3);
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + point + "@" +
                 std::to_string(at_hit));

    const RunResult crashed =
        run_serve(serve_args(dir), point + "@" + std::to_string(at_hit));
    if (!crashed.exited) {
      // The planted point fired: the daemon died by SIGKILL mid-flight.
      EXPECT_EQ(crashed.term_signal, SIGKILL) << crashed.output;
      ++kills;
    } else {
      // The point never fired this run (e.g. compaction points below the
      // threshold): the run must then have completed normally.
      EXPECT_TRUE(crashed.exit_code == 0 || crashed.exit_code == 1) << crashed.output;
    }

    // "Restart with the same command line" — the documented recovery story.
    const RunResult recovered = run_serve(serve_args(dir), "");
    ASSERT_TRUE(recovered.exited) << "recovery run died";
    EXPECT_TRUE(recovered.exit_code == 0 || recovered.exit_code == 1)
        << "exit " << recovered.exit_code << "\n"
        << recovered.output;
    audit_journal(dir, 2, recovered.output);
    std::filesystem::remove_all(dir);
  }
  // The deterministic point sequence must actually exercise the kill path.
  EXPECT_GE(kills, 1);
}

TEST(ChaosKill, ExternalSigkillMidBurstRecoversEveryRequest) {
  const std::string dir = fresh_temp_dir("chaos_midburst", /*create=*/true);
  // A burst big enough that an external kill lands mid-run.
  const std::vector<std::string> args = {"--journal", dir,          "--epochs",
                                         "4",         "--steps",    "64",
                                         "--seed",    "7",          "gen:11:4:2",
                                         "gen:12:4:2", "gen:13:4:2", "gen:14:4:2"};

  const RunResult killed = run_serve(args, "", /*signal_after_ms=*/300);
  if (!killed.exited) {
    EXPECT_EQ(killed.term_signal, SIGKILL);
  }
  // (If the machine was fast enough to finish in 300ms, the re-run below
  // still must replay everything — the audit holds either way.)

  const RunResult recovered = run_serve(args, "");
  ASSERT_TRUE(recovered.exited) << "recovery run died";
  EXPECT_TRUE(recovered.exit_code == 0 || recovered.exit_code == 1)
      << "exit " << recovered.exit_code << "\n"
      << recovered.output;
  audit_journal(dir, 4, recovered.output);
  std::filesystem::remove_all(dir);
}

// Environmental-fault composition (DESIGN.md §15): the REAL daemon runs with
// an I/O fault schedule armed from NPTSN_IO_FAULT — the same grammar the CI
// fault-soak job uses. The contract: the process NEVER dies of storage
// trouble (it degrades, sheds, or retries), and a heal run over the same
// journal converges to every request answered exactly once.
TEST(ChaosKill, EnvironmentalFaultsNeverKillTheDaemon) {
  const std::vector<std::string> faults = {
      "journal.append.fsync:EIO@1x2",       // transient hiccup: retried through
      "journal.append.write:EINTR@1x32",    // signal storm: absorbed
      "journal.append.write:SHORT@1x8",     // partial writes: looped over
      "journal.append.fsync:ENOSPC@2x-1",   // disk fills mid-burst: degrade
      "journal.*:ENOSPC@3x-1",              // disk fills anywhere: degrade
  };
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::string dir = fresh_temp_dir("chaos_iofault_" + std::to_string(i), /*create=*/true);
    SCOPED_TRACE(faults[i]);

    const RunResult faulted = run_serve(serve_args(dir), "", 0, SIGKILL, faults[i]);
    // The whole point: a sick disk is an operational state, not a crash.
    ASSERT_TRUE(faulted.exited) << "daemon died of signal " << faulted.term_signal
                                << " under " << faults[i] << "\n"
                                << faulted.output;
    EXPECT_TRUE(faulted.exit_code == 0 || faulted.exit_code == 1)
        << "exit " << faulted.exit_code << "\n"
        << faulted.output;
    EXPECT_NE(faulted.output.find("fault(s) armed from NPTSN_IO_FAULT"),
              std::string::npos)
        << faulted.output;

    // Heal and restart with the same command line: shed requests run fresh,
    // surviving ones replay — either way, two answers, each exactly once.
    const RunResult healed = run_serve(serve_args(dir), "");
    ASSERT_TRUE(healed.exited) << "heal run died";
    EXPECT_TRUE(healed.exit_code == 0 || healed.exit_code == 1)
        << "exit " << healed.exit_code << "\n"
        << healed.output;
    audit_journal(dir, 2, healed.output);
    std::filesystem::remove_all(dir);
  }
}

// Satellite: SIGUSR1 makes the running daemon dump its operational stats —
// shard health, fault counters, journal segments — without disturbing the
// burst in flight.
TEST(ChaosKill, SigUsr1DumpsStatsWithoutDisruption) {
  const std::string dir = fresh_temp_dir("chaos_sigusr1", /*create=*/true);
  const std::vector<std::string> args = {"--journal", dir,          "--epochs",
                                         "4",         "--steps",    "64",
                                         "--seed",    "7",          "gen:11:4:2",
                                         "gen:12:4:2", "gen:13:4:2", "gen:14:4:2"};

  const RunResult result = run_serve(args, "", /*signal_after_ms=*/0, SIGUSR1,
                                     /*io_fault=*/"", /*signal_after_banner=*/true);
  ASSERT_TRUE(result.exited) << "daemon died of signal " << result.term_signal;
  EXPECT_TRUE(result.exit_code == 0 || result.exit_code == 1)
      << "exit " << result.exit_code << "\n"
      << result.output;
  EXPECT_NE(result.output.find("=== nptsn_serve stats ==="), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("=== end stats ==="), std::string::npos);
  EXPECT_NE(result.output.find("journal:"), std::string::npos);
  // The burst itself was not disturbed: all four requests answered once.
  audit_journal(dir, 4, result.output);
  std::filesystem::remove_all(dir);
}

// A stats request sent the instant the daemon is spawned, with no banner
// wait: it arrives before exec or before main, finds the signal blocked by
// the launcher, stays pending until the daemon's handlers are installed, and
// then dumps the stats like any other.
TEST(ChaosKill, SigUsr1AtSpawnIsDeliveredAfterStartup) {
  const std::string dir = fresh_temp_dir("chaos_sigusr1_at_spawn", /*create=*/true);
  const std::vector<std::string> args = {"--journal", dir,          "--epochs",
                                         "4",         "--steps",    "64",
                                         "--seed",    "7",          "gen:11:4:2",
                                         "gen:12:4:2", "gen:13:4:2", "gen:14:4:2"};

  const RunResult result =
      run_serve(args, "", /*signal_after_ms=*/0, SIGUSR1, /*io_fault=*/"",
                /*signal_after_banner=*/false, /*signal_at_fork=*/true);
  ASSERT_TRUE(result.exited) << "daemon died of signal " << result.term_signal;
  EXPECT_TRUE(result.exit_code == 0 || result.exit_code == 1)
      << "exit " << result.exit_code << "\n"
      << result.output;
  EXPECT_NE(result.output.find("=== nptsn_serve stats ==="), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("=== end stats ==="), std::string::npos);
  audit_journal(dir, 4, result.output);
  std::filesystem::remove_all(dir);
}

// SIGTERM under --state-dir alone: the daemon journals under DIR/journal,
// so the interrupted run keeps every unanswered request, and re-running the
// same command answers each one exactly once — recovered, never resubmitted.
TEST(ChaosKill, SigtermWithStateDirResumesFromTheJournal) {
  const std::string dir = fresh_temp_dir("chaos_sigterm", /*create=*/true);
  const std::vector<std::string> args = {"--state-dir", dir,          "--epochs", "2",
                                         "--steps",     "64",         "--seed",   "7",
                                         "--repeat",    "3",          "gen:11:4:2",
                                         "gen:12:4:2"};

  const RunResult interrupted = run_serve(args, "", /*signal_after_ms=*/0, SIGTERM,
                                          /*io_fault=*/"", /*signal_after_banner=*/true);
  ASSERT_TRUE(interrupted.exited) << "daemon died of signal " << interrupted.term_signal;
  EXPECT_EQ(interrupted.exit_code, 5) << interrupted.output;
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/journal")) << interrupted.output;

  const RunResult resumed = run_serve(args, "");
  ASSERT_TRUE(resumed.exited) << "resume run died";
  EXPECT_TRUE(resumed.exit_code == 0 || resumed.exit_code == 1)
      << "exit " << resumed.exit_code << "\n"
      << resumed.output;
  EXPECT_EQ(occurrences(resumed.output, "recovered from journal: "), 6) << resumed.output;
  audit_journal(dir + "/journal", 6, resumed.output);
  std::filesystem::remove_all(dir);
}

// Numeric flags and @P priorities are parsed in full and range-checked
// before anything runs: bad input is a usage error (exit 2) naming the
// culprit, not a 0 that faults every session or an exit coded as I/O.
TEST(ChaosKill, MalformedNumbersAreUsageErrors) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--epochs", "abc", "ads"}, "--epochs"},
      {{"--epochs", "12x", "ads"}, "--epochs"},
      {{"--queue-capacity", "0", "ads"}, "--queue-capacity"},
      {{"--session-wall", "-1", "ads"}, "--session-wall"},
      {{"--admission-timeout", "nan", "ads"}, "--admission-timeout"},
      {{"--seed", "-1", "ads"}, "--seed"},
      {{"--repeat", "99999999999", "ads"}, "--repeat"},
      {{"ads@x"}, "ads@x"},
      {{"ads@"}, "ads@"},
  };
  for (const auto& [args, culprit] : cases) {
    SCOPED_TRACE(culprit);
    const RunResult result = run_serve(args, "");
    ASSERT_TRUE(result.exited) << "daemon died of signal " << result.term_signal;
    EXPECT_EQ(result.exit_code, 2) << result.output;
    EXPECT_NE(result.output.find(culprit), std::string::npos) << result.output;
  }
}

}  // namespace
}  // namespace nptsn
