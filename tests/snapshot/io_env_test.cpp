// The injectable I/O environment: schedule-grammar parsing, deterministic
// fault firing (error / short-write / crash-before / crash-after), and
// the atomic+durable write protocol's failure semantics — an injected
// crash leaves the .tmp staging file behind (a real power loss would),
// while an ordinary I/O error cleans it up.
#include "snapshot/io_env.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "snapshot/snapshot_io.hpp"

namespace dftmsn::snapshot {
namespace {

namespace fs = std::filesystem;

/// Every test arms the process-global IoEnv; this guard restores the
/// quiet default (no schedule, throw-mode crashes) no
/// matter how the test exits, so suites in the same binary can't leak
/// faults into each other.
struct EnvGuard {
  EnvGuard() { IoEnv::instance().reset(); }
  ~EnvGuard() {
    IoEnv::instance().reset();
    IoEnv::instance().set_crash_exits(false);
  }
};

struct TempDir {
  explicit TempDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(IoFaultSchedule, ParsesEveryKindOpAndArg) {
  const auto faults = parse_io_fault_schedule(
      "enospc@open#1;eio@fsync#3;short@write#2:bytes=7;"
      "crash@rename#1;crash-after@fsyncdir#4");
  ASSERT_EQ(faults.size(), 5u);
  EXPECT_EQ(faults[0].kind, IoFault::Kind::kEnospc);
  EXPECT_EQ(faults[0].op, IoOp::kOpen);
  EXPECT_EQ(faults[0].nth, 1u);
  EXPECT_EQ(faults[1].kind, IoFault::Kind::kEio);
  EXPECT_EQ(faults[1].op, IoOp::kFsync);
  EXPECT_EQ(faults[1].nth, 3u);
  EXPECT_EQ(faults[2].kind, IoFault::Kind::kShortWrite);
  EXPECT_EQ(faults[2].bytes, 7u);
  EXPECT_EQ(faults[3].kind, IoFault::Kind::kCrash);
  EXPECT_EQ(faults[3].op, IoOp::kRename);
  EXPECT_EQ(faults[4].kind, IoFault::Kind::kCrashAfter);
  EXPECT_EQ(faults[4].op, IoOp::kFsyncDir);
}

TEST(IoFaultSchedule, EmptySpecIsEmptySchedule) {
  EXPECT_TRUE(parse_io_fault_schedule("").empty());
}

TEST(IoFaultSchedule, RejectionsNameTheOffendingToken) {
  // Each malformed spec must throw, and the message must carry the part
  // the user got wrong (so a typo in $DFTMSN_IO_FAULTS is debuggable).
  const struct {
    const char* spec;
    const char* needle;
  } cases[] = {
      {"boom@write#1", "boom"},          // unknown kind
      {"eio@teleport#1", "teleport"},    // unknown op
      {"eio@write", "eio@write"},        // missing #N
      {"eio@write#0", "#0"},             // occurrence is 1-based
      {"eio@write#x", "x"},              // non-numeric count
      {"eio@write#1:bytes=", "bytes="},  // empty arg value
      {"eio@write#1:frac=3", "frac"},    // unknown arg
      {"eio@write#1:scope=me", "scope="},  // removed argument
      {"short@write#1:bytes=99999999999999999999", "9999"},  // overflow
  };
  for (const auto& c : cases) {
    try {
      parse_io_fault_schedule(c.spec);
      FAIL() << "accepted malformed spec: " << c.spec;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << "spec " << c.spec << " error lacks '" << c.needle
          << "': " << e.what();
    }
  }
}

TEST(IoEnv, ErrorFaultFiresOnTheNthOccurrenceOnly) {
  EnvGuard guard;
  TempDir dir("io_env_nth.tmp");
  IoEnv& io = IoEnv::instance();
  io.set_schedule_spec("enospc@write#3");

  // Occurrences 1 and 2 succeed, 3 fails with ENOSPC in the message and
  // the path named, 4 succeeds again (each fault fires at most once).
  const auto payload = bytes_of("hello");
  io.write_file_atomic_durable(dir.path + "/a", payload);
  io.write_file_atomic_durable(dir.path + "/b", payload);
  try {
    io.write_file_atomic_durable(dir.path + "/c", payload);
    FAIL() << "third write did not fail";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("ENOSPC"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(dir.path + "/c"), std::string::npos);
  }
  io.write_file_atomic_durable(dir.path + "/d", payload);
  EXPECT_TRUE(fs::exists(dir.path + "/a"));
  EXPECT_FALSE(fs::exists(dir.path + "/c"));
  EXPECT_TRUE(fs::exists(dir.path + "/d"));
}

TEST(IoEnv, FailedAtomicWriteUnlinksItsStagingFile) {
  EnvGuard guard;
  TempDir dir("io_env_unlink.tmp");
  IoEnv& io = IoEnv::instance();
  io.set_schedule_spec("eio@fsync#1");
  EXPECT_THROW(
      io.write_file_atomic_durable(dir.path + "/f", bytes_of("data")),
      SnapshotError);
  // An ordinary error is handled by live code: no target, no leftovers.
  EXPECT_FALSE(fs::exists(dir.path + "/f"));
  EXPECT_FALSE(fs::exists(dir.path + "/f.tmp"));
}

TEST(IoEnv, InjectedCrashLeavesTheStagingFileBehind) {
  EnvGuard guard;
  TempDir dir("io_env_crash.tmp");
  IoEnv& io = IoEnv::instance();
  io.set_schedule_spec("crash@rename#1");
  EXPECT_THROW(
      io.write_file_atomic_durable(dir.path + "/f", bytes_of("data")),
      InjectedCrash);
  // A crash is a power loss: nothing runs after it, so the .tmp survives
  // (that is exactly the leftover --fsck must clean up) and the target
  // was never renamed into place.
  EXPECT_FALSE(fs::exists(dir.path + "/f"));
  EXPECT_TRUE(fs::exists(dir.path + "/f.tmp"));
}

TEST(IoEnv, ShortWriteTearsTheExactPrefix) {
  EnvGuard guard;
  TempDir dir("io_env_short.tmp");
  IoEnv& io = IoEnv::instance();
  io.set_schedule_spec("short@write#1:bytes=3");
  EXPECT_THROW(
      io.write_file_atomic_durable(dir.path + "/f", bytes_of("abcdef")),
      SnapshotError);
  // Short writes model a full disk mid-buffer: only the prefix reaches
  // the staging file... and an ordinary failure cleans the staging file
  // up, so what's observable is that the target never appeared.
  EXPECT_FALSE(fs::exists(dir.path + "/f"));
}

TEST(IoEnv, TornCrashWritesPrefixThenStops) {
  EnvGuard guard;
  TempDir dir("io_env_torn.tmp");
  IoEnv& io = IoEnv::instance();
  io.set_schedule_spec("crash@write#1:bytes=3");
  EXPECT_THROW(
      io.write_file_atomic_durable(dir.path + "/f", bytes_of("abcdef")),
      InjectedCrash);
  // crash+bytes= is the torn-write power loss: the staging file holds
  // exactly the prefix that "reached disk".
  ASSERT_TRUE(fs::exists(dir.path + "/f.tmp"));
  EXPECT_EQ(fs::file_size(dir.path + "/f.tmp"), 3u);
  EXPECT_FALSE(fs::exists(dir.path + "/f"));
}

TEST(IoEnv, CrashAfterFiresOnceTheOpSucceeded) {
  EnvGuard guard;
  TempDir dir("io_env_after.tmp");
  IoEnv& io = IoEnv::instance();
  io.set_schedule_spec("crash-after@rename#1");
  EXPECT_THROW(
      io.write_file_atomic_durable(dir.path + "/f", bytes_of("data")),
      InjectedCrash);
  // The rename completed before the crash: the target exists with the
  // full contents, the staging name is gone — but the parent-dir fsync
  // never ran, which is the window crash-after exists to probe.
  EXPECT_TRUE(fs::exists(dir.path + "/f"));
  EXPECT_FALSE(fs::exists(dir.path + "/f.tmp"));
}

TEST(IoFaultSchedule, RefusesTheRemovedScopeArgument) {
  // Schedules once picked the parent or a worker process with scope=;
  // only the parent writes files now, and an old schedule must fail
  // loudly rather than fire somewhere unexpected.
  for (const char* spec : {"eio@write#1:scope=worker",
                           "crash@rename#1:bytes=3,scope=parent"}) {
    try {
      parse_io_fault_schedule(spec);
      ADD_FAILURE() << "accepted removed argument: " << spec;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("scope="), std::string::npos)
          << e.what();
    }
  }
}

TEST(IoEnv, OpCountersTrackTheProtocol) {
  EnvGuard guard;
  TempDir dir("io_env_count.tmp");
  IoEnv& io = IoEnv::instance();
  io.reset();
  EXPECT_FALSE(io.armed());
  io.write_file_atomic_durable(dir.path + "/f", bytes_of("data"));
  // One atomic write = open + write + fsync + rename + fsyncdir, exactly
  // once each — the invariant every crash-point count in the matrix test
  // keys off.
  EXPECT_EQ(io.op_count(IoOp::kOpen), 1u);
  EXPECT_EQ(io.op_count(IoOp::kWrite), 1u);
  EXPECT_EQ(io.op_count(IoOp::kFsync), 1u);
  EXPECT_EQ(io.op_count(IoOp::kRename), 1u);
  EXPECT_EQ(io.op_count(IoOp::kFsyncDir), 1u);
}

TEST(IoEnv, AtomicWriteRoutesThroughSnapshotIo) {
  EnvGuard guard;
  TempDir dir("io_env_route.tmp");
  // The whole point of the environment: the pre-existing persistence
  // entry point is fault-injectable without its callers changing.
  IoEnv::instance().set_schedule_spec("eio@rename#1");
  EXPECT_THROW(write_file_atomic(dir.path + "/f", bytes_of("data")),
               SnapshotError);
  EXPECT_FALSE(fs::exists(dir.path + "/f"));
}

}  // namespace
}  // namespace dftmsn::snapshot
