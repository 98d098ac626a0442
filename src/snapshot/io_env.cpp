#include "snapshot/io_env.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "snapshot/snapshot_io.hpp"

namespace dftmsn::snapshot {
namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path,
                       const std::string& detail) {
  throw SnapshotError("io: " + what + " " + path + ": " + detail);
}

[[noreturn]] void fail_errno(const std::string& what,
                             const std::string& path) {
  fail(what, path, std::strerror(errno));
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

[[noreturn]] void bad_token(const std::string& spec, const std::string& tok,
                            const std::string& why) {
  throw std::runtime_error("io fault schedule \"" + spec + "\": " + why +
                           " in \"" + tok + "\"");
}

std::uint64_t parse_count(const std::string& spec, const std::string& tok,
                          const std::string& field, const std::string& s) {
  if (s.empty() || s.front() == '-') bad_token(spec, tok, "bad " + field);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end == s.c_str() || *end != '\0')
    bad_token(spec, tok, "bad " + field + " \"" + s + "\"");
  return static_cast<std::uint64_t>(v);
}

}  // namespace

const char* io_op_name(IoOp op) {
  switch (op) {
    case IoOp::kOpen: return "open";
    case IoOp::kWrite: return "write";
    case IoOp::kFsync: return "fsync";
    case IoOp::kRename: return "rename";
    case IoOp::kFsyncDir: return "fsyncdir";
  }
  return "?";
}

std::vector<IoFault> parse_io_fault_schedule(const std::string& spec) {
  std::vector<IoFault> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t semi = spec.find(';', pos);
    const std::string tok = spec.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    pos = semi == std::string::npos ? spec.size() + 1 : semi + 1;
    if (tok.empty()) continue;

    IoFault f;
    const std::size_t at = tok.find('@');
    if (at == std::string::npos) bad_token(spec, tok, "missing '@'");
    const std::string kind = tok.substr(0, at);
    if (kind == "enospc") f.kind = IoFault::Kind::kEnospc;
    else if (kind == "eio") f.kind = IoFault::Kind::kEio;
    else if (kind == "short") f.kind = IoFault::Kind::kShortWrite;
    else if (kind == "crash") f.kind = IoFault::Kind::kCrash;
    else if (kind == "crash-after") f.kind = IoFault::Kind::kCrashAfter;
    else bad_token(spec, tok, "unknown fault kind \"" + kind + "\"");

    const std::size_t hash = tok.find('#', at);
    if (hash == std::string::npos) bad_token(spec, tok, "missing '#N'");
    const std::string op = tok.substr(at + 1, hash - at - 1);
    if (op == "open") f.op = IoOp::kOpen;
    else if (op == "write") f.op = IoOp::kWrite;
    else if (op == "fsync") f.op = IoOp::kFsync;
    else if (op == "rename") f.op = IoOp::kRename;
    else if (op == "fsyncdir") f.op = IoOp::kFsyncDir;
    else bad_token(spec, tok, "unknown op \"" + op + "\"");

    const std::size_t colon = tok.find(':', hash);
    const std::string n = tok.substr(
        hash + 1, colon == std::string::npos ? std::string::npos
                                             : colon - hash - 1);
    f.nth = parse_count(spec, tok, "occurrence", n);
    if (f.nth == 0) bad_token(spec, tok, "occurrence must be >= 1");

    std::size_t apos = colon == std::string::npos ? tok.size() : colon + 1;
    while (apos < tok.size()) {
      const std::size_t comma = tok.find(',', apos);
      const std::string arg = tok.substr(
          apos, comma == std::string::npos ? std::string::npos
                                           : comma - apos);
      apos = comma == std::string::npos ? tok.size() : comma + 1;
      if (arg.rfind("bytes=", 0) == 0) {
        f.bytes = parse_count(spec, tok, "bytes", arg.substr(6));
      } else if (arg.rfind("scope=", 0) == 0) {
        // Only the sweep parent writes files, so there is no other
        // process for a fault to fire in.
        bad_token(spec, tok,
                  "scope= is no longer accepted: workers write no files");
      } else {
        bad_token(spec, tok, "unknown argument \"" + arg + "\"");
      }
    }
    if (f.kind == IoFault::Kind::kShortWrite && f.op != IoOp::kWrite)
      bad_token(spec, tok, "short faults only apply to write");
    if (f.kind == IoFault::Kind::kShortWrite && f.bytes == 0)
      bad_token(spec, tok, "short faults need bytes=K");
    out.push_back(f);
  }
  return out;
}

IoEnv& IoEnv::instance() {
  static IoEnv env;
  return env;
}

void IoEnv::set_schedule(std::vector<IoFault> faults) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = std::move(faults);
  for (std::uint64_t& c : counts_) c = 0;
}

void IoEnv::set_schedule_spec(const std::string& spec) {
  set_schedule(parse_io_fault_schedule(spec));
}

void IoEnv::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
  for (std::uint64_t& c : counts_) c = 0;
  crash_exits_ = false;
}

std::uint64_t IoEnv::op_count(IoOp op) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<std::size_t>(op)];
}

bool IoEnv::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const IoFault& f : faults_)
    if (!f.fired) return true;
  return false;
}

void IoEnv::crash(const std::string& where) {
  if (crash_exits_) ::_exit(kInjectedCrashExit);  // no unwinding: power loss
  throw InjectedCrash(where);
}

IoEnv::Fired IoEnv::bump(IoOp op, bool after) {
  Fired fired;
  std::lock_guard<std::mutex> lock(mu_);
  // The "before" pass advances the counter; the "after" pass re-checks
  // the same occurrence for crash-after faults once the op succeeded.
  const std::uint64_t n = after
                              ? counts_[static_cast<std::size_t>(op)]
                              : ++counts_[static_cast<std::size_t>(op)];
  for (IoFault& f : faults_) {
    if (f.fired || f.op != op || f.nth != n) continue;
    const bool is_after = f.kind == IoFault::Kind::kCrashAfter;
    if (is_after != after) continue;
    f.fired = true;
    fired.hit = true;
    fired.kind = f.kind;
    fired.nth = f.nth;
    fired.bytes = f.bytes;
    break;
  }
  return fired;
}

void IoEnv::after_op(IoOp op, const std::string& path) {
  const Fired f = bump(op, /*after=*/true);
  if (f.hit)
    crash("after " + std::string(io_op_name(op)) + " #" +
          std::to_string(f.nth) + " (" + path + ")");
}

int IoEnv::open_rw(const std::string& path) {
  const Fired f = bump(IoOp::kOpen, false);
  if (f.hit) {
    if (f.kind == IoFault::Kind::kCrash)
      crash("before open (" + path + ")");
    fail("open", path,
         f.kind == IoFault::Kind::kEnospc ? "injected ENOSPC"
                                          : "injected EIO");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) fail_errno("open", path);
  after_op(IoOp::kOpen, path);
  return fd;
}

void IoEnv::pwrite_all(int fd, const std::string& path, const void* data,
                       std::size_t len, std::uint64_t offset) {
  const Fired f = bump(IoOp::kWrite, false);
  std::size_t want = len;
  if (f.hit) {
    switch (f.kind) {
      case IoFault::Kind::kEnospc:
        fail("write", path, "injected ENOSPC");
      case IoFault::Kind::kEio:
        fail("write", path, "injected EIO");
      case IoFault::Kind::kShortWrite:
      case IoFault::Kind::kCrash:
        // Tear the write: only the first `bytes` bytes reach the file.
        want = static_cast<std::size_t>(
            f.bytes < len ? f.bytes : static_cast<std::uint64_t>(len));
        break;
      case IoFault::Kind::kCrashAfter:
        break;  // unreachable: bump(after=false) never matches these
    }
  }

  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t done = 0;
  while (done < want) {
    const ssize_t n = ::pwrite(fd, p + done, want - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("write", path);
    }
    done += static_cast<std::size_t>(n);
  }

  if (f.hit && f.kind == IoFault::Kind::kCrash)
    crash("mid-write (" + path + ", " + std::to_string(want) +
          " of " + std::to_string(len) + " bytes reached the file)");
  if (f.hit && f.kind == IoFault::Kind::kShortWrite)
    fail("write", path, "injected short write (" + std::to_string(want) +
                            " of " + std::to_string(len) + " bytes)");
  after_op(IoOp::kWrite, path);
}

void IoEnv::fsync_file(int fd, const std::string& path) {
  const Fired f = bump(IoOp::kFsync, false);
  if (f.hit) {
    if (f.kind == IoFault::Kind::kCrash)
      crash("before fsync (" + path + ")");
    fail("fsync", path,
         f.kind == IoFault::Kind::kEnospc ? "injected ENOSPC"
                                          : "injected EIO");
  }
  if (::fsync(fd) != 0) fail_errno("fsync", path);
  after_op(IoOp::kFsync, path);
}

void IoEnv::ftruncate_file(int fd, const std::string& path,
                           std::uint64_t len) {
  if (::ftruncate(fd, static_cast<off_t>(len)) != 0)
    fail_errno("ftruncate", path);
}

void IoEnv::rename_file(const std::string& from, const std::string& to) {
  const Fired f = bump(IoOp::kRename, false);
  if (f.hit) {
    if (f.kind == IoFault::Kind::kCrash)
      crash("before rename (" + to + ")");
    fail("rename", to,
         f.kind == IoFault::Kind::kEnospc ? "injected ENOSPC"
                                          : "injected EIO");
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) fail_errno("rename", to);
  after_op(IoOp::kRename, to);
}

void IoEnv::fsync_parent_dir(const std::string& path) {
  const std::string dir = parent_dir(path);
  const Fired f = bump(IoOp::kFsyncDir, false);
  if (f.hit) {
    if (f.kind == IoFault::Kind::kCrash)
      crash("before fsyncdir (" + dir + ")");
    fail("fsync dir", dir,
         f.kind == IoFault::Kind::kEnospc ? "injected ENOSPC"
                                          : "injected EIO");
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) fail_errno("open dir", dir);
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("fsync dir", dir);
  }
  ::close(fd);
  after_op(IoOp::kFsyncDir, dir);
}

void IoEnv::write_file_atomic_durable(const std::string& path,
                                      const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = -1;
  try {
    {
      const Fired f = bump(IoOp::kOpen, false);
      if (f.hit) {
        if (f.kind == IoFault::Kind::kCrash)
          crash("before open (" + tmp + ")");
        fail("open", tmp,
             f.kind == IoFault::Kind::kEnospc ? "injected ENOSPC"
                                              : "injected EIO");
      }
    }
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) fail_errno("open", tmp);
    after_op(IoOp::kOpen, tmp);
    pwrite_all(fd, tmp, bytes.data(), bytes.size(), 0);
    fsync_file(fd, tmp);
    ::close(fd);
    fd = -1;
  } catch (const InjectedCrash&) {
    // A crash leaves the torn tmp behind — exactly what a power loss
    // would. (Close the fd so throw-mode tests don't leak descriptors.)
    if (fd >= 0) ::close(fd);
    throw;
  } catch (...) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());  // error path: never leave .tmp litter behind
    throw;
  }
  try {
    rename_file(tmp, path);
  } catch (const InjectedCrash&) {
    throw;
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
  // After the rename the data is safe under the final name; a directory
  // fsync failure is reported but must not unlink the now-valid target.
  fsync_parent_dir(path);
}

}  // namespace dftmsn::snapshot
