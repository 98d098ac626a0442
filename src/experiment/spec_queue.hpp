// The sweep's one scheduler: a lease queue over every spec, and the only
// place that decides retries, backoff, quarantine, transport requeues,
// idempotent completion, lease expiry, watchdog trips and stops.
//
// It does no socket or process I/O and never blocks: the supervisor's
// event loop (experiment/supervisor.cpp) feeds it what its clients ask
// and report, with the wall clock passed in. A spec is ready, waiting
// (backoff), leased or terminal. A lease lasts `lease_secs` past the last
// heartbeat that showed event progress; when it lapses, a remote client's
// specs are requeued (the retry budget is untouched) and a local client
// is aborted by the watchdog (the failed attempt is charged). The queue
// keeps each unfinished spec's last checkpoint image, hands every image
// to the ImageStore, and grants a spec with its image to resume from.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "experiment/supervisor.hpp"
#include "telemetry/status.hpp"

namespace dftmsn {

namespace telemetry {
class LifecycleTrace;
}

/// A checkpoint image, shared between the queue and the writer.
using Image = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Lifecycle transitions of a spec: each updates the SpecRecord, the
/// status board and the lifecycle trace together (null when off).
struct Obs {
  telemetry::StatusBoard* board = nullptr;
  telemetry::LifecycleTrace* trace = nullptr;

  void running(std::size_t i, int attempt) const;
  void completed(SpecRecord& rec, std::size_t i, int attempt,
                 WorkerResult&& w, double horizon) const;
  void retrying(SpecRecord& rec, std::size_t i, int attempt,
                const std::string& detail) const;
  void quarantined(SpecRecord& rec, std::size_t i, int attempt,
                   const std::string& detail) const;
  void interrupted(SpecRecord& rec, std::size_t i,
                   const std::string& detail) const;
  void instant(std::size_t i, const char* name,
               std::vector<std::pair<std::string, std::string>> args) const;
};

/// The board's view of a completed spec, fresh or carried over by a
/// resume.
void board_done(telemetry::StatusBoard& board, std::size_t i,
                const SpecRecord& rec, double horizon);

/// Where images are kept durably (empty: no checkpoint directory).
struct ImageStore {
  std::function<void(std::size_t, const Image&)> put;
  std::function<void(std::size_t)> erase;  ///< the spec completed
  std::function<Image(std::size_t)> load;  ///< --resume, at a first grant
};

struct RetryPolicy {
  int max_retries = 2;            ///< simulation-failure retry budget
  double retry_backoff_s = 0.05;  ///< doubles per retry or requeue, <= 5 s
  double watchdog_secs = 0.0;     ///< named in watchdog details
};

/// A lapsed local lease trips the watchdog; a lapsed remote one is lost.
enum class ClientKind : std::uint8_t { kLocal, kRemote };

struct Granted {
  std::size_t spec = 0;
  int attempt = 0;
  Image image;  ///< resume from this (null: from scratch)
};

class SpecQueue {
 public:
  static constexpr double kForever = std::numeric_limits<double>::infinity();

  /// records[i] seeds spec i's record; a completed one (a resume
  /// carry-over) is published at once.
  SpecQueue(std::vector<SpecRecord> records, std::vector<double> horizons,
            RetryPolicy policy, Obs obs,
            std::function<void(std::size_t, SpecRecord&&)> publish,
            ImageStore store);

  /// Leases up to `max` ready specs to a client of `kind` for
  /// `lease_secs` (kForever: never lapses). Returns 0 when none is ready.
  std::uint64_t grant(ClientKind kind, std::size_t max, double lease_secs,
                      double now, std::vector<Granted>* out);
  /// Progress of a leased spec; extends the lease when `events` grew.
  void heartbeat(std::uint64_t lease, std::size_t spec, std::uint64_t events,
                 double sim_time_s, double now);
  /// Returns false (dropping it) when `lease` no longer holds the spec.
  bool checkpoint(std::uint64_t lease, std::size_t spec,
                  std::vector<std::uint8_t>&& image);
  /// An attempt's outcome, from whichever lease ran it; the first one
  /// ends the attempt, one for a terminal spec is a duplicate.
  void finish(std::size_t spec, WorkerResult&& res, double now);
  /// The client holding `lease` is gone: its specs are requeued.
  void lost(std::uint64_t lease, const std::string& why, double now);
  /// Readies specs whose backoff elapsed and handles lapsed leases.
  /// Returns the local leases whose clients must be aborted (once each).
  std::vector<std::uint64_t> tick(double now);
  /// External stop: specs no local client holds end interrupted now;
  /// returns the local leases whose clients must be aborted.
  std::vector<std::uint64_t> stop();

  [[nodiscard]] bool stopping() const { return stopping_; }
  [[nodiscard]] bool done() const { return terminal_ == specs_.size(); }
  [[nodiscard]] std::size_t held(std::uint64_t lease) const;
  /// Whether `lease` currently holds `spec`.
  [[nodiscard]] bool holds(std::uint64_t lease, std::size_t spec) const {
    return spec < specs_.size() && specs_[spec].phase == Phase::kLeased &&
           specs_[spec].lease == lease;
  }
  [[nodiscard]] const telemetry::DispatchCounters& counters() const {
    return counters_;
  }

 private:
  enum class Phase : std::uint8_t { kReady, kWaiting, kLeased, kTerminal };
  struct Spec {
    Phase phase = Phase::kReady;
    int attempt = 0;
    int requeues = 0;
    double ready_at = 0.0;
    std::uint64_t lease = 0;   ///< holder while leased
    std::uint64_t events = 0;  ///< progress seen under this lease
    std::uint64_t seq = 0;     ///< checkpoints this attempt
    bool watchdog = false;     ///< this attempt's lease lapsed
    bool loaded = false;       ///< the store's entry was considered
    Image image;               ///< last good checkpoint
    SpecRecord rec;
    double horizon = 0.0;
  };
  struct Lease {
    ClientKind kind = ClientKind::kLocal;
    double secs = kForever;
    double deadline = kForever;
    std::size_t held = 0;
  };

  double backoff_s(int n) const;
  void release(std::size_t i);
  void terminal(std::size_t i);
  void wait(std::size_t i, int n, double now);
  void requeue(std::size_t i, const std::string& why, double now);

  std::vector<Spec> specs_;
  std::deque<std::size_t> ready_;
  std::map<std::uint64_t, Lease> leases_;
  std::uint64_t next_lease_ = 1;
  std::size_t terminal_ = 0;
  bool stopping_ = false;
  RetryPolicy policy_;
  Obs obs_;
  std::function<void(std::size_t, SpecRecord&&)> publish_;
  ImageStore store_;
  telemetry::DispatchCounters counters_;
};

}  // namespace dftmsn
