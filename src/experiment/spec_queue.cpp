#include "experiment/spec_queue.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "snapshot/checkpoint.hpp"
#include "telemetry/lifecycle_trace.hpp"

namespace dftmsn {
namespace {

/// Transport losses do not consume the retry budget; this generous bound
/// still ends a spec that keeps losing its worker.
constexpr int kMaxTransportRequeues = 32;

}  // namespace

void board_done(telemetry::StatusBoard& board, std::size_t i,
                const SpecRecord& rec, double horizon) {
  board.update_progress(i, rec.result.events_executed, horizon);
  board.sync_checkpoints(i, rec.checkpoints);
  board.mark_done(i);
  board.absorb_registry(rec.registry);
}

void Obs::running(std::size_t i, int attempt) const {
  if (board) board->mark_running(i, attempt);
  if (trace) trace->begin(i, "attempt", {{"attempt", std::to_string(attempt)}});
}

/// The attempt replayed (or ran) the whole trajectory from event 0, so
/// its registry covers the full run: one merge, no double-counted retry
/// prefixes.
void Obs::completed(SpecRecord& rec, std::size_t i, int attempt,
                    WorkerResult&& w, double horizon) const {
  rec.status = SpecStatus::kCompleted;
  rec.retries = attempt;
  rec.detail.clear();
  rec.result = w.result;
  rec.registry.merge(w.registry);
  if (board) board_done(*board, i, rec, horizon);
  if (trace) trace->end(i, "attempt");
}

/// `attempt` is the next attempt's number.
void Obs::retrying(SpecRecord& rec, std::size_t i, int attempt,
                   const std::string& detail) const {
  rec.retries = attempt;
  rec.detail = detail;
  if (board) board->mark_retrying(i, attempt, detail);
  if (trace) {
    trace->end(i, "attempt");
    trace->instant(i, "retry",
                   {{"attempt", std::to_string(attempt - 1)},
                    {"reason", detail}});
  }
}

void Obs::quarantined(SpecRecord& rec, std::size_t i, int attempt,
                      const std::string& detail) const {
  rec.status = SpecStatus::kQuarantined;
  rec.retries = attempt;
  rec.detail = detail;
  if (board) board->mark_quarantined(i, detail);
  if (trace) {
    trace->end(i, "attempt");
    trace->instant(i, "quarantine",
                   {{"attempt", std::to_string(std::max(0, attempt - 1))},
                    {"reason", detail}});
  }
}

/// Empty `detail`: the spec was stopped between attempts, so it keeps its
/// last failure detail (or says it never started).
void Obs::interrupted(SpecRecord& rec, std::size_t i,
                      const std::string& detail) const {
  rec.status = SpecStatus::kInterrupted;
  if (!detail.empty())
    rec.detail = detail;
  else if (rec.detail.empty())
    rec.detail = "stopped before start";
  if (board) {
    board->sync_checkpoints(i, rec.checkpoints);
    board->mark_interrupted(i, rec.detail);
  }
  if (trace) {
    if (!detail.empty()) trace->end(i, "attempt");
    trace->instant(i, "interrupted", {{"reason", rec.detail}});
  }
}

void Obs::instant(std::size_t i, const char* name,
                  std::vector<std::pair<std::string, std::string>> args) const {
  if (trace) trace->instant(i, name, args);
}

SpecQueue::SpecQueue(std::vector<SpecRecord> records,
                     std::vector<double> horizons, RetryPolicy policy,
                     Obs obs,
                     std::function<void(std::size_t, SpecRecord&&)> publish,
                     ImageStore store)
    : specs_(records.size()),
      policy_(policy),
      obs_(obs),
      publish_(std::move(publish)),
      store_(std::move(store)) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    Spec& s = specs_[i];
    s.rec = std::move(records[i]);
    s.horizon = horizons[i];
    s.loaded = !store_.load;
    if (s.rec.status != SpecStatus::kCompleted) {
      ready_.push_back(i);
      continue;
    }
    // Resume carry-over: the board learns about it here or never.
    if (obs_.board) board_done(*obs_.board, i, s.rec, s.horizon);
    terminal(i);
  }
}

double SpecQueue::backoff_s(int n) const {
  return std::min(5.0, policy_.retry_backoff_s * std::pow(2.0, n - 1));
}

void SpecQueue::release(std::size_t i) {
  Spec& s = specs_[i];
  if (s.phase != Phase::kLeased) return;
  const auto it = leases_.find(s.lease);
  if (it != leases_.end() && --it->second.held == 0) leases_.erase(it);
  s.lease = 0;
}

void SpecQueue::terminal(std::size_t i) {
  Spec& s = specs_[i];
  release(i);
  s.phase = Phase::kTerminal;
  s.image.reset();
  ++terminal_;
  publish_(i, std::move(s.rec));
}

void SpecQueue::wait(std::size_t i, int n, double now) {
  release(i);
  specs_[i].phase = Phase::kWaiting;
  specs_[i].ready_at = now + backoff_s(n);
}

std::uint64_t SpecQueue::grant(ClientKind kind, std::size_t max,
                               double lease_secs, double now,
                               std::vector<Granted>* out) {
  out->clear();
  if (stopping_) return 0;
  const std::uint64_t id = next_lease_;
  while (!ready_.empty() && out->size() < max) {
    const std::size_t i = ready_.front();
    ready_.pop_front();
    Spec& s = specs_[i];
    if (s.phase != Phase::kReady) continue;  // stale queue entry
    if (!s.loaded) {
      s.loaded = true;
      s.image = store_.load(i);
    }
    s.phase = Phase::kLeased;
    s.lease = id;
    s.events = 0;
    s.seq = 0;
    s.watchdog = false;
    obs_.running(i, s.attempt);
    if (s.image && obs_.trace) {
      try {
        const CheckpointMeta meta = read_checkpoint_meta(*s.image);
        obs_.instant(i, "resume",
                     {{"sim_time", std::to_string(meta.time)},
                      {"events", std::to_string(meta.events)}});
      } catch (const std::exception&) {
        // The attempt rejects it and says why.
      }
    }
    out->push_back({i, s.attempt, s.image});
  }
  if (out->empty()) return 0;
  ++next_lease_;
  leases_[id] = {kind, lease_secs, now + lease_secs, out->size()};
  if (kind == ClientKind::kRemote) ++counters_.batches_granted;
  return id;
}

void SpecQueue::heartbeat(std::uint64_t lease, std::size_t spec,
                          std::uint64_t events, double sim_time_s,
                          double now) {
  if (spec >= specs_.size()) return;
  Spec& s = specs_[spec];
  // Only *progressing* heartbeats extend the lease: a SIGSTOPed or wedged
  // worker may keep its link alive, but its event counter freezes.
  if (s.phase != Phase::kLeased || s.lease != lease || s.watchdog ||
      events <= s.events)
    return;
  s.events = events;
  Lease& l = leases_.at(lease);
  l.deadline = now + l.secs;
  if (obs_.board) obs_.board->update_progress(spec, events, sim_time_s);
}

bool SpecQueue::checkpoint(std::uint64_t lease, std::size_t spec,
                           std::vector<std::uint8_t>&& image) {
  if (!holds(lease, spec)) return false;
  Spec& s = specs_[spec];
  s.image = std::make_shared<const std::vector<std::uint8_t>>(std::move(image));
  ++s.rec.checkpoints;
  if (obs_.board) obs_.board->mark_checkpoint(spec, 1);
  obs_.instant(spec, "checkpoint", {{"seq", std::to_string(++s.seq)}});
  if (store_.put) store_.put(spec, s.image);
  return true;
}

void SpecQueue::finish(std::size_t spec, WorkerResult&& res, double now) {
  if (spec >= specs_.size()) return;
  Spec& s = specs_[spec];
  if (s.phase == Phase::kTerminal) {
    // Idempotent completion: the first accepted result won; a resurrected
    // or raced worker's duplicate is discarded by spec id.
    ++counters_.duplicates_discarded;
    return;
  }
  if (!res.resume_rejected.empty()) {
    const std::string why = sanitize(res.resume_rejected);
    std::fprintf(stderr, "spec %zu: checkpoint not resumed (%s)\n", spec,
                 why.c_str());
    obs_.instant(spec, "resume_rejected", {{"reason", why}});
    if (s.seq == 0) s.image.reset();  // a retry would be rejected too
  }
  const int a = s.attempt;
  if (res.ok) {
    ++counters_.results_accepted;
    if (store_.erase) store_.erase(spec);
    obs_.completed(s.rec, spec, a, std::move(res), s.horizon);
    return terminal(spec);
  }
  if (stopping_ || res.interrupted) {
    // A stopped worker process dies by SIGKILL; its last image stands.
    obs_.interrupted(s.rec, spec,
                     res.interrupted ? res.error
                                     : "interrupted (worker stopped)");
    return terminal(spec);
  }
  // A watchdog abort (or SIGKILL) surfaces as an ordinary failure; keep
  // its own diagnosis inside the watchdog message.
  std::string fail = res.error;
  if (s.watchdog)
    fail = "watchdog: no event progress for " +
           std::to_string(policy_.watchdog_secs) + "s wall (" + fail + ")";
  const std::string detail =
      sanitize("attempt " + std::to_string(a) + ": " + fail);
  s.attempt = a + 1;
  if (s.attempt > policy_.max_retries) {
    obs_.quarantined(s.rec, spec, s.attempt, detail);
    return terminal(spec);
  }
  obs_.retrying(s.rec, spec, s.attempt, detail);
  wait(spec, s.attempt, now);
}

void SpecQueue::requeue(std::size_t i, const std::string& why, double now) {
  Spec& s = specs_[i];
  ++s.requeues;
  ++counters_.requeues;
  if (s.requeues > kMaxTransportRequeues) {
    obs_.quarantined(s.rec, i, s.attempt,
                     sanitize("dispatch: batch lost " +
                              std::to_string(s.requeues) +
                              " times (last: " + why + ")"));
    return terminal(i);
  }
  if (obs_.trace) obs_.trace->end(i, "attempt");
  obs_.instant(i, "requeue",
               {{"count", std::to_string(s.requeues)},
                {"reason", sanitize(why)}});
  wait(i, s.requeues, now);
}

void SpecQueue::lost(std::uint64_t lease, const std::string& why,
                     double now) {
  if (leases_.count(lease) == 0) return;
  for (std::size_t i = 0; i < specs_.size(); ++i)
    if (specs_[i].phase == Phase::kLeased && specs_[i].lease == lease)
      requeue(i, why, now);
}

std::vector<std::uint64_t> SpecQueue::tick(double now) {
  for (std::size_t i = 0; i < specs_.size(); ++i)
    if (specs_[i].phase == Phase::kWaiting && specs_[i].ready_at <= now) {
      specs_[i].phase = Phase::kReady;
      ready_.push_back(i);
    }

  std::vector<std::uint64_t> expired;
  for (const auto& [id, l] : leases_)
    if (l.deadline <= now) expired.push_back(id);
  std::vector<std::uint64_t> tripped;
  for (const std::uint64_t id : expired) {
    Lease& l = leases_.at(id);
    if (l.kind == ClientKind::kRemote) {
      // The worker crashed, hung or was partitioned: whatever the cause,
      // it lost the lease and its batch is requeued.
      ++counters_.leases_expired;
      lost(id, "lease expired", now);
      continue;
    }
    l.deadline = kForever;  // one trip per attempt
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      Spec& s = specs_[i];
      if (s.phase != Phase::kLeased || s.lease != id) continue;
      s.watchdog = true;
      if (obs_.board) obs_.board->mark_watchdog(i);
      obs_.instant(i, "watchdog",
                   {{"stalled_s", std::to_string(policy_.watchdog_secs)}});
    }
    tripped.push_back(id);
  }
  return tripped;
}

std::vector<std::uint64_t> SpecQueue::stop() {
  stopping_ = true;
  std::vector<std::uint64_t> local;
  for (const auto& [id, l] : leases_)
    if (l.kind == ClientKind::kLocal) local.push_back(id);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    Spec& s = specs_[i];
    if (s.phase == Phase::kTerminal) continue;
    if (s.phase == Phase::kLeased) {
      if (leases_.at(s.lease).kind == ClientKind::kLocal) continue;
      obs_.interrupted(s.rec, i, "interrupted (dispatch stopped)");
    } else {
      obs_.interrupted(s.rec, i, "");
    }
    terminal(i);
  }
  return local;
}

std::size_t SpecQueue::held(std::uint64_t lease) const {
  const auto it = leases_.find(lease);
  return it == leases_.end() ? 0 : it->second.held;
}

}  // namespace dftmsn
