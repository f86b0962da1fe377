#include "storage/memory_manager.h"

#include <chrono>

#include "common/metric_names.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "testing/failpoint.h"

namespace reldiv {

MemoryPool::Grant MemoryPool::ReserveInner(size_t bytes, size_t* used_after) {
  if (RELDIV_FAILPOINT_DENIED("memory/reserve")) return Grant::kForcedDenial;
  while (true) {
    {
      MutexLock lock(mu_);
      if (used_ + bytes <= budget_) {
        used_ += bytes;
        *used_after = used_;
        return Grant::kGranted;
      }
    }
    // Reclaim with the pool unlocked: the reclaimer re-enters the buffer
    // manager, whose lock the calling thread may already hold (Fix →
    // Reserve → TryShedFrame). A concurrent lane may win the freed budget
    // before this one re-checks — then the loop simply sheds again until
    // the reclaimer runs dry (frames are finite, so this terminates).
    if (!reclaimer_ || !reclaimer_()) {
      // Last re-check: a concurrent Release may have freed enough between
      // the failed check and the reclaimer running dry.
      MutexLock lock(mu_);
      if (used_ + bytes <= budget_) {
        used_ += bytes;
        *used_after = used_;
        return Grant::kGranted;
      }
      return Grant::kNoSpace;
    }
  }
}

bool MemoryPool::Reserve(size_t bytes, bool* forced) {
  // Grant latency covers the whole decision including reclaimer passes —
  // the §3.4 pressure signal. Clock reads only under kSampling.
  const bool sample = Telemetry::sampling();
  std::chrono::steady_clock::time_point start;
  if (sample) start = std::chrono::steady_clock::now();

  size_t used_after = 0;
  const Grant grant = ReserveInner(bytes, &used_after);
  const bool granted = grant == Grant::kGranted;
  if (forced != nullptr) *forced = grant == Grant::kForcedDenial;

  if (Telemetry::counting()) {
    if (granted) {
      static TelemetryGauge* high_water =
          MetricRegistry::Global().FindOrCreateGauge(
              metric_names::kMemHighWaterBytes);
      high_water->UpdateMax(used_after);
    } else {
      static TelemetryCounter* denials =
          MetricRegistry::Global().FindOrCreateCounter(
              metric_names::kMemGrantDenialsTotal);
      denials->Add(1);
      FlightRecorder::Global().Record(FlightEventCategory::kMemory,
                                      "grant_denied", "memory_pool", bytes);
    }
    if (sample) {
      static Histogram* latency = MetricRegistry::Global().FindOrCreateHistogram(
          metric_names::kMemGrantLatencyMicros);
      latency->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
  }
  return granted;
}

bool MemoryPool::WaitForSpace(
    size_t bytes, std::chrono::steady_clock::time_point deadline) {
  UniqueMutexLock lock(mu_);
  waiters_++;
  bool fits = used_ + bytes <= budget_;
  while (!fits) {
    if (release_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      fits = used_ + bytes <= budget_;
      break;
    }
    fits = used_ + bytes <= budget_;
  }
  waiters_--;
  return fits;
}

Status MemoryPool::ReserveWithDeadline(size_t bytes,
                                       std::chrono::milliseconds timeout) {
  bool forced = false;
  if (Reserve(bytes, &forced)) return Status::OK();
  if (Telemetry::counting()) {
    static TelemetryCounter* waits = MetricRegistry::Global().FindOrCreateCounter(
        metric_names::kMemGrantWaitsTotal);
    waits->Add(1);
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    // A forced failpoint denial is not a lack of space: no Release lifts
    // it, so fail now instead of waiting out the deadline. Any other denial
    // waits, even if a Release has freed the space since — the wait then
    // returns at once and the grant is retried.
    if (forced) {
      return Status::ResourceExhausted(
          "memory grant of " + std::to_string(bytes) + " bytes denied");
    }
    if (!WaitForSpace(bytes, deadline)) break;
    if (Reserve(bytes, &forced)) return Status::OK();
  }
  if (Telemetry::counting()) {
    static TelemetryCounter* timeouts =
        MetricRegistry::Global().FindOrCreateCounter(
            metric_names::kMemGrantTimeoutsTotal);
    timeouts->Add(1);
    FlightRecorder::Global().Record(FlightEventCategory::kMemory,
                                    "grant_timeout", "memory_pool", bytes);
  }
  return Status::ResourceExhausted(
      "memory grant of " + std::to_string(bytes) + " bytes not satisfied in " +
      std::to_string(timeout.count()) + " ms");
}

void* Arena::Allocate(size_t bytes) {
  const size_t aligned = (bytes + 7) & ~size_t{7};
  if (chunks_.empty() || chunks_.back().used + aligned > chunks_.back().size) {
    // Adapt the chunk size downward under memory pressure so that a small
    // remaining budget can still satisfy small allocations.
    size_t chunk_size = aligned > chunk_bytes_ ? aligned : chunk_bytes_;
    if (pool_ != nullptr) {
      const std::chrono::milliseconds timeout = pool_->wait_timeout();
      bool deadline_set = false;
      std::chrono::steady_clock::time_point deadline;
      bool forced = false;
      while (!pool_->Reserve(chunk_size, &forced)) {
        if (chunk_size > aligned) {
          // Adapt downward first: a small remaining budget should satisfy a
          // small allocation before anyone blocks.
          chunk_size = chunk_size / 2 > aligned ? chunk_size / 2 : aligned;
          continue;
        }
        // The minimum-size grant was denied. With no wait budget this is
        // the §3.4 overflow signal, immediately; otherwise park on the
        // pool's release condvar until another query frees memory or the
        // deadline passes (the old code re-polled Reserve in a busy spin,
        // letting two contending queries starve each other indefinitely).
        // A failpoint-forced denial also fails fast.
        if (timeout.count() <= 0 || forced) return nullptr;
        if (!deadline_set) {
          deadline = std::chrono::steady_clock::now() + timeout;
          deadline_set = true;
        }
        if (!pool_->WaitForSpace(chunk_size, deadline)) return nullptr;
      }
    }
    Chunk chunk;
    chunk.data = std::make_unique<char[]>(chunk_size);
    chunk.size = chunk_size;
    chunks_.push_back(std::move(chunk));
    bytes_reserved_ += chunk_size;
  }
  Chunk& chunk = chunks_.back();
  void* out = chunk.data.get() + chunk.used;
  chunk.used += aligned;
  bytes_allocated_ += aligned;
  return out;
}

void Arena::Reset() {
  chunks_.clear();
  if (pool_ != nullptr) pool_->Release(bytes_reserved_);
  bytes_reserved_ = 0;
  bytes_allocated_ = 0;
}

}  // namespace reldiv
