#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>

#include "ppds/common/bytes.hpp"
#include "ppds/common/error.hpp"

/// \file stats.hpp
/// Daemon statistics: the live counters, their copyable snapshot and its
/// wire form.
///
/// DaemonStats is a bundle of atomics — correct for lock-free counting, but
/// non-copyable, so it cannot be returned from a function, stored in a
/// report, or serialized to a health probe. DaemonStatsSnapshot is the
/// plain-value view: DaemonStats::snapshot() reads every counter once (each
/// load is atomic; the snapshot as a whole is a consistent-enough
/// monitoring view, not a transaction) and the kHealth service ships it to
/// clients as a fixed-layout frame, so a probe can see queue depth and shed
/// counts without attaching a debugger to the daemon. One ordered table,
/// kStatsFields, pairs each counter with its snapshot field and fixes the
/// wire order; snapshot(), encode_stats and decode_stats all walk it.

namespace ppds::server {

/// Plain-value copy of every daemon counter and gauge. Monotone counters
/// unless marked as a gauge.
struct DaemonStatsSnapshot {
  std::uint64_t connections_accepted = 0;  ///< every successful ::accept
  std::uint64_t connections_closed = 0;    ///< clean goodbyes/EOFs
  std::uint64_t connections_reaped = 0;    ///< idle-timeout kills
  std::uint64_t connections_failed = 0;    ///< closed by a failed session
  std::uint64_t connections_rejected = 0;  ///< shed at accept with kBusy
  std::uint64_t rejected_over_cap = 0;     ///< ... because max_connections
  std::uint64_t rejected_rate_limited = 0; ///< ... because token bucket
  std::uint64_t rejected_draining = 0;     ///< ... because SIGTERM drain
  std::uint64_t sessions_ok = 0;
  std::uint64_t sessions_failed = 0;  ///< aborted mid-protocol
  std::uint64_t sessions_shed = 0;    ///< busy(draining) instead of serving
  std::uint64_t health_probes = 0;    ///< kHealth services answered
  std::uint64_t active_sessions = 0;  ///< gauge
  std::uint64_t live_connections = 0; ///< gauge: admitted and not yet retired
  std::uint64_t parked_depth = 0;     ///< gauge
  std::uint64_t ready_depth = 0;      ///< gauge
  std::uint64_t parked_peak = 0;      ///< high-water mark of parked_depth
  std::uint64_t ready_peak = 0;       ///< high-water mark of ready_depth

  /// Every accepted connection must end in exactly one bucket; true once
  /// the daemon has drained (gauges at zero).
  bool books_balance() const {
    return connections_accepted == connections_closed + connections_reaped +
                                       connections_failed +
                                       connections_rejected;
  }
};

/// Monotone counters, readable while the daemon runs (and after stop()).
/// The atomics make this struct non-copyable; snapshot() is the plain-value
/// view (and what the kHealth service serializes). Books invariant, held
/// whenever the daemon is drained: every accepted connection retires into
/// exactly one of closed / reaped / failed / rejected.
struct DaemonStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_closed{0};  ///< clean goodbyes/EOFs
  std::atomic<std::uint64_t> connections_reaped{0};  ///< idle-timeout kills
  std::atomic<std::uint64_t> connections_failed{0};  ///< failed-session kills
  /// Shed at the accept with a busy frame, before admission (split out by
  /// reason below).
  std::atomic<std::uint64_t> connections_rejected{0};
  std::atomic<std::uint64_t> rejected_over_cap{0};
  std::atomic<std::uint64_t> rejected_rate_limited{0};
  std::atomic<std::uint64_t> rejected_draining{0};
  std::atomic<std::uint64_t> sessions_ok{0};
  std::atomic<std::uint64_t> sessions_failed{0};  ///< aborted mid-protocol
  /// Admitted connections whose service select was answered busy(draining)
  /// instead of a session (counted under connections_closed for the books).
  std::atomic<std::uint64_t> sessions_shed{0};
  std::atomic<std::uint64_t> health_probes{0};
  std::atomic<std::uint64_t> active_sessions{0};  ///< gauge, not monotone
  /// Gauge: admitted and not yet retired (parked + ready + in a worker).
  std::atomic<std::uint64_t> live_connections{0};
  std::atomic<std::uint64_t> parked_depth{0};  ///< gauge
  std::atomic<std::uint64_t> ready_depth{0};   ///< gauge
  std::atomic<std::uint64_t> parked_peak{0};   ///< high-water mark
  std::atomic<std::uint64_t> ready_peak{0};    ///< high-water mark

  DaemonStatsSnapshot snapshot() const;
};

/// One counter: its live atomic and its snapshot field.
struct StatsField {
  std::atomic<std::uint64_t> DaemonStats::*counter;
  std::uint64_t DaemonStatsSnapshot::*value;
};

/// Every counter, in kHealth wire order.
inline constexpr StatsField kStatsFields[] = {
    {&DaemonStats::connections_accepted,
     &DaemonStatsSnapshot::connections_accepted},
    {&DaemonStats::connections_closed, &DaemonStatsSnapshot::connections_closed},
    {&DaemonStats::connections_reaped, &DaemonStatsSnapshot::connections_reaped},
    {&DaemonStats::connections_failed, &DaemonStatsSnapshot::connections_failed},
    {&DaemonStats::connections_rejected,
     &DaemonStatsSnapshot::connections_rejected},
    {&DaemonStats::rejected_over_cap, &DaemonStatsSnapshot::rejected_over_cap},
    {&DaemonStats::rejected_rate_limited,
     &DaemonStatsSnapshot::rejected_rate_limited},
    {&DaemonStats::rejected_draining, &DaemonStatsSnapshot::rejected_draining},
    {&DaemonStats::sessions_ok, &DaemonStatsSnapshot::sessions_ok},
    {&DaemonStats::sessions_failed, &DaemonStatsSnapshot::sessions_failed},
    {&DaemonStats::sessions_shed, &DaemonStatsSnapshot::sessions_shed},
    {&DaemonStats::health_probes, &DaemonStatsSnapshot::health_probes},
    {&DaemonStats::active_sessions, &DaemonStatsSnapshot::active_sessions},
    {&DaemonStats::live_connections, &DaemonStatsSnapshot::live_connections},
    {&DaemonStats::parked_depth, &DaemonStatsSnapshot::parked_depth},
    {&DaemonStats::ready_depth, &DaemonStatsSnapshot::ready_depth},
    {&DaemonStats::parked_peak, &DaemonStatsSnapshot::parked_peak},
    {&DaemonStats::ready_peak, &DaemonStatsSnapshot::ready_peak},
};

/// Field count of the kHealth wire form (u64 each, little-endian, in
/// kStatsFields order).
inline constexpr std::size_t kStatsSnapshotFields = std::size(kStatsFields);
static_assert(sizeof(DaemonStatsSnapshot) ==
                  kStatsSnapshotFields * sizeof(std::uint64_t),
              "every DaemonStatsSnapshot field needs a kStatsFields entry");

inline DaemonStatsSnapshot DaemonStats::snapshot() const {
  DaemonStatsSnapshot s;
  for (const StatsField& f : kStatsFields) {
    s.*f.value = (this->*f.counter).load();
  }
  return s;
}

inline Bytes encode_stats(const DaemonStatsSnapshot& s) {
  ByteWriter w;
  for (const StatsField& f : kStatsFields) w.u64(s.*f.value);
  return w.take();
}

inline DaemonStatsSnapshot decode_stats(const Bytes& payload) {
  if (payload.size() != kStatsSnapshotFields * 8) {
    throw SerializationError(
        "health reply: expected " +
        std::to_string(kStatsSnapshotFields * 8) + " bytes, got " +
        std::to_string(payload.size()));
  }
  ByteReader r(payload);
  DaemonStatsSnapshot s;
  for (const StatsField& f : kStatsFields) s.*f.value = r.u64();
  return s;
}

}  // namespace ppds::server
