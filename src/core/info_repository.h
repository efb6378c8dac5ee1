// Gateway information repository (§5.2).
//
// One repository lives inside each timing fault handler, caching only the
// information relevant to that handler's service: the replica list and,
// per replica, the service-time and queuing-delay sliding windows (size
// l), the most recent two-way gateway-to-gateway delay, and the current
// queue length. The repository is deliberately local to the handler — the
// paper rejects a global information service to avoid a single point of
// failure, remote-call overhead and concurrency control.
//
// The multi-interface extension (§8) is supported by keying windows by
// method name; single-interface deployments just use kDefaultMethod.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "core/qos.h"
#include "core/replica_stats.h"
#include "stats/sliding_window.h"

namespace aqua::obs {
class Counter;
class Gauge;
class Telemetry;
}  // namespace aqua::obs

namespace aqua::core {

struct RepositoryConfig {
  /// l: sliding-window length. "its value is chosen so that it includes a
  /// reasonable number of recent requests but eliminates obsolete
  /// measurements" (§5.2). The paper's experiments use 5.
  std::size_t window_size = 5;

  /// Window length for gateway-to-gateway delays (§5.3.1's suggested
  /// extension for LANs whose traffic does fluctuate); 0 defaults to
  /// window_size. The most recent value is always tracked regardless.
  std::size_t gateway_window_size = 0;

  /// Smoothing factor for the queue-length / trend / service-rate EWMAs
  /// backing the load-compensated score. Must be in (0, 1].
  double ewma_alpha = 0.3;

  /// When set, a sample whose sample_seq is not newer than the last one
  /// applied for the replica is DROPPED instead of applied — protects the
  /// repository from retransmitted/reordered UDP replies overwriting a
  /// fresher queue_length. Off by default: the deterministic sim relies
  /// on applying messages in arrival order for bit-identical figures, so
  /// only the threaded/UDP runtime turns this on. Stale arrivals are
  /// counted in repository.stale_samples either way.
  bool reject_stale_samples = false;
};

/// One performance measurement, as extracted from a reply or a pushed
/// PerfUpdate.
struct PerfSample {
  Duration service_time{};
  Duration queuing_delay{};
  std::int64_t queue_length = 0;
  /// Producer-side publication counter (proto::PerfData::sample_seq);
  /// zero means the producer does not sequence and the sample is always
  /// treated as fresh.
  std::uint64_t sample_seq = 0;
};

class InfoRepository {
 public:
  explicit InfoRepository(RepositoryConfig config = {});

  /// Track a replica (idempotent). New replicas start with empty windows.
  void add_replica(ReplicaId replica);

  /// Drop a replica and its history (membership change: "those clients
  /// ... remove the entry for the failed replicas from their local
  /// information repositories", §5.4).
  void remove_replica(ReplicaId replica);

  [[nodiscard]] bool contains(ReplicaId replica) const;
  [[nodiscard]] std::size_t replica_count() const;
  [[nodiscard]] std::vector<ReplicaId> replicas() const;

  /// Record t_s, t_q and the queue length from a reply or PerfUpdate.
  /// Unknown replicas are added implicitly (a push may beat the view).
  void record_perf(ReplicaId replica, const PerfSample& sample, TimePoint now,
                   const std::string& method = kDefaultMethod);

  /// Record a freshly measured two-way gateway-to-gateway delay
  /// (t_d = t4 - t1 - t_q - t_s). `sample_seq` is the sequence of the
  /// reply the delay was derived from (0 = unsequenced); it is guarded
  /// independently of record_perf's, since one reply feeds both.
  void record_gateway_delay(ReplicaId replica, Duration delay, TimePoint now,
                            std::uint64_t sample_seq = 0);

  /// Charge one in-flight request of our own against the replica: called
  /// at dispatch time, cleared by the next accepted perf sample. Unknown
  /// replicas are ignored (no implicit add — a dispatch is not evidence
  /// of membership). Never advances any generation stamp.
  void note_dispatch(ReplicaId replica);

  /// Snapshot one replica for the model. Throws if untracked. Pass `now`
  /// to have ReplicaObservation::silence computed; the TimePoint{}
  /// default leaves it zero (callers without a clock).
  [[nodiscard]] ReplicaObservation observe(ReplicaId replica,
                                           const std::string& method = kDefaultMethod,
                                           TimePoint now = TimePoint{}) const;

  /// Snapshot every tracked replica, in replica-id order.
  [[nodiscard]] std::vector<ReplicaObservation> observe_all(
      const std::string& method = kDefaultMethod, TimePoint now = TimePoint{}) const;

  /// observe_all() into `out`, overwriting its elements in place: a caller
  /// that keeps `out` between selections observes without allocating once
  /// its capacity covers the replica set and the windows.
  void observe_all_into(std::vector<ReplicaObservation>& out,
                        const std::string& method = kDefaultMethod,
                        TimePoint now = TimePoint{}) const;

  /// True until the first perf sample for any replica arrives; the
  /// handler selects ALL replicas on a cold repository (§5.4.1).
  [[nodiscard]] bool cold(const std::string& method = kDefaultMethod) const;

  /// Current generation stamp for (replica, method): the value observe()
  /// would place in ReplicaObservation::generation. 0 for untracked
  /// replicas. Stamps are drawn from one repository-global monotone
  /// counter, so a stamp is never reused — not even after remove_replica
  /// followed by re-add — and equal stamps imply identical model inputs.
  [[nodiscard]] std::uint64_t generation(ReplicaId replica,
                                         const std::string& method = kDefaultMethod) const;

  [[nodiscard]] std::size_t window_size() const { return config_.window_size; }

  /// Count harvest traffic into `telemetry` (repository.perf_samples,
  /// repository.gateway_delays, repository.stale_samples,
  /// repository.replicas_added / _removed) from now on, and export the
  /// per-replica load-pressure gauges (repository.<id>.queue_ewma /
  /// .queue_trend / .own_inflight). Null detaches. Counters are shared
  /// across handlers attached to one Telemetry, so they aggregate
  /// gateway-wide; the gauges too, so with several handlers on one
  /// Telemetry a gauge shows the most recent writer's view.
  void set_telemetry(obs::Telemetry* telemetry);

 private:
  struct MethodHistory {
    stats::SlidingWindow<Duration> service;
    stats::SlidingWindow<Duration> queuing;
    /// Bumped on every push (which also covers evictions).
    std::uint64_t generation = 0;
    explicit MethodHistory(std::size_t l) : service(l), queuing(l) {}
  };

  struct Record {
    std::map<std::string, MethodHistory> methods;
    Duration gateway_delay{};
    bool gateway_delay_known = false;
    stats::SlidingWindow<Duration> gateway_window;
    std::int64_t queue_length = 0;
    TimePoint last_update{};
    /// Bumped on changes that affect every method's model: gateway-delay
    /// measurements and queue-length changes.
    std::uint64_t shared_generation = 0;
    /// Load EWMAs (see ReplicaObservation). Seeded by the first sample.
    double queue_ewma = 0.0;
    double queue_trend = 0.0;
    double service_ewma_us = 0.0;
    bool ewma_seeded = false;
    /// Own dispatches since the last accepted perf sample.
    std::uint64_t own_inflight = 0;
    /// Highest sample_seq applied per channel. record_perf and
    /// record_gateway_delay are guarded separately because one reply
    /// legitimately feeds both with the same sequence number.
    std::uint64_t last_perf_seq = 0;
    std::uint64_t last_gateway_seq = 0;
    /// Per-replica load-pressure gauges, resolved lazily on first record
    /// after telemetry attaches (null otherwise, one-branch discipline).
    obs::Gauge* queue_ewma_gauge = nullptr;
    obs::Gauge* queue_trend_gauge = nullptr;
    obs::Gauge* own_inflight_gauge = nullptr;
    explicit Record(std::size_t gateway_l) : gateway_window(gateway_l) {}
  };

  Record& record_for(ReplicaId replica);
  /// Overwrite every field of `obs` with the snapshot of one record.
  static void fill(ReplicaObservation& obs, ReplicaId replica, const Record& record,
                   const std::string& method, TimePoint now);
  void resolve_load_gauges(ReplicaId replica, Record& record);

  RepositoryConfig config_;
  std::map<ReplicaId, Record> records_;
  std::uint64_t generation_counter_ = 0;

  /// Null unless telemetry is attached (one-branch discipline).
  obs::Telemetry* telemetry_ = nullptr;
  obs::Counter* perf_samples_counter_ = nullptr;
  obs::Counter* gateway_delays_counter_ = nullptr;
  obs::Counter* stale_samples_counter_ = nullptr;
  obs::Counter* replicas_added_counter_ = nullptr;
  obs::Counter* replicas_removed_counter_ = nullptr;
};

}  // namespace aqua::core
