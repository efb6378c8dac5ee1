// The timing fault handler (§5.4) — the client-side gateway protocol
// handler that this paper contributes, driven in simulated time.
//
// The per-request protocol — select at t0, transmit at t1, deliver the
// first reply at t4, harvest t_s, t_q and t_d = t4 - t1 - t_q - t_s from
// every reply, detect timing failures (t_r = t4 - t0 > t) and report QoS
// violations (§5.4.1–5.4.2) — is core::RequestLifecycle, shared with the
// threaded runtime. This class owns what the simulator owns: the
// interception and selection (delta) delays, the deadline, hedge and GC
// timers, staleness probes, discovery parking and the group sends. View
// changes evict crashed replicas so "these failed replicas will therefore
// not be considered in the selection process for future requests" (§5.4).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "core/model_cache.h"
#include "core/policies.h"
#include "core/request_lifecycle.h"
#include "net/group.h"
#include "net/lan.h"
#include "sim/periodic.h"
#include "sim/simulator.h"

namespace aqua::obs {
class Counter;
class Histogram;
class Telemetry;
}  // namespace aqua::obs

namespace aqua::gateway {

/// Cost model for the handler's own processing, charged in simulated time
/// so that the overhead-compensation path (§5.3.3) is exercised
/// deterministically. Calibrated against the fig3 micro-benchmarks: the
/// distribution computation (~90% of delta) scales with n * l^2 atoms,
/// the subset selection (~10%) with n log n.
struct OverheadModel {
  /// Fixed interception + marshalling cost (t0 -> selection start).
  Duration interception = usec(120);
  /// Fixed selection cost.
  Duration base = usec(40);
  /// Added per replica with history.
  Duration per_replica = usec(12);
  /// Added per replica per (window length)^2 convolution atom, in
  /// nanoseconds (the dominant term of the distribution computation).
  double per_atom_ns = 80.0;
  /// Added per replica served from the model cache: a map lookup plus
  /// one cdf evaluation instead of the full convolution.
  Duration per_cached_replica = usec(2);
  /// Added per chunk-request of a coded dispatch: MDS encoding and the
  /// per-copy marshalling that multicast would otherwise share.
  Duration per_chunk = usec(6);

  /// Uncached estimate: every replica pays the convolution term.
  [[nodiscard]] Duration selection_cost(std::size_t replicas, std::size_t window) const;

  /// Split estimate: `convolved` replicas pay the per-atom convolution
  /// term, `cached` replicas only per_cached_replica. The handler uses
  /// the model-cache hit/miss counters of each selection to charge this
  /// form, tightening the delta fed back into §5.3.3's compensation.
  [[nodiscard]] Duration selection_cost(std::size_t convolved, std::size_t cached,
                                        std::size_t window) const;
};

struct HandlerConfig {
  core::RepositoryConfig repository;
  core::SelectionConfig selection;
  core::ModelConfig model;
  core::FailureTrackerConfig failure_tracker;
  OverheadModel overhead;

  /// Speculative-redundancy dispatch (hedging, cancel-on-first-reply,
  /// adaptive redundancy). The default reproduces the paper's full-K
  /// multicast exactly — same events, same randomness, same traces.
  core::DispatchConfig dispatch;

  /// Extension: when a view change leaves a pending request with no live
  /// selected replica, re-run selection and re-send instead of letting
  /// the client wait forever.
  bool redispatch_on_view_change = true;

  /// Requests intercepted before any replica is known wait until the
  /// Announce burst has been quiet for this long, so the cold-start
  /// "select all replicas" really sees all of them (announces from the
  /// initial Subscribe spread over the LAN jitter).
  Duration discovery_settle = msec(1);

  /// §8 extension ("our work can also be extended to use active probes
  /// [5] when a replica's performance information is obsolete"): when
  /// positive, any replica whose repository entry is older than this is
  /// sent a lightweight probe request. Probe outcomes refresh the windows
  /// but never count toward the client's timing statistics. Zero
  /// disables probing.
  Duration probe_staleness = Duration::zero();

  /// Optional telemetry hub (non-owning; must outlive the handler).
  /// When set, the handler mirrors its request lifecycle into gateway.*
  /// metrics, emits one obs::RequestTrace per decided request and one
  /// obs::SelectionTrace per Algorithm-1 run, wraps the policy in the
  /// observed decorator, and attaches the model cache + repository
  /// counters. Null (the default) keeps every instrumented site at one
  /// branch and never perturbs the simulation: telemetry schedules no
  /// events and draws no randomness.
  obs::Telemetry* telemetry = nullptr;
};

/// Delivered to the client application for the first reply of a request.
struct ReplyInfo {
  RequestId request;
  ReplicaId replica;
  std::int64_t result = 0;
  /// t_r = t4 - t0.
  Duration response_time{};
  bool timely = false;
};

/// One row of the handler's request log (experiment raw data).
using RequestRecord = core::RequestRecord;

class TimingFaultHandler {
 public:
  using ReplyCallback = std::function<void(const ReplyInfo&)>;
  /// Invoked when the observed timely fraction drops below the client's
  /// requested minimum probability (§5.4.2).
  using QosViolationCallback = std::function<void(double observed_timely_fraction)>;

  /// Creates the handler's gateway endpoint on `host`, joins the service
  /// group and subscribes to replica performance updates.
  TimingFaultHandler(sim::Simulator& simulator, net::Lan& lan, net::MulticastGroup& group,
                     ClientId client, HostId host, core::QosSpec qos, Rng rng,
                     HandlerConfig config = {}, core::PolicyPtr policy = nullptr);

  TimingFaultHandler(const TimingFaultHandler&) = delete;
  TimingFaultHandler& operator=(const TimingFaultHandler&) = delete;

  /// Intercept one client request (t0 = now). `on_reply` fires once, for
  /// the first reply; redundant replies only update the repository.
  RequestId invoke(std::int64_t argument, ReplyCallback on_reply,
                   const std::string& method = core::kDefaultMethod);

  /// Runtime QoS renegotiation (§4); resets the failure tracker.
  void set_qos(core::QosSpec qos);
  [[nodiscard]] const core::QosSpec& qos() const { return qos_; }

  void on_qos_violation(QosViolationCallback fn) { on_violation_ = std::move(fn); }

  [[nodiscard]] ClientId client() const { return client_; }
  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }
  [[nodiscard]] const core::InfoRepository& repository() const { return lifecycle_.repository(); }
  [[nodiscard]] const core::TimingFailureTracker& failure_tracker() const {
    return lifecycle_.tracker();
  }

  /// Raw per-request log, in invocation order.
  [[nodiscard]] const std::vector<RequestRecord>& history() const { return lifecycle_.history(); }

  /// Replicas currently known (directory built from Announce messages).
  [[nodiscard]] std::size_t known_replicas() const { return replica_endpoints_.size(); }

  /// delta currently used for overhead compensation.
  [[nodiscard]] Duration overhead_delta() const { return overhead_.current(); }

  /// Staleness probes sent so far (probe_staleness extension).
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }

  /// Hedge timers that actually fired (hedged dispatch mode).
  [[nodiscard]] std::uint64_t hedges_fired() const { return lifecycle_.hedges_fired(); }

  /// proto::Cancel messages sent after first replies.
  [[nodiscard]] std::uint64_t cancels_sent() const { return lifecycle_.cancels_sent(); }

  /// Times the derived gateway delay t_d = t4 - t1 - t_q - t_s came out
  /// negative and was clamped to zero. Nonzero means clock bases
  /// disagree (or stale replies outlived a redispatched t1); sim runs
  /// without redispatch must stay at exactly 0.
  [[nodiscard]] std::uint64_t td_clamped() const { return lifecycle_.td_clamped(); }

  /// Response-pmf memoization shared with the default dynamic policy
  /// (hit/miss/invalidation/eviction counters for diagnostics).
  [[nodiscard]] const core::ModelCache& model_cache() const { return *model_cache_; }

  /// Requests and probes currently in flight to `replica` (O(1); kept in
  /// sync with every pending request's awaiting set).
  [[nodiscard]] std::size_t outstanding_requests(ReplicaId replica) const {
    return lifecycle_.outstanding(replica);
  }

 private:
  /// Simulator-side state of one client request: its reply callback and
  /// timers. Everything else about the request lives in lifecycle_.
  struct Timers {
    ReplyCallback on_reply;
    sim::EventHandle deadline;
    sim::EventHandle hedge;
  };

  void on_receive(EndpointId from, const net::Payload& message);
  void handle_reply(const proto::Reply& reply);
  void handle_announce(const proto::Announce& announce);
  void on_view_change(const net::View& view, std::span<const EndpointId> departed);
  /// Select and plan now, transmit after the modelled selection cost.
  void dispatch(RequestId id, bool redispatch);
  /// Transmit the held-back hedge set now (timer expiry).
  void fire_hedge(RequestId id);
  void send(const core::Transmission& tx);
  void report_violation();
  /// Drop the timers once the lifecycle has let the request go (retire)
  /// or unconditionally (collect, the bounded GC).
  void retire(RequestId id);
  void collect(RequestId id);
  void probe_stale_replicas();
  void send_probe(ReplicaId replica);

  sim::Simulator& simulator_;
  net::Lan& lan_;
  net::MulticastGroup& group_;
  ClientId client_;
  core::QosSpec qos_;
  Rng rng_;
  HandlerConfig config_;
  std::shared_ptr<core::ModelCache> model_cache_;
  core::PolicyPtr policy_;
  core::RequestLifecycle lifecycle_;
  core::OverheadEstimator overhead_;

  EndpointId endpoint_;
  IdGenerator<RequestId> request_ids_;
  std::unordered_map<ReplicaId, EndpointId> replica_endpoints_;
  std::unordered_map<EndpointId, ReplicaId> endpoint_replicas_;
  std::unordered_map<RequestId, Timers> timers_;
  /// dispatch()'s repository snapshot, kept between selections so its
  /// vectors' capacity is reused.
  std::vector<core::ReplicaObservation> observations_;
  QosViolationCallback on_violation_;
  sim::EventHandle parked_dispatch_;
  sim::PeriodicTask probe_task_;
  std::uint64_t probes_sent_ = 0;

  /// Telemetry wiring: obs_ mirrors config_.telemetry; the metric
  /// pointers are resolved once in the constructor and stay null when
  /// telemetry is disabled (one-branch discipline on every hot site).
  obs::Telemetry* obs_ = nullptr;
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* probes_counter_ = nullptr;
  obs::Counter* redispatches_counter_ = nullptr;
  obs::Counter* replicas_evicted_counter_ = nullptr;
  obs::Histogram* selection_delta_histogram_ = nullptr;
};

}  // namespace aqua::gateway
