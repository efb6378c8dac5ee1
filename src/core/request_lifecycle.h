// The request lifecycle of §5.3–5.4, written once for both runtimes.
//
// A gateway intercepts a call at t0, selects K with F_Ri(t − δ), transmits
// at t1, delivers the completing reply at t4 and harvests every reply's
// t_s and t_q into t_d = t4 − t1 − t_q − t_s. RequestLifecycle makes every
// per-request decision on that path (dispatch plan, reply intake,
// completion, cancel targets, hedge release, view-change satisfiability,
// outcome recording) and nothing else: it reads no clock (every entry
// point takes `now`), arms no timer and sends nothing. Its outputs are
// Transmission / Cancellation values the driver puts on its own wire.
//
// Drivers: gateway::TimingFaultHandler (simulated time and events) and
// runtime::ThreadedClient (wall clock, one lock, condition-variable
// waits). Not thread-safe: the threaded client calls it under its mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "core/completion.h"
#include "core/failure_tracker.h"
#include "core/info_repository.h"
#include "core/policies.h"
#include "core/qos.h"
#include "core/response_time_model.h"
#include "core/selection.h"
#include "obs/alerts.h"
#include "obs/span.h"
#include "proto/messages.h"

namespace aqua::obs {
class Counter;
class Histogram;
class Telemetry;
}  // namespace aqua::obs

namespace aqua::core {

/// One row of the request log (experiment raw data).
struct RequestRecord {
  RequestId request;
  TimePoint intercepted_at{};  // t0
  TimePoint transmitted_at{};  // t1
  QosSpec qos;
  std::size_t redundancy = 0;  // |K|
  bool cold_start = false;
  bool feasible = false;
  double predicted_probability = 0.0;
  bool redispatched = false;
  /// Staleness probe; excluded from client statistics.
  bool probe = false;
  /// Hedged dispatch: only the best replica went out at t1.
  bool hedged = false;
  /// The held-back members were sent (timer expiry or primary evicted).
  bool hedge_fired = false;
  /// Cancels sent to still-awaited replicas after the completing reply.
  std::size_t cancels_sent = 0;
  /// Coded dispatch: chunks required (0 = uncoded) and collected.
  std::uint32_t code_k = 0;
  std::size_t chunks_received = 0;
  std::optional<Duration> response_time;  // empty until delivery
  bool timely = false;
};

/// One wave of copies to replicas the repository still knows: one shared
/// payload (the paper's multicast), or one chunk index per target.
struct Transmission {
  proto::Request request;
  std::vector<ReplicaId> targets;
  std::vector<std::uint32_t> chunks;  // parallel to targets when coded
  obs::SpanContext span;              // invalid when spans are off
};

/// Cancel-on-first-reply: withdraw `cancel` from every target.
struct Cancellation {
  proto::Cancel cancel;
  std::vector<ReplicaId> targets;
};

/// A selection turned into a transmission schedule by plan().
struct PlannedDispatch {
  std::vector<ReplicaId> selected;    // K: the policy's set + dataless ride-alongs
  std::vector<ReplicaId> primary;     // sent at t1
  std::vector<std::uint32_t> chunks;  // one fresh index per primary when coded
  std::size_t copies = 0;             // primary + held hedge set
  std::uint32_t code_k = 0;           // chunks per copy (0 = uncoded)
  bool hedged = false;                // the hedge set goes out hedge_delay after t1
  Duration hedge_delay{};
};

/// What one reply did to its request.
struct ReplyIntake {
  bool completed = false;  // satisfied the completion predicate (once)
  Duration response_time{};  // t_r = t4 − t0 of a completing reply
  bool timely = false;
  bool violated = false;   // its outcome crossed into QoS violation
  std::optional<Cancellation> cancel;  // the members still awaited
};

/// What a view change did to the requests in flight.
struct Eviction {
  std::vector<Transmission> hedges;      // released: their primary left
  std::vector<RequestId> unsatisfiable;  // no remaining copy can complete
};

class RequestLifecycle {
 public:
  /// Per-request state; drivers read it through find().
  struct Request {
    TimePoint t0{};
    TimePoint t1{};
    QosSpec qos;
    std::string method;
    std::int64_t argument = 0;
    bool is_probe = false;
    bool dispatched = false;  // a selection ran with a non-empty directory
    bool delivered = false;
    bool outcome_recorded = false;

    /// Copies sent (or about to be) not yet answered, cancelled or evicted.
    std::vector<ReplicaId> awaiting;
    /// Members of K held back until release_hedge (not yet awaited).
    std::vector<ReplicaId> hedge_set;
    Duration hedge_delay{};

    /// Completion predicate: first-of-n unless the first non-default plan
    /// armed it; redispatches keep its contract and progress.
    ReplyCollector collector;
    std::uint32_t code_k = 0;
    std::uint32_t next_chunk = 0;  // rateless MDS: every index is fresh

    /// The completing reply.
    TimePoint t4{};
    ReplicaId first_replica{};
    std::int64_t result = 0;
    Duration first_service{};
    Duration first_queuing{};
    Duration first_gateway{};

    /// The emitted obs::RequestTrace (for the late-reply amendment) and
    /// the root kRequest span, allocated at the first hop that needs it.
    std::uint64_t trace_seq = 0;
    bool trace_recorded = false;
    std::uint64_t trace_id = 0;
    std::uint64_t root_span = 0;

    std::size_t record_index = 0;  // into history() when it is kept
    RequestRecord record;          // used when history() is not kept
  };

  /// `keep_history` retains every RequestRecord for history(); without it
  /// a record lives as long as its request. `dispatch_model` evaluates
  /// hedge delays (hedged mode only). With a hub, the outcome counters
  /// are exported as `<metric_prefix>.timely` etc. (gateway.*, threaded.*).
  RequestLifecycle(ClientId client, const RepositoryConfig& repository,
                   const FailureTrackerConfig& failure_tracker, const SelectionConfig& selection,
                   const DispatchConfig& dispatch, ResponseTimeModel dispatch_model,
                   obs::Telemetry* telemetry, const std::string& metric_prefix,
                   bool keep_history);

  RequestLifecycle(const RequestLifecycle&) = delete;
  RequestLifecycle& operator=(const RequestLifecycle&) = delete;

  [[nodiscard]] InfoRepository& repository() { return repository_; }
  [[nodiscard]] const InfoRepository& repository() const { return repository_; }
  [[nodiscard]] const TimingFailureTracker& tracker() const { return tracker_; }

  /// Intercept a client request at t0.
  void open(RequestId id, TimePoint t0, const QosSpec& qos, std::string method,
            std::int64_t argument);

  /// Open a staleness probe of `replica`, sent at `now`.
  Transmission open_probe(RequestId id, TimePoint now, const QosSpec& qos, ReplicaId replica);

  /// Selection → dataless ride-along → identity or plan_dispatch →
  /// collector arm → awaited set and in-flight charges.
  PlannedDispatch plan(RequestId id, const SelectionResult& selection,
                       std::span<const ReplicaObservation> observations, bool redispatch,
                       TimePoint now);

  /// The primary wave of `plan` leaves at t1 (`dispatch_start` opens the
  /// dispatch span). Empty if the request is gone.
  std::optional<Transmission> transmit(RequestId id, const PlannedDispatch& plan, TimePoint t1,
                                       TimePoint dispatch_start);

  /// True while a hedge set waits on its timer (t1 + hedge_delay).
  [[nodiscard]] bool hedge_armed(RequestId id) const;

  /// Release the held hedge set (timer expiry), if still useful.
  std::optional<Transmission> release_hedge(RequestId id);

  /// Harvest one reply at t4: perf sample, t_d, completion, outcome.
  ReplyIntake on_reply(const proto::Reply& reply, TimePoint t4);

  /// A pushed performance update.
  void on_perf_update(const proto::PerfUpdate& update, TimePoint now);

  /// No completing reply by the deadline: a timing failure. Returns true
  /// on a QoS-violation edge.
  bool on_deadline(RequestId id, TimePoint now);

  /// Replicas left the view: drop them everywhere, release hedge sets
  /// whose primary left, drop dead probes, report what cannot complete.
  Eviction evict(std::span<const ReplicaId> dead, TimePoint now);

  /// Erase the request once decided with nothing awaited; true if gone.
  bool finish_if_complete(RequestId id);

  /// Drop the request unconditionally (bounded garbage collection).
  void erase(RequestId id);

  /// QoS renegotiation (§4): the tracker and the violation edge restart.
  void renegotiate(const QosSpec& qos, TimePoint now);

  [[nodiscard]] const Request* find(RequestId id) const;
  [[nodiscard]] const RequestRecord& record(const Request& request) const;
  /// Requests intercepted but never dispatched (no replica was known).
  [[nodiscard]] std::vector<RequestId> parked() const;

  [[nodiscard]] const std::vector<RequestRecord>& history() const { return history_; }
  [[nodiscard]] std::size_t outstanding(ReplicaId replica) const;
  [[nodiscard]] std::uint64_t hedges_fired() const { return hedges_fired_; }
  [[nodiscard]] std::uint64_t cancels_sent() const { return cancels_sent_; }
  [[nodiscard]] std::uint64_t td_clamped() const { return td_clamped_; }

 private:
  RequestRecord& record_of(Request& request) {
    return const_cast<RequestRecord&>(record(request));
  }
  /// False (and counted) when a perf triple cannot be a measurement.
  bool admissible(const proto::PerfData& perf);
  proto::Request wire_request(RequestId id, const Request& request) const;
  void set_awaiting(Request& request, std::vector<ReplicaId> replicas);
  void add_awaiting(Request& request, std::span<const ReplicaId> replicas);
  void remove_awaiting(Request& request, ReplicaId replica);
  void drop_outstanding(ReplicaId replica, std::size_t count);
  std::optional<Cancellation> cancel_awaited(RequestId id, Request& request);
  bool record_outcome(Request& request, bool timely, TimePoint now);
  void emit_request_trace(Request& request, bool timely);
  std::uint64_t root_span(Request& request);
  void span(const Request& request, std::uint64_t id, std::uint64_t parent, obs::SpanKind kind,
            ReplicaId replica, TimePoint start, TimePoint end, bool ok = true);
  void alert(obs::AlertKind kind, TimePoint now, ReplicaId replica, double observed,
             double threshold, std::string detail);

  ClientId client_;
  SelectionConfig selection_;
  DispatchConfig dispatch_;
  ResponseTimeModel dispatch_model_;
  InfoRepository repository_;
  TimingFailureTracker tracker_;
  bool keep_history_;

  std::unordered_map<RequestId, Request> requests_;
  /// replica -> awaited entries naming it across all requests (absent = 0).
  std::unordered_map<ReplicaId, std::size_t> outstanding_;
  std::vector<RequestRecord> history_;
  bool violation_reported_ = false;
  std::uint64_t hedges_fired_ = 0;
  std::uint64_t cancels_sent_ = 0;
  std::uint64_t td_clamped_ = 0;

  obs::Telemetry* obs_ = nullptr;
  /// Non-null only when spans are enabled on the hub.
  obs::Telemetry* span_sink_ = nullptr;
  obs::Counter* replies_counter_ = nullptr;
  obs::Counter* timely_counter_ = nullptr;
  obs::Counter* timing_failures_counter_ = nullptr;
  obs::Counter* td_clamped_counter_ = nullptr;
  obs::Counter* hedges_counter_ = nullptr;
  obs::Counter* cancels_counter_ = nullptr;
  obs::Counter* qos_violations_counter_ = nullptr;
  obs::Histogram* response_time_histogram_ = nullptr;
  /// wire.rejected.<reason>, one per admissible() rejection.
  obs::Counter* rejected_negative_service_ = nullptr;
  obs::Counter* rejected_negative_queuing_ = nullptr;
  obs::Counter* rejected_negative_queue_length_ = nullptr;
  obs::Counter* rejected_perf_overflow_ = nullptr;
};

}  // namespace aqua::core
