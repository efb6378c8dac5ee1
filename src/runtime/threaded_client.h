// Wall-clock client handler: the paper's selection loop over real threads.
//
// invoke() drives the same core::RequestLifecycle as the simulated timing
// fault handler — observe repository, select with Algorithm 1 (delta
// measured from the REAL wall clock, as the paper's implementation does),
// plan, transmit at t1, deliver the completing reply, harvest t_d from
// every reply — and blocks until the completing reply or a give-up
// timeout. This class adds only what a wall-clock runtime needs: one lock,
// a condition variable for the deadline / hedge / give-up waits, and the
// sends. There is one send path, a net::Transport: UdpTransport for real
// sockets, InProcessTransport for replicas in this process.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/request_lifecycle.h"
#include "net/transport.h"
#include "runtime/in_process_transport.h"
#include "runtime/replica_endpoint.h"
#include "runtime/threaded_replica.h"

namespace aqua::obs {
class Counter;
class Histogram;
class Telemetry;
}  // namespace aqua::obs

namespace aqua::runtime {

struct ThreadedClientConfig {
  core::RepositoryConfig repository;
  core::SelectionConfig selection;
  core::ModelConfig model;
  core::FailureTrackerConfig failure_tracker;
  /// One-way delay of the private InProcessTransport the replica-pointer
  /// constructor builds (ThreadedSystem builds its shared one from it).
  NetDelayModel net;
  /// invoke() returns unanswered after deadline * this factor.
  int give_up_deadline_factor = 4;

  /// Speculative-redundancy dispatch (hedged requests, cancel-on-first-
  /// reply, adaptive trimming). The default is the paper's full-K
  /// multicast: invoke() then takes the identity path with no extra
  /// model evaluation or rng draws.
  core::DispatchConfig dispatch;

  /// Identity used for trace ids (obs/span.h packs client + request into
  /// one id, so two clients sharing a hub must have distinct ids).
  /// ThreadedSystem::add_client assigns these automatically.
  ClientId id{};

  /// Optional telemetry hub (non-owning; must outlive the client). The
  /// threaded.* counters and histograms are updated from whichever
  /// threads call invoke() — several clients sharing one hub exercise the
  /// registry's concurrency guarantees. Null keeps every site at one
  /// branch.
  obs::Telemetry* telemetry = nullptr;

  /// The transport requests travel over (non-owning; must outlive the
  /// client). The client creates its own endpoint on `host`; replicas are
  /// discovered via add_peer_replica() or the Subscribe/Announce
  /// handshake, and a host reported dead by the transport is evicted like
  /// a membership view change. Null only with a replica list, which the
  /// client then serves through a private InProcessTransport.
  net::Transport* transport = nullptr;
  HostId host{};
};

class ThreadedClient {
 public:
  struct Outcome {
    bool answered = false;
    bool timely = false;
    Duration response_time{};
    std::size_t redundancy = 0;
    bool cold_start = false;
    ReplicaId first_replica{};
    std::int64_t result = 0;
    /// Wall-clock cost of model + selection for this invocation.
    Duration selection_overhead{};
    /// True when the dispatch plan split K (hedged mode, warm history).
    bool hedged = false;
    /// True when the hedge timer expired and the backup copies were sent.
    bool hedge_fired = false;
    /// Cancels sent to still-pending replicas after the completing reply.
    std::size_t cancels_sent = 0;
    /// Coded dispatch: distinct chunks required (0 = uncoded) and
    /// distinct chunk-replies collected by the time invoke() returned.
    std::uint32_t code_k = 0;
    std::size_t chunks_received = 0;
  };

  /// Exactly one of `replicas` and config.transport is given. Listed
  /// replicas (which must outlive the client) are put behind
  /// ReplicaEndpoints on a private InProcessTransport with config.net
  /// delays, so both cases share the one send path.
  ThreadedClient(std::vector<ThreadedReplica*> replicas, core::QosSpec qos, Rng rng,
                 ThreadedClientConfig config = {});
  ~ThreadedClient();

  ThreadedClient(const ThreadedClient&) = delete;
  ThreadedClient& operator=(const ThreadedClient&) = delete;

  /// Issue one request and block for the completing reply (or give up).
  /// The request's state outlives the call until its awaited replies
  /// drain (or a GC at 10 deadlines), so late replies still feed t_d.
  Outcome invoke(std::int64_t argument);

  /// Remove a crashed replica from consideration (the runtime analogue of
  /// the membership view change).
  void remove_replica(ReplicaId id);

  /// The client's own endpoint on the transport.
  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }

  /// Make `replica`, reachable at `endpoint`, a selection candidate.
  /// Idempotent per replica (later calls update the endpoint).
  void add_peer_replica(ReplicaId replica, EndpointId endpoint);

  /// Send a Subscribe to a peer endpoint; its Announce reply runs
  /// add_peer_replica with the replica behind that address.
  void subscribe_to(EndpointId peer);

  void set_qos(core::QosSpec qos);
  [[nodiscard]] const core::QosSpec& qos() const { return qos_; }

  /// Stop message intake: destroy the transport endpoint (waiting out
  /// deliveries in progress) and, with a private transport, the replica
  /// endpoints on it — after this no message can touch a replica or this
  /// client. Part of ThreadedSystem's phased teardown, called before
  /// replica threads are joined. Idempotent.
  void shutdown();

  /// Snapshot accessors (thread-safe).
  [[nodiscard]] double timely_fraction() const;
  [[nodiscard]] bool qos_violated() const;
  [[nodiscard]] std::size_t known_replicas() const;

  /// Lifetime dispatch counters (thread-safe).
  [[nodiscard]] std::uint64_t hedges_fired() const {
    std::lock_guard lock(mutex_);
    return lifecycle_.hedges_fired();
  }
  [[nodiscard]] std::uint64_t cancels_sent() const {
    std::lock_guard lock(mutex_);
    return lifecycle_.cancels_sent();
  }

 private:
  /// One staged message, sent after mutex_ is released.
  struct Send {
    std::vector<EndpointId> to;
    net::Payload payload;
  };
  /// Host-eviction relay shared with the transport's subscriber list:
  /// the transport cannot unsubscribe, so the callback goes through this
  /// block and the destructor severs `client` under its mutex.
  struct HostEvictRelay {
    std::mutex mutex;
    ThreadedClient* client = nullptr;
  };

  void on_receive(EndpointId from, const net::Payload& message);
  void intake(const proto::Reply& reply);
  void evict_host(HostId host);
  /// The clock every lifecycle time is read from: the telemetry hub's
  /// wall clock when one is attached (traces and spans share its axis),
  /// the steady clock otherwise.
  [[nodiscard]] TimePoint now() const;

  // The following run under mutex_.
  /// Select, plan and stage the first wave of request `id`; returns the
  /// wall-clock selection time.
  Duration dispatch(RequestId id, bool redispatch, std::vector<Send>& sends);
  void evict(std::span<const ReplicaId> dead, std::vector<Send>& sends);
  void stage(const core::Transmission& tx, std::vector<Send>& sends);
  void stage(const core::Cancellation& cancellation, std::vector<Send>& sends);
  /// Stage `payload` to the endpoints of `targets` still known.
  void stage(std::span<const ReplicaId> targets, net::Payload payload, std::vector<Send>& sends);
  void collect_garbage(TimePoint now);

  /// Send the staged messages; runs without mutex_.
  void flush(std::vector<Send>& sends);

  core::QosSpec qos_;
  Rng rng_;
  ThreadedClientConfig config_;
  /// Shared with selector_'s model; guarded by mutex_ like the repository
  /// (selection only ever runs under the lock).
  std::shared_ptr<core::ModelCache> model_cache_;
  core::ReplicaSelector selector_;

  /// Guards everything below except the atomics and the metric pointers.
  mutable std::mutex mutex_;
  /// Signalled on every completion; invoke() waits on it.
  std::condition_variable decided_;
  core::RequestLifecycle lifecycle_;
  core::OverheadEstimator overhead_;
  std::uint64_t next_request_ = 1;
  /// Requests an invoke() call is still waiting on (never collected).
  std::vector<RequestId> waiting_;
  /// Returned requests with replies outstanding, by collection time.
  std::deque<std::pair<TimePoint, RequestId>> garbage_;

  /// The endpoint is created in the constructor and destroyed by
  /// shutdown().
  net::Transport* transport_ = nullptr;
  EndpointId endpoint_{};
  std::atomic<bool> endpoint_destroyed_{false};
  std::unordered_map<ReplicaId, EndpointId> peer_replicas_;
  std::shared_ptr<HostEvictRelay> evict_relay_;

  /// Null unless telemetry is attached; safe to update without mutex_
  /// (counters and histograms are internally atomic).
  obs::Telemetry* obs_ = nullptr;
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* answered_counter_ = nullptr;
  obs::Counter* cold_starts_counter_ = nullptr;
  obs::Histogram* selection_overhead_histogram_ = nullptr;

  /// The replica-pointer constructor's private transport and the
  /// endpoints in front of the listed replicas (empty otherwise).
  /// Declared last so they go first; shutdown() has already stopped them.
  std::unique_ptr<InProcessTransport> own_transport_;
  std::vector<std::unique_ptr<ReplicaEndpoint>> own_endpoints_;
};

}  // namespace aqua::runtime
