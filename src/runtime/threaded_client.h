// Wall-clock client handler: the paper's selection loop over real threads.
//
// invoke() drives the same core::RequestLifecycle as the simulated timing
// fault handler — observe repository, select with Algorithm 1 (delta
// measured from the REAL wall clock, as the paper's implementation does),
// plan, transmit at t1, deliver the completing reply, harvest t_d from
// every reply — and blocks until the completing reply or a give-up
// timeout. This class adds only what a wall-clock runtime needs: one lock,
// a condition variable for the deadline / hedge / give-up waits, and the
// sends (transport datagrams or delay-injected in-process hops).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/request_lifecycle.h"
#include "net/transport.h"
#include "runtime/delayed_executor.h"
#include "runtime/threaded_replica.h"
#include "stats/variates.h"

namespace aqua::obs {
class Counter;
class Histogram;
class Telemetry;
}  // namespace aqua::obs

namespace aqua::runtime {

/// Symmetric one-way "network" delay injected on each hop.
struct NetDelayModel {
  Duration base = usec(200);
  Duration jitter_max = usec(100);

  /// Fault-injection hook: when set, every sampled delay is scaled/offset
  /// through this shared control block — the threaded analogue of a LAN
  /// spike window, retuned by the scenario engine mid-run.
  std::shared_ptr<const stats::LoadModulation> modulation;

  [[nodiscard]] Duration sample(Rng& rng) const;
};

struct ThreadedClientConfig {
  core::RepositoryConfig repository;
  core::SelectionConfig selection;
  core::ModelConfig model;
  core::FailureTrackerConfig failure_tracker;
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

  /// Transport mode: when set (non-owning; must outlive the client), the
  /// client creates its own endpoint on `host` and invoke() multicasts
  /// requests over the transport instead of submitting to in-process
  /// replica threads — replicas are discovered via add_peer_replica() or
  /// the Subscribe/Announce handshake, and a host reported dead by the
  /// transport is evicted like a membership view change. The in-process
  /// replica list may then be empty.
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

  /// The replica pointers must outlive the client. The list may be empty
  /// only in transport mode (config.transport set).
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

  /// Transport mode: the client's own endpoint on the transport.
  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }

  /// Transport mode: make `replica`, reachable at `endpoint`, a selection
  /// candidate. Idempotent per replica (later calls update the endpoint).
  void add_peer_replica(ReplicaId replica, EndpointId endpoint);

  /// Transport mode: send a Subscribe to a peer endpoint; its Announce
  /// reply runs add_peer_replica with the replica behind that address.
  void subscribe_to(EndpointId peer);

  void set_qos(core::QosSpec qos);
  [[nodiscard]] const core::QosSpec& qos() const { return qos_; }

  /// Stop message intake: destroy the transport endpoint (joining its
  /// delivery threads) and shut the delay executor down — after this no
  /// in-flight hop or datagram can touch a replica or this client. Part
  /// of ThreadedSystem's phased teardown, called before replica threads
  /// are joined. Idempotent.
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
  /// One staged send, run after mutex_ is released.
  using Send = std::function<void()>;
  /// Host-eviction relay shared with the transport's subscriber list:
  /// the transport cannot unsubscribe, so the callback goes through this
  /// block and the destructor severs `client` under its mutex.
  struct HostEvictRelay {
    std::mutex mutex;
    ThreadedClient* client = nullptr;
  };

  void on_receive(EndpointId from, const net::Payload& message);
  /// The one reply intake of both send paths.
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
  /// In-process send: `deliver` runs on the replica after one net delay.
  void hop(ReplicaId id, std::function<void(ThreadedReplica&)> deliver, std::vector<Send>& sends);
  void collect_garbage(TimePoint now);

  static void flush(std::vector<Send>& sends);

  std::vector<ThreadedReplica*> replicas_;
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

  /// Transport mode (null otherwise). The endpoint is created in the
  /// constructor and destroyed by shutdown().
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

  /// Declared last so it is destroyed FIRST: the executor's worker runs
  /// reply hops that lock mutex_ and write repository_, and its shutdown
  /// joins any in-flight task before the state above is torn down.
  DelayedExecutor executor_;
};

}  // namespace aqua::runtime
