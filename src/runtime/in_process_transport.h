// In-memory message transport for the threaded runtime.
//
// ThreadedClient has one send path — net::Transport — so replicas in the
// same process sit behind ReplicaEndpoints on this transport exactly as
// remote ones sit behind UdpTransport. Payloads are handed across by
// reference (no wire format; the SpanContext travels with the Payload).
//
// Each message to each destination draws its one-way delay from a
// NetDelayModel: base, jitter, and the LoadModulation hook the threaded
// scenario runner retunes mid-run.
//  - A zero delay is delivered inline: the receiver's ReceiveFn runs on
//    the sender's thread before unicast/multicast returns.
//  - A positive delay is posted to the transport's own DelayedExecutor
//    and delivered from its thread.
//
// Endpoint lifetime: a delivery pins its endpoint for the length of the
// ReceiveFn call. destroy_endpoint unpins it — no delivery can start
// after it — and returns only once every delivery into it has finished,
// so the receiver may be torn down as soon as it returns. A ReceiveFn
// must therefore never destroy the endpoint it is being delivered to
// (directly or through an inline chain), or it would wait on itself.
//
// Hosts never die here: the threaded runtime reports crashes through
// ThreadedClient::remove_replica. host_alive is always true and host-state
// subscribers are never called.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "net/transport.h"
#include "runtime/delayed_executor.h"
#include "stats/variates.h"

namespace aqua::obs {
class Counter;
}  // namespace aqua::obs

namespace aqua::runtime {

/// Symmetric one-way "network" delay injected on each message.
struct NetDelayModel {
  Duration base = usec(200);
  Duration jitter_max = usec(100);

  /// Fault-injection hook: when set, every sampled delay is scaled/offset
  /// through this shared control block — the threaded analogue of a LAN
  /// spike window, retuned by the scenario engine mid-run.
  std::shared_ptr<const stats::LoadModulation> modulation;

  /// Draws from `rng` only when jitter_max > 0.
  [[nodiscard]] Duration sample(Rng& rng) const;
};

class InProcessTransport final : public net::Transport {
 public:
  explicit InProcessTransport(NetDelayModel delay = {}, Rng rng = Rng{1});
  /// Discards undelivered delayed messages (counted as drops).
  ~InProcessTransport() override;

  InProcessTransport(const InProcessTransport&) = delete;
  InProcessTransport& operator=(const InProcessTransport&) = delete;

  EndpointId create_endpoint(HostId host, net::ReceiveFn on_receive) override;
  void destroy_endpoint(EndpointId endpoint) override;

  void unicast(EndpointId from, EndpointId to, net::Payload message) override;
  void multicast(EndpointId from, std::span<const EndpointId> to, net::Payload message) override;

  void subscribe_host_state(net::HostStateFn) override {}
  [[nodiscard]] bool host_alive(HostId) const override { return true; }
  [[nodiscard]] HostId endpoint_host(EndpointId endpoint) const override;
  [[nodiscard]] bool endpoint_exists(EndpointId endpoint) const override;

  /// Attach before traffic flows, like UdpTransport.
  void set_telemetry(obs::Telemetry* telemetry) override;

  [[nodiscard]] std::uint64_t messages_sent() const override {
    return sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t messages_delivered() const override {
    return delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t messages_dropped() const override {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Endpoint {
    HostId host;
    net::ReceiveFn receive;
    /// Deliveries currently running the ReceiveFn.
    std::atomic<std::uint32_t> active{0};
    std::atomic<bool> destroyed{false};
  };

  /// One message to one destination: inline or through the executor.
  void send(EndpointId from, EndpointId to, const net::Payload& message);
  void deliver(EndpointId from, EndpointId to, const net::Payload& message);
  [[nodiscard]] Duration sample_delay();
  void count_drop();

  NetDelayModel delay_;
  std::mutex rng_mutex_;
  Rng rng_;

  /// Guards the endpoint tables; deliveries take it shared.
  mutable std::shared_mutex mutex_;
  IdGenerator<EndpointId> endpoint_ids_;
  std::unordered_map<EndpointId, std::unique_ptr<Endpoint>> endpoints_;
  /// Destroyed endpoints are kept (with their ReceiveFn released) so a
  /// delivery that has just unpinned one never touches freed memory.
  std::vector<std::unique_ptr<Endpoint>> retired_;
  /// destroy_endpoint waits here for the deliveries into it to finish.
  std::mutex drain_mutex_;
  std::condition_variable drained_;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  /// Delayed messages posted and not yet run.
  std::atomic<std::uint64_t> in_flight_{0};

  /// Null unless telemetry is attached (one-branch discipline).
  obs::Counter* sent_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;

  /// Declared last so it is destroyed first: its shutdown joins a
  /// delayed delivery in progress before the tables above go away.
  DelayedExecutor executor_;
};

}  // namespace aqua::runtime
