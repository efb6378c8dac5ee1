// A net::Transport whose far side is the test itself. Every message the
// client under test sends is queued for the test thread, which plays the
// replicas: it answers by delivering payloads into the client's endpoint,
// stays silent, or reports a host dead. Lets a test script exact replica
// behaviour against a real, wall-clock ThreadedClient.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "obs/telemetry.h"

namespace aqua::testing {

class ScriptedTransport final : public net::Transport {
 public:
  struct Sent {
    EndpointId to;
    net::Payload message;
    /// Send time on the clock of the hub passed to set_telemetry (the
    /// client's trace clock), or the steady clock without one.
    TimePoint at;
  };

  /// A scripted peer on its own host.
  EndpointId add_peer(HostId host) {
    std::lock_guard lock(mutex_);
    const EndpointId endpoint{next_endpoint_++};
    hosts_[endpoint] = host;
    return endpoint;
  }

  /// The next message the client sent, or nothing within `timeout`.
  std::optional<Sent> next(std::chrono::milliseconds timeout) {
    std::unique_lock lock(mutex_);
    if (!cv_.wait_for(lock, timeout, [this] { return !outbox_.empty(); })) return std::nullopt;
    Sent sent = std::move(outbox_.front());
    outbox_.pop_front();
    return sent;
  }

  /// Deliver `message` from peer `from` into the client, on this thread.
  void deliver(EndpointId from, const net::Payload& message) {
    net::ReceiveFn receive;
    {
      std::lock_guard lock(mutex_);
      receive = receive_;
    }
    if (receive) receive(from, message);
  }

  /// The transport presumes `host` dead and tells every subscriber.
  void kill_host(HostId host) {
    std::vector<net::HostStateFn> subscribers;
    {
      std::lock_guard lock(mutex_);
      dead_.push_back(host);
      subscribers = subscribers_;
    }
    for (const auto& fn : subscribers) fn(host, false);
  }

  EndpointId create_endpoint(HostId host, net::ReceiveFn on_receive) override {
    std::lock_guard lock(mutex_);
    const EndpointId endpoint{next_endpoint_++};
    hosts_[endpoint] = host;
    receive_ = std::move(on_receive);
    return endpoint;
  }

  void destroy_endpoint(EndpointId) override {
    std::lock_guard lock(mutex_);
    receive_ = nullptr;
  }

  void unicast(EndpointId, EndpointId to, net::Payload message) override {
    const TimePoint at = clock();
    {
      std::lock_guard lock(mutex_);
      outbox_.push_back({to, std::move(message), at});
      ++sent_;
    }
    cv_.notify_all();
  }

  void multicast(EndpointId from, std::span<const EndpointId> to, net::Payload message) override {
    for (EndpointId target : to) unicast(from, target, message);
  }

  void subscribe_host_state(net::HostStateFn fn) override {
    std::lock_guard lock(mutex_);
    subscribers_.push_back(std::move(fn));
  }

  [[nodiscard]] bool host_alive(HostId host) const override {
    std::lock_guard lock(mutex_);
    for (HostId dead : dead_) {
      if (dead == host) return false;
    }
    return true;
  }

  [[nodiscard]] HostId endpoint_host(EndpointId endpoint) const override {
    std::lock_guard lock(mutex_);
    return hosts_.at(endpoint);
  }

  [[nodiscard]] bool endpoint_exists(EndpointId endpoint) const override {
    std::lock_guard lock(mutex_);
    return hosts_.contains(endpoint);
  }

  void set_telemetry(obs::Telemetry* telemetry) override { clock_source_ = telemetry; }

  [[nodiscard]] std::uint64_t messages_sent() const override {
    std::lock_guard lock(mutex_);
    return sent_;
  }
  [[nodiscard]] std::uint64_t messages_delivered() const override { return 0; }
  [[nodiscard]] std::uint64_t messages_dropped() const override { return 0; }

 private:
  [[nodiscard]] TimePoint clock() const {
    if (clock_source_ != nullptr) return clock_source_->wall_now();
    return TimePoint{} + std::chrono::duration_cast<Duration>(
                             std::chrono::steady_clock::now().time_since_epoch());
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Sent> outbox_;
  std::unordered_map<EndpointId, HostId> hosts_;
  std::vector<HostId> dead_;
  std::vector<net::HostStateFn> subscribers_;
  net::ReceiveFn receive_;
  std::uint64_t next_endpoint_ = 1;
  std::uint64_t sent_ = 0;
  obs::Telemetry* clock_source_ = nullptr;
};

}  // namespace aqua::testing
