#include "runtime/in_process_transport.h"

#include "common/assert.h"
#include "obs/telemetry.h"

namespace aqua::runtime {

Duration NetDelayModel::sample(Rng& rng) const {
  Duration delay = base;
  if (jitter_max > Duration::zero()) delay += Duration{rng.uniform_int(0, count_us(jitter_max))};
  return modulation ? modulation->apply(delay) : delay;
}

InProcessTransport::InProcessTransport(NetDelayModel delay, Rng rng)
    : delay_(std::move(delay)), rng_(std::move(rng)) {
  AQUA_REQUIRE(delay_.base >= Duration::zero() && delay_.jitter_max >= Duration::zero(),
               "net delay must be non-negative");
}

InProcessTransport::~InProcessTransport() {
  executor_.shutdown();
  // What the executor discarded never reaches its destination.
  for (std::uint64_t n = in_flight_.exchange(0); n > 0; --n) count_drop();
}

EndpointId InProcessTransport::create_endpoint(HostId host, net::ReceiveFn on_receive) {
  AQUA_REQUIRE(on_receive != nullptr, "receive callback must be callable");
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->host = host;
  endpoint->receive = std::move(on_receive);
  std::unique_lock lock(mutex_);
  const EndpointId id = endpoint_ids_.next();
  endpoints_.emplace(id, std::move(endpoint));
  return id;
}

void InProcessTransport::destroy_endpoint(EndpointId id) {
  Endpoint* endpoint = nullptr;
  {
    std::unique_lock lock(mutex_);
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) return;
    endpoint = it->second.get();
    endpoint->destroyed.store(true);
    retired_.push_back(std::move(it->second));
    endpoints_.erase(it);
  }
  // No delivery can pin it now; wait out the ones that already have.
  {
    std::unique_lock lock(drain_mutex_);
    drained_.wait(lock, [endpoint] { return endpoint->active.load() == 0; });
  }
  // Releases whatever the callback captured; nothing can call it again.
  endpoint->receive = nullptr;
}

void InProcessTransport::unicast(EndpointId from, EndpointId to, net::Payload message) {
  multicast(from, std::span<const EndpointId>(&to, 1), std::move(message));
}

void InProcessTransport::multicast(EndpointId from, std::span<const EndpointId> to,
                                   net::Payload message) {
  if (!endpoint_exists(from)) {  // sender destroyed with a reply in flight
    for (std::size_t i = 0; i < to.size(); ++i) {
      sent_.fetch_add(1, std::memory_order_relaxed);
      if (sent_counter_ != nullptr) sent_counter_->add();
      count_drop();
    }
    return;
  }
  for (EndpointId destination : to) send(from, destination, message);
}

void InProcessTransport::send(EndpointId from, EndpointId to, const net::Payload& message) {
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (sent_counter_ != nullptr) sent_counter_->add();
  const Duration delay = sample_delay();
  if (delay == Duration::zero()) {
    deliver(from, to, message);
    return;
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  const bool posted = executor_.post_after(delay, [this, from, to, message] {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    deliver(from, to, message);
  });
  if (!posted) {  // shutting down
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    count_drop();
  }
}

void InProcessTransport::deliver(EndpointId from, EndpointId to, const net::Payload& message) {
  Endpoint* endpoint = nullptr;
  {
    std::shared_lock lock(mutex_);
    auto it = endpoints_.find(to);
    if (it != endpoints_.end()) {
      endpoint = it->second.get();
      endpoint->active.fetch_add(1);  // pinned: destroy_endpoint now waits for us
    }
  }
  if (endpoint == nullptr) {
    count_drop();
    return;
  }
  struct Unpin {
    InProcessTransport& transport;
    Endpoint& endpoint;
    ~Unpin() {
      // The endpoint outlives this (retired, never freed before the
      // transport), so reading it after the decrement is safe.
      if (endpoint.active.fetch_sub(1) == 1 && endpoint.destroyed.load()) {
        std::lock_guard lock(transport.drain_mutex_);
        transport.drained_.notify_all();
      }
    }
  } unpin{*this, *endpoint};
  delivered_.fetch_add(1, std::memory_order_relaxed);
  if (delivered_counter_ != nullptr) delivered_counter_->add();
  endpoint->receive(from, message);
}

Duration InProcessTransport::sample_delay() {
  if (delay_.jitter_max > Duration::zero()) {
    std::lock_guard lock(rng_mutex_);
    return delay_.sample(rng_);
  }
  return delay_.sample(rng_);  // draws nothing
}

void InProcessTransport::count_drop() {
  dropped_.fetch_add(1, std::memory_order_relaxed);
  if (dropped_counter_ != nullptr) dropped_counter_->add();
}

HostId InProcessTransport::endpoint_host(EndpointId endpoint) const {
  std::shared_lock lock(mutex_);
  auto it = endpoints_.find(endpoint);
  AQUA_REQUIRE(it != endpoints_.end(), "unknown endpoint");
  return it->second->host;
}

bool InProcessTransport::endpoint_exists(EndpointId endpoint) const {
  std::shared_lock lock(mutex_);
  return endpoints_.contains(endpoint);
}

void InProcessTransport::set_telemetry(obs::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    sent_counter_ = nullptr;
    delivered_counter_ = nullptr;
    dropped_counter_ = nullptr;
    return;
  }
  auto& metrics = telemetry->metrics();
  sent_counter_ = &metrics.counter("lan.sent");
  delivered_counter_ = &metrics.counter("lan.delivered");
  dropped_counter_ = &metrics.counter("lan.dropped");
}

}  // namespace aqua::runtime
