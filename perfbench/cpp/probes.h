// Bench-side decorators that time calls into the program's public layer
// interfaces from outside: net::Transport (send calls and the ReceiveFn
// upcalls each endpoint runs) and core::SelectionPolicy (Algorithm 1 in the
// simulator). They forward every call unchanged; the program itself carries
// no bench instrumentation.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/ids.h"
#include "core/policies.h"
#include "measure.h"
#include "net/transport.h"

namespace perfbench {

/// Raw timings gathered by TimedTransport, in microseconds.
struct TransportProbes {
  Samples send_us;              ///< unicast/multicast call duration
  Samples client_receive_us;    ///< client ReceiveFn on a Reply
  Samples endpoint_receive_us;  ///< replica-endpoint ReceiveFn on a Request
  SpanLog* log = nullptr;       ///< optional bench span log
};

class TimedTransport final : public aqua::net::Transport {
 public:
  /// `inner` and `probes` must outlive this decorator.
  TimedTransport(aqua::net::Transport& inner, TransportProbes& probes)
      : inner_(inner), probes_(probes) {}

  aqua::EndpointId create_endpoint(aqua::HostId host, aqua::net::ReceiveFn on_receive) override;
  void destroy_endpoint(aqua::EndpointId endpoint) override { inner_.destroy_endpoint(endpoint); }
  void unicast(aqua::EndpointId from, aqua::EndpointId to, aqua::net::Payload message) override;
  void multicast(aqua::EndpointId from, std::span<const aqua::EndpointId> to,
                 aqua::net::Payload message) override;
  void subscribe_host_state(aqua::net::HostStateFn fn) override {
    inner_.subscribe_host_state(std::move(fn));
  }
  [[nodiscard]] bool host_alive(aqua::HostId host) const override { return inner_.host_alive(host); }
  [[nodiscard]] aqua::HostId endpoint_host(aqua::EndpointId endpoint) const override {
    return inner_.endpoint_host(endpoint);
  }
  [[nodiscard]] bool endpoint_exists(aqua::EndpointId endpoint) const override {
    return inner_.endpoint_exists(endpoint);
  }
  void set_telemetry(aqua::obs::Telemetry* telemetry) override { inner_.set_telemetry(telemetry); }
  [[nodiscard]] std::uint64_t messages_sent() const override { return inner_.messages_sent(); }
  [[nodiscard]] std::uint64_t messages_delivered() const override {
    return inner_.messages_delivered();
  }
  [[nodiscard]] std::uint64_t messages_dropped() const override {
    return inner_.messages_dropped();
  }

 private:
  void record_send(const char* name, std::uint64_t trace_id, std::int64_t start_ns);

  aqua::net::Transport& inner_;
  TransportProbes& probes_;
};

/// Times every select() of the wrapped policy. One instance serves one
/// client handler; the simulated handler selects exactly once per request
/// when probes and crashes are off, so the n-th selection belongs to the
/// client's request n — that is the trace id its span carries.
class TimedPolicy final : public aqua::core::SelectionPolicy {
 public:
  TimedPolicy(aqua::core::PolicyPtr inner, Samples& select_us, SpanLog* log, std::uint32_t run)
      : inner_(std::move(inner)), select_us_(select_us), log_(log), run_(run) {}

  /// Set once the handler exists (before the simulator runs).
  void set_client(aqua::ClientId client) { client_ = client; }
  [[nodiscard]] std::uint64_t selections() const { return selections_; }

  [[nodiscard]] aqua::core::SelectionResult select(
      std::span<const aqua::core::ReplicaObservation> observations,
      const aqua::core::QosSpec& qos, aqua::Duration overhead_delta, aqua::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  aqua::core::PolicyPtr inner_;
  Samples& select_us_;
  SpanLog* log_;
  std::uint32_t run_;
  aqua::ClientId client_{};
  std::uint64_t selections_ = 0;
};

}  // namespace perfbench
