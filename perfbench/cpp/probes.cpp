#include "probes.h"

#include "obs/span.h"
#include "proto/messages.h"

namespace perfbench {

using aqua::EndpointId;
using aqua::net::Payload;

aqua::EndpointId TimedTransport::create_endpoint(aqua::HostId host,
                                                 aqua::net::ReceiveFn on_receive) {
  return inner_.create_endpoint(
      host, [this, fn = std::move(on_receive)](EndpointId from, const Payload& message) {
        // Classify by message type outside the timed region: a client
        // endpoint receives replies, a replica endpoint requests.
        const bool reply = message.get_if<aqua::proto::Reply>() != nullptr;
        const bool request = !reply && message.get_if<aqua::proto::Request>() != nullptr;
        const std::int64_t start = now_ns();
        fn(from, message);
        const std::int64_t end = now_ns();
        if (!reply && !request) return;
        const double us = static_cast<double>(end - start) / 1000.0;
        (reply ? probes_.client_receive_us : probes_.endpoint_receive_us).add(us);
        if (probes_.log != nullptr && message.span().valid()) {
          const std::uint64_t trace = message.span().trace_id;
          probes_.log->record({reply ? "client.receive" : "endpoint.receive", 0, trace,
                               probes_.log->next_id(), trace, start, end});
        }
      });
}

void TimedTransport::record_send(const char* name, std::uint64_t trace_id,
                                 std::int64_t start_ns) {
  const std::int64_t end = now_ns();
  probes_.send_us.add(static_cast<double>(end - start_ns) / 1000.0);
  if (probes_.log != nullptr && trace_id != 0) {
    probes_.log->record({name, 0, trace_id, probes_.log->next_id(), trace_id, start_ns, end});
  }
}

void TimedTransport::unicast(EndpointId from, EndpointId to, Payload message) {
  const std::uint64_t trace = message.span().trace_id;
  const std::int64_t start = now_ns();
  inner_.unicast(from, to, std::move(message));
  record_send("transport.unicast", trace, start);
}

void TimedTransport::multicast(EndpointId from, std::span<const EndpointId> to,
                               Payload message) {
  const std::uint64_t trace = message.span().trace_id;
  const std::int64_t start = now_ns();
  inner_.multicast(from, to, std::move(message));
  record_send("transport.multicast", trace, start);
}

aqua::core::SelectionResult TimedPolicy::select(
    std::span<const aqua::core::ReplicaObservation> observations, const aqua::core::QosSpec& qos,
    aqua::Duration overhead_delta, aqua::Rng& rng) {
  const std::int64_t start = now_ns();
  aqua::core::SelectionResult result = inner_->select(observations, qos, overhead_delta, rng);
  const std::int64_t end = now_ns();
  ++selections_;
  select_us_.add(static_cast<double>(end - start) / 1000.0);
  if (log_ != nullptr) {
    const std::uint64_t trace = aqua::obs::make_trace_id(client_, aqua::RequestId{selections_});
    log_->record({"policy.select", run_, trace, log_->next_id(), trace, start, end});
  }
  return result;
}

}  // namespace perfbench
