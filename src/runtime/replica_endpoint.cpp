#include "runtime/replica_endpoint.h"

#include "obs/telemetry.h"
#include "proto/messages.h"

namespace aqua::runtime {

ReplicaEndpoint::ReplicaEndpoint(net::Transport& transport, ThreadedReplica& replica,
                                 const EndpointFactory& factory, obs::Telemetry* telemetry)
    : transport_(transport), replica_(replica) {
  if (telemetry != nullptr) {
    obs::MetricsRegistry& metrics = telemetry->metrics();
    requests_counter_ = &metrics.counter("replica_endpoint.requests");
    coded_chunks_counter_ = &metrics.counter("replica_endpoint.coded_chunks");
    rejected_counter_ = &metrics.counter("replica_endpoint.rejected");
    cancels_purged_counter_ = &metrics.counter("replica_endpoint.cancels_purged");
    cancels_ignored_counter_ = &metrics.counter("replica_endpoint.cancels_ignored");
    subscribes_counter_ = &metrics.counter("replica_endpoint.subscribes");
    replies_counter_ = &metrics.counter("replica_endpoint.replies");
    queue_length_gauge_ = &metrics.gauge("replica_endpoint.queue_length");
    if (telemetry->spans_enabled()) span_sink_ = telemetry;
  }
  route_ = std::make_shared<ReplyRoute>();
  route_->endpoint = this;
  endpoint_ = factory(
      [this](EndpointId from, const net::Payload& message) { on_receive(from, message); });
}

ReplicaEndpoint::ReplicaEndpoint(net::Transport& transport, ThreadedReplica& replica,
                                 HostId host, obs::Telemetry* telemetry)
    : ReplicaEndpoint(
          transport, replica,
          [&transport, host](net::ReceiveFn fn) {
            return transport.create_endpoint(host, std::move(fn));
          },
          telemetry) {}

ReplicaEndpoint::~ReplicaEndpoint() {
  shutdown();
  std::lock_guard lock(route_->mutex);  // waits out a reply being sent
  route_->endpoint = nullptr;
}

void ReplicaEndpoint::shutdown() {
  if (!shut_down_.exchange(true)) transport_.destroy_endpoint(endpoint_);
}

void ReplicaEndpoint::on_receive(EndpointId from, const net::Payload& message) {
  if (const auto* request = message.get_if<proto::Request>()) {
    if (requests_counter_ != nullptr) {
      requests_counter_->add();
      // Chunk demand: coded k-of-n dispatches, vs whole-job requests.
      if (request->code_k > 0) coded_chunks_counter_->add();
    }
    const obs::SpanContext request_ctx = message.span();
    // The reply callback runs on the replica's worker thread (threaded
    // transports accept sends from any thread), and goes through route_
    // because the job can outlive this endpoint.
    const bool accepted = replica_.submit(
        *request,
        [route = route_, from, request_ctx](const proto::Reply& reply) {
          std::lock_guard lock(route->mutex);
          if (route->endpoint != nullptr) route->endpoint->send_reply(from, request_ctx, reply);
        },
        request_ctx);
    if (requests_counter_ != nullptr) {
      if (!accepted) rejected_counter_->add();
      queue_length_gauge_->set(static_cast<double>(replica_.queue_length()));
    }
    return;
  }
  if (const auto* cancel = message.get_if<proto::Cancel>()) {
    // Best-effort: purges the queued copy if service has not started;
    // otherwise the reply is already on its way and the client drops it.
    const bool purged = replica_.cancel(cancel->request, cancel->client);
    if (requests_counter_ != nullptr) {
      (purged ? cancels_purged_counter_ : cancels_ignored_counter_)->add();
      queue_length_gauge_->set(static_cast<double>(replica_.queue_length()));
    }
    return;
  }
  if (message.get_if<proto::Subscribe>() != nullptr) {
    if (subscribes_counter_ != nullptr) subscribes_counter_->add();
    transport_.unicast(endpoint_, from,
                       net::Payload::make(proto::Announce{replica_.id(), endpoint_},
                                          proto::kAnnounceBytes));
  }
}

void ReplicaEndpoint::send_reply(EndpointId to, obs::SpanContext request_ctx,
                                 const proto::Reply& reply) {
  net::Payload payload = net::Payload::make(reply, proto::kReplyBytes);
  if (request_ctx.valid()) {
    payload.set_span({.trace_id = request_ctx.trace_id,
                      .parent_span_id = request_ctx.parent_span_id,
                      .leg = obs::SpanKind::kReplyLeg,
                      .replica = reply.replica});
    if (span_sink_ != nullptr) {
      // Zero-duration hand-off marker (see span_sink_ comment).
      const TimePoint at = span_sink_->wall_now();
      span_sink_->record_span({.trace_id = request_ctx.trace_id,
                               .span_id = span_sink_->next_span_id(),
                               .parent_span_id = request_ctx.parent_span_id,
                               .kind = obs::SpanKind::kReplyLeg,
                               .client = obs::trace_client(request_ctx.trace_id),
                               .request = reply.request,
                               .replica = reply.replica,
                               .start = at,
                               .end = at});
    }
  }
  if (replies_counter_ != nullptr) replies_counter_->add();
  transport_.unicast(endpoint_, to, std::move(payload));
}

}  // namespace aqua::runtime
