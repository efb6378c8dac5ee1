// Server-gateway glue: a transport endpoint in front of a ThreadedReplica.
//
// The endpoint receives proto::Request messages, submits them to the
// replica's worker thread, and unicasts the proto::Reply (with
// piggybacked performance data) back to the sender once serviced. A
// proto::Subscribe is answered with proto::Announce{replica, endpoint},
// the discovery handshake a remote client gateway uses to learn which
// replica lives behind an address it was pointed at. A crashed replica
// simply stops answering — over UDP the client's retransmit budget then
// reports the host dead, the same liveness edge the sim Lan raises.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "net/transport.h"
#include "runtime/threaded_replica.h"

namespace aqua::obs {
class Gauge;
}  // namespace aqua::obs

namespace aqua::runtime {

class ReplicaEndpoint {
 public:
  /// Bind the endpoint through `factory` — the hook that lets a process
  /// bind a fixed UDP port (UdpTransport::create_endpoint_on) instead of
  /// the Transport-interface default. The factory receives the receive
  /// callback and must return the endpoint it created on `transport`.
  using EndpointFactory = std::function<EndpointId(net::ReceiveFn)>;

  /// `transport` and `replica` must outlive the endpoint. `telemetry`
  /// (non-owning, may be null, must outlive the endpoint) mirrors the
  /// server-side message flow into replica_endpoint.* metrics: request /
  /// coded-chunk / subscribe intake, cancel fate (purged vs ignored —
  /// the §cancel-on-first-reply waste signal), submissions rejected by a
  /// crashed replica, and a queue-length gauge sampled on every message.
  ReplicaEndpoint(net::Transport& transport, ThreadedReplica& replica,
                  const EndpointFactory& factory, obs::Telemetry* telemetry = nullptr);

  /// Convenience: bind via transport.create_endpoint on `host`.
  ReplicaEndpoint(net::Transport& transport, ThreadedReplica& replica, HostId host,
                  obs::Telemetry* telemetry = nullptr);

  /// Also severs the reply path of every job still queued at the
  /// replica: those replies are dropped, so the replica may outlive the
  /// endpoint.
  ~ReplicaEndpoint();

  ReplicaEndpoint(const ReplicaEndpoint&) = delete;
  ReplicaEndpoint& operator=(const ReplicaEndpoint&) = delete;

  /// Stop intake: destroy the transport endpoint, which waits out the
  /// deliveries in progress — no on_receive (hence no replica submit)
  /// after this. A reply still in flight on the replica's worker
  /// degrades to a counted transport drop. Idempotent; the destructor
  /// calls it.
  void shutdown();

  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }
  [[nodiscard]] ThreadedReplica& replica() { return replica_; }

 private:
  /// The reply path of submitted jobs. A job can outlive this endpoint
  /// (the replica is owned elsewhere), so its reply callback reaches the
  /// endpoint through this block, which the destructor severs.
  struct ReplyRoute {
    std::mutex mutex;
    ReplicaEndpoint* endpoint = nullptr;
  };

  void on_receive(EndpointId from, const net::Payload& message);
  void send_reply(EndpointId to, obs::SpanContext request_ctx, const proto::Reply& reply);

  net::Transport& transport_;
  ThreadedReplica& replica_;
  EndpointId endpoint_{};
  std::atomic<bool> shut_down_{false};
  std::shared_ptr<ReplyRoute> route_;

  /// Null unless telemetry is attached (one-branch discipline).
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* coded_chunks_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* cancels_purged_counter_ = nullptr;
  obs::Counter* cancels_ignored_counter_ = nullptr;
  obs::Counter* subscribes_counter_ = nullptr;
  obs::Counter* replies_counter_ = nullptr;
  obs::Gauge* queue_length_gauge_ = nullptr;
  /// Non-null when telemetry is attached AND spans are enabled: the
  /// endpoint then records a zero-duration kReplyLeg marker at
  /// reply-send time. The replica process can only attest the hand-off
  /// to the transport, not wire arrival; the marker still (a) separates
  /// "serviced but reply never sent" from wire loss and (b) anchors the
  /// return leg for fleet stitching (obs/fleet.h).
  obs::Telemetry* span_sink_ = nullptr;
};

}  // namespace aqua::runtime
