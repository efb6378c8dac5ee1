#include "replay.h"

#include <cstdint>
#include <functional>
#include <string>

#include "core/info_repository.h"
#include "core/qos.h"
#include "core/response_time_model.h"
#include "net/wire.h"
#include "obs/span.h"
#include "proto/messages.h"

namespace perfbench {

using aqua::Duration;

namespace {

/// Mean microseconds per call of `op`: five batches of at least 20 ms (and
/// at least 16 calls) each; the median batch mean is reported so one
/// preempted batch cannot move it.
double time_per_call(const std::function<void()>& op) {
  std::vector<double> batch_means;
  for (int batch = 0; batch < 5; ++batch) {
    std::size_t calls = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
      for (int i = 0; i < 16; ++i) op();
      calls += 16;
      elapsed = seconds_since(start);
    } while (elapsed < 0.02);
    batch_means.push_back(elapsed * 1e6 / static_cast<double>(calls));
  }
  return median(std::move(batch_means));
}

Duration pick(const std::vector<Duration>& pool, std::size_t i) {
  return pool.empty() ? Duration::zero() : pool[i % pool.size()];
}

}  // namespace

void replay_core(const ReplayShape& shape, Result& result) {
  aqua::core::RepositoryConfig config;
  config.window_size = shape.window;
  aqua::core::InfoRepository repository(config);
  aqua::TimePoint now{};
  std::size_t next = 0;
  std::uint64_t seq = 0;
  auto record_one = [&] {
    const aqua::ReplicaId replica{next % shape.replicas + 1};
    now += aqua::usec(50);
    repository.record_perf(replica,
                           aqua::core::PerfSample{pick(shape.service, next), pick(shape.queuing, next),
                                                  0, ++seq},
                           now);
    ++next;
  };
  for (std::size_t r = 1; r <= shape.replicas; ++r) {
    repository.add_replica(aqua::ReplicaId{r});
    repository.record_gateway_delay(aqua::ReplicaId{r}, aqua::usec(100), now);
  }
  for (std::size_t i = 0; i < shape.replicas * shape.window; ++i) record_one();

  result.add("core.record_perf_us", time_per_call(record_one), "us");

  std::size_t replicas_seen = 0;
  result.add("core.observe_all_us", time_per_call([&] {
               replicas_seen += repository.observe_all(aqua::core::kDefaultMethod, now).size();
             }),
             "us");

  // The uncached model: every call convolves the full windows, which is
  // what a selection pays for each replica whose window changed.
  const aqua::core::ResponseTimeModel model{aqua::core::ModelConfig{}};
  const auto observations = repository.observe_all(aqua::core::kDefaultMethod, now);
  std::size_t which = 0;
  std::size_t atoms = 0;
  result.add("core.response_pmf_us", time_per_call([&] {
               atoms += model.response_pmf(observations[which++ % observations.size()]).support_size();
             }),
             "us");
  if (replicas_seen == 0 || atoms == 0) result.fail("core replay produced empty observations");
}

void replay_wire(const ReplayShape& shape, Result& result) {
  aqua::proto::Request request;
  request.id = aqua::RequestId{123456};
  request.client = aqua::ClientId{1};
  request.argument = 0x5eed5eed5eedLL;
  aqua::net::Payload request_payload =
      aqua::net::Payload::make(request, aqua::proto::kRequestBytes);
  request_payload.set_span({.trace_id = aqua::obs::make_trace_id(request.client, request.id),
                            .parent_span_id = 7,
                            .leg = aqua::obs::SpanKind::kRequestLeg,
                            .replica = {}});

  aqua::proto::Reply reply;
  reply.request = request.id;
  reply.replica = aqua::ReplicaId{shape.replicas};
  reply.result = request.argument;
  reply.perf.service_time = pick(shape.service, 0);
  reply.perf.queuing_delay = pick(shape.queuing, 0);
  reply.perf.queue_length = 1;
  reply.perf.sample_seq = 42;
  aqua::net::Payload reply_payload = aqua::net::Payload::make(reply, aqua::proto::kReplyBytes);
  reply_payload.set_span({.trace_id = request_payload.span().trace_id,
                          .parent_span_id = 7,
                          .leg = aqua::obs::SpanKind::kReplyLeg,
                          .replica = reply.replica});

  std::vector<std::uint8_t> request_bytes;
  std::vector<std::uint8_t> reply_bytes;
  if (!aqua::net::encode_payload(request_payload, request_bytes) ||
      !aqua::net::encode_payload(reply_payload, reply_bytes)) {
    result.fail("wire replay: encode_payload refused a Request/Reply");
    return;
  }
  const auto request_back = aqua::net::decode_payload(request_bytes);
  const auto reply_back = aqua::net::decode_payload(reply_bytes);
  const auto* r1 = request_back ? request_back->get_if<aqua::proto::Request>() : nullptr;
  const auto* r2 = reply_back ? reply_back->get_if<aqua::proto::Reply>() : nullptr;
  if (r1 == nullptr || r1->argument != request.argument || r1->id != request.id ||
      r2 == nullptr || r2->result != reply.result || r2->perf.service_time != reply.perf.service_time ||
      r2->perf.queuing_delay != reply.perf.queuing_delay ||
      reply_back->span().trace_id != reply_payload.span().trace_id) {
    result.fail("wire replay: Request/Reply did not survive encode/decode");
    return;
  }

  std::vector<std::uint8_t> scratch;
  bool flip = false;
  result.add("net.encode_us", time_per_call([&] {
               aqua::net::encode_payload(flip ? reply_payload : request_payload, scratch);
               flip = !flip;
             }),
             "us");
  std::size_t decoded = 0;
  result.add("net.decode_us", time_per_call([&] {
               decoded += aqua::net::decode_payload(flip ? reply_bytes : request_bytes)
                              .has_value() ? 1 : 0;
               flip = !flip;
             }),
             "us");
  if (decoded == 0) result.fail("wire replay: decode_payload rejected every buffer");
}

}  // namespace perfbench
