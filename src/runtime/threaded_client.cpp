#include "runtime/threaded_client.h"

#include <algorithm>
#include <chrono>

#include "common/assert.h"
#include "core/model_cache.h"
#include "obs/telemetry.h"

namespace aqua::runtime {

namespace {

/// Steady-clock instants on the TimePoint axis, so the repository's
/// freshness fields (last_update, silence) are meaningful.
TimePoint mono_now() {
  return TimePoint{} + std::chrono::duration_cast<Duration>(
                           std::chrono::steady_clock::now().time_since_epoch());
}

/// The threaded runtime always guards against stale samples: UDP (and
/// jittered in-process delivery) can reorder replies, and unlike the sim
/// there is no bit-identity contract to preserve.
core::RepositoryConfig with_stale_guard(core::RepositoryConfig config) {
  config.reject_stale_samples = true;
  return config;
}

/// A returned request whose copies never all answer is collected this
/// many deadlines later, like the simulator's GC.
constexpr int kCollectAfterDeadlines = 10;

}  // namespace

ThreadedClient::ThreadedClient(std::vector<ThreadedReplica*> replicas, core::QosSpec qos, Rng rng,
                               ThreadedClientConfig config)
    : qos_(qos),
      rng_(std::move(rng)),
      config_(config),
      model_cache_(std::make_shared<core::ModelCache>()),
      selector_(config.selection, core::ResponseTimeModel{config.model, model_cache_}),
      lifecycle_(config.id, with_stale_guard(config.repository), config.failure_tracker,
                 config.selection, config.dispatch,
                 core::ResponseTimeModel{config.model, model_cache_}, config.telemetry,
                 "threaded", /*keep_history=*/false),
      transport_(config.transport),
      obs_(config.telemetry) {
  qos_.validate();
  AQUA_REQUIRE(replicas.empty() != (transport_ == nullptr),
               "threaded client needs either replicas or a transport to discover them on");
  AQUA_REQUIRE(config_.give_up_deadline_factor >= 1, "give-up factor must be >= 1");
  if (obs_ != nullptr) {
    auto& metrics = obs_->metrics();
    requests_counter_ = &metrics.counter("threaded.requests");
    answered_counter_ = &metrics.counter("threaded.answered");
    cold_starts_counter_ = &metrics.counter("threaded.cold_starts");
    selection_overhead_histogram_ = &metrics.histogram("threaded.selection_overhead_us");
  }
  if (transport_ == nullptr) {
    own_transport_ = std::make_unique<InProcessTransport>(config_.net, rng_.fork("net"));
    own_transport_->set_telemetry(obs_);
    transport_ = own_transport_.get();
  }
  endpoint_ = transport_->create_endpoint(
      config_.host,
      [this](EndpointId from, const net::Payload& message) { on_receive(from, message); });
  // The transport's subscriber list cannot shrink, so the callback
  // reaches this client through a relay the destructor severs.
  evict_relay_ = std::make_shared<HostEvictRelay>();
  evict_relay_->client = this;
  transport_->subscribe_host_state([relay = evict_relay_](HostId host, bool alive) {
    if (alive) return;
    std::lock_guard guard(relay->mutex);
    if (relay->client != nullptr) relay->client->evict_host(host);
  });
  for (ThreadedReplica* replica : replicas) {
    // One host per replica, as ThreadedSystem places them.
    own_endpoints_.push_back(std::make_unique<ReplicaEndpoint>(
        *own_transport_, *replica, HostId{replica->id().value()}));
    add_peer_replica(replica->id(), own_endpoints_.back()->endpoint());
  }
}

ThreadedClient::~ThreadedClient() { shutdown(); }

void ThreadedClient::shutdown() {
  {
    std::lock_guard guard(evict_relay_->mutex);
    evict_relay_->client = nullptr;
  }
  // Waits out deliveries into the client (so must not hold mutex_).
  if (!endpoint_destroyed_.exchange(true)) transport_->destroy_endpoint(endpoint_);
  for (auto& endpoint : own_endpoints_) endpoint->shutdown();
}

TimePoint ThreadedClient::now() const { return obs_ != nullptr ? obs_->wall_now() : mono_now(); }

void ThreadedClient::flush(std::vector<Send>& sends) {
  for (Send& send : sends) transport_->multicast(endpoint_, send.to, std::move(send.payload));
  sends.clear();
}

void ThreadedClient::add_peer_replica(ReplicaId replica, EndpointId endpoint) {
  std::lock_guard lock(mutex_);
  peer_replicas_[replica] = endpoint;
  if (!lifecycle_.repository().contains(replica)) lifecycle_.repository().add_replica(replica);
}

void ThreadedClient::subscribe_to(EndpointId peer) {
  transport_->unicast(endpoint_, peer,
                      net::Payload::make(proto::Subscribe{config_.id, endpoint_},
                                         proto::kSubscribeBytes));
}

void ThreadedClient::on_receive(EndpointId from, const net::Payload& message) {
  if (const auto* reply = message.get_if<proto::Reply>()) {
    intake(*reply);
    return;
  }
  if (const auto* announce = message.get_if<proto::Announce>()) {
    // The announced endpoint id is meaningless outside the replica's own
    // process; the sender handle is how WE reach it.
    add_peer_replica(announce->replica, from);
    return;
  }
  if (const auto* update = message.get_if<proto::PerfUpdate>()) {
    std::lock_guard lock(mutex_);
    lifecycle_.on_perf_update(*update, now());
  }
}

void ThreadedClient::intake(const proto::Reply& reply) {
  std::vector<Send> sends;
  bool completed = false;
  {
    std::lock_guard lock(mutex_);
    const core::ReplyIntake result = lifecycle_.on_reply(reply, now());
    completed = result.completed;
    if (result.cancel) stage(*result.cancel, sends);
    // A request invoke() is still waiting on is let go by invoke().
    if (std::find(waiting_.begin(), waiting_.end(), reply.request) == waiting_.end()) {
      lifecycle_.finish_if_complete(reply.request);
    }
  }
  flush(sends);
  if (completed) decided_.notify_all();
}

void ThreadedClient::evict_host(HostId host) {
  std::vector<Send> sends;
  {
    std::lock_guard lock(mutex_);
    std::vector<ReplicaId> dead;
    for (const auto& [replica, endpoint] : peer_replicas_) {
      if (transport_->endpoint_exists(endpoint) && transport_->endpoint_host(endpoint) == host) {
        dead.push_back(replica);
      }
    }
    evict(dead, sends);
  }
  flush(sends);
}

void ThreadedClient::remove_replica(ReplicaId id) {
  std::vector<Send> sends;
  {
    std::lock_guard lock(mutex_);
    evict(std::span<const ReplicaId>(&id, 1), sends);
  }
  flush(sends);
}

void ThreadedClient::evict(std::span<const ReplicaId> dead, std::vector<Send>& sends) {
  if (dead.empty()) return;
  for (ReplicaId replica : dead) {
    model_cache_->invalidate(replica);
    peer_replicas_.erase(replica);
  }
  const core::Eviction eviction = lifecycle_.evict(dead, now());
  for (const core::Transmission& hedge : eviction.hedges) stage(hedge, sends);
  for (RequestId id : eviction.unsatisfiable) (void)dispatch(id, /*redispatch=*/true, sends);
}

Duration ThreadedClient::dispatch(RequestId id, bool redispatch, std::vector<Send>& sends) {
  const core::RequestLifecycle::Request& request = *lifecycle_.find(id);
  const TimePoint start = now();
  const auto observations = lifecycle_.repository().observe_all(request.method, start);
  if (observations.empty()) return Duration::zero();  // nothing known yet: give-up decides
  // delta measured from the real wall clock (§5.3.3); rng_ feeds only the
  // load score's two-choice spread.
  const auto select_start = std::chrono::steady_clock::now();
  const core::SelectionResult selection =
      selector_.select(observations, request.qos, overhead_.current(), &rng_);
  const auto selection_time =
      std::chrono::duration_cast<Duration>(std::chrono::steady_clock::now() - select_start);
  overhead_.record(selection_time);
  const core::PlannedDispatch plan =
      lifecycle_.plan(id, selection, observations, redispatch, now());
  // t1 is now: the wave leaves as soon as the lock is released.
  if (auto tx = lifecycle_.transmit(id, plan, now(), redispatch ? start : request.t0)) {
    stage(*tx, sends);
  }
  return selection_time;
}

void ThreadedClient::stage(const core::Transmission& tx, std::vector<Send>& sends) {
  auto payload_of = [&tx](const proto::Request& request) {
    net::Payload payload = net::Payload::make(request, proto::kRequestBytes);
    if (tx.span.valid()) payload.set_span(tx.span);
    return payload;
  };
  if (tx.chunks.empty()) {  // an uncoded wave: one multicast
    stage(tx.targets, payload_of(tx.request), sends);
    return;
  }
  for (std::size_t i = 0; i < tx.targets.size(); ++i) {
    proto::Request copy = tx.request;
    copy.chunk = tx.chunks[i];
    stage(std::span<const ReplicaId>(&tx.targets[i], 1), payload_of(copy), sends);
  }
}

void ThreadedClient::stage(const core::Cancellation& cancellation, std::vector<Send>& sends) {
  stage(cancellation.targets, net::Payload::make(cancellation.cancel, proto::kCancelBytes),
        sends);
}

void ThreadedClient::stage(std::span<const ReplicaId> targets, net::Payload payload,
                           std::vector<Send>& sends) {
  Send send{{}, std::move(payload)};
  for (ReplicaId replica : targets) {
    if (auto it = peer_replicas_.find(replica); it != peer_replicas_.end()) {
      send.to.push_back(it->second);
    }
  }
  if (!send.to.empty()) sends.push_back(std::move(send));
}

void ThreadedClient::collect_garbage(TimePoint now) {
  while (!garbage_.empty() && garbage_.front().first <= now) {
    lifecycle_.erase(garbage_.front().second);
    garbage_.pop_front();
  }
}

ThreadedClient::Outcome ThreadedClient::invoke(std::int64_t argument) {
  const TimePoint t0 = now();
  Outcome outcome;
  std::vector<Send> sends;
  std::unique_lock lock(mutex_);
  collect_garbage(t0);
  const core::QosSpec qos = qos_;
  const RequestId id{next_request_++};
  lifecycle_.open(id, t0, qos, core::kDefaultMethod, argument);
  waiting_.push_back(id);
  outcome.selection_overhead = dispatch(id, /*redispatch=*/false, sends);
  lock.unlock();
  flush(sends);
  lock.lock();

  // Wait for the completing reply. On the way, record the timing failure
  // at the deadline and release a held hedge set when its timer (t1 +
  // hedge delay) expires first. The give-up bound also covers the coded
  // stall path — k−1 chunks then silence returns unanswered.
  const TimePoint deadline = t0 + qos.deadline;
  const TimePoint give_up = t0 + qos.deadline * config_.give_up_deadline_factor;
  for (;;) {
    const core::RequestLifecycle::Request& request = *lifecycle_.find(id);
    if (request.delivered) break;
    const TimePoint at = now();
    if (!request.outcome_recorded && at >= deadline) {
      (void)lifecycle_.on_deadline(id, at);
      continue;
    }
    const bool hedge_armed = lifecycle_.hedge_armed(id);
    const TimePoint hedge_at = request.t1 + request.hedge_delay;
    if (hedge_armed && at >= hedge_at) {
      if (auto tx = lifecycle_.release_hedge(id)) stage(*tx, sends);
      lock.unlock();
      flush(sends);
      lock.lock();
      continue;
    }
    if (at >= give_up) break;
    TimePoint wake = give_up;
    if (!request.outcome_recorded) wake = std::min(wake, deadline);
    if (hedge_armed) wake = std::min(wake, hedge_at);
    decided_.wait_for(lock, wake - at);
  }

  const core::RequestLifecycle::Request& request = *lifecycle_.find(id);
  const core::RequestRecord& record = lifecycle_.record(request);
  outcome.answered = request.delivered;
  outcome.timely = record.timely;
  outcome.response_time = record.response_time.value_or(now() - t0);
  outcome.redundancy = record.redundancy;
  outcome.cold_start = record.cold_start;
  outcome.first_replica = request.first_replica;
  outcome.result = request.result;
  outcome.hedged = record.hedged;
  outcome.hedge_fired = record.hedge_fired;
  outcome.cancels_sent = record.cancels_sent;
  outcome.code_k = record.code_k;
  outcome.chunks_received = request.collector.distinct();
  std::erase(waiting_, id);
  if (!lifecycle_.finish_if_complete(id)) {
    garbage_.emplace_back(now() + qos.deadline * kCollectAfterDeadlines, id);
  }
  lock.unlock();

  if (requests_counter_ != nullptr) {
    requests_counter_->add();
    if (outcome.answered) answered_counter_->add();
    if (outcome.cold_start) cold_starts_counter_->add();
    selection_overhead_histogram_->record(outcome.selection_overhead);
  }
  return outcome;
}

void ThreadedClient::set_qos(core::QosSpec qos) {
  qos.validate();
  std::lock_guard lock(mutex_);
  qos_ = qos;
  lifecycle_.renegotiate(qos_, now());
}

double ThreadedClient::timely_fraction() const {
  std::lock_guard lock(mutex_);
  return lifecycle_.tracker().timely_fraction();
}

bool ThreadedClient::qos_violated() const {
  std::lock_guard lock(mutex_);
  return lifecycle_.tracker().violates(qos_.min_probability);
}

std::size_t ThreadedClient::known_replicas() const {
  std::lock_guard lock(mutex_);
  return lifecycle_.repository().replica_count();
}

}  // namespace aqua::runtime
