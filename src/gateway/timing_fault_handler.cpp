#include "gateway/timing_fault_handler.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/log.h"
#include "obs/telemetry.h"

namespace aqua::gateway {

Duration OverheadModel::selection_cost(std::size_t replicas, std::size_t window) const {
  return selection_cost(replicas, /*cached=*/0, window);
}

Duration OverheadModel::selection_cost(std::size_t convolved, std::size_t cached,
                                       std::size_t window) const {
  const double atoms = static_cast<double>(convolved) * static_cast<double>(window) *
                       static_cast<double>(window);
  const auto convolution_us = static_cast<std::int64_t>(std::llround(atoms * per_atom_ns / 1000.0));
  return base + per_replica * static_cast<std::int64_t>(convolved + cached) +
         per_cached_replica * static_cast<std::int64_t>(cached) + Duration{convolution_us};
}

TimingFaultHandler::TimingFaultHandler(sim::Simulator& simulator, net::Lan& lan,
                                       net::MulticastGroup& group, ClientId client, HostId host,
                                       core::QosSpec qos, Rng rng, HandlerConfig config,
                                       core::PolicyPtr policy)
    : simulator_(simulator),
      lan_(lan),
      group_(group),
      client_(client),
      qos_(qos),
      rng_(std::move(rng)),
      config_(std::move(config)),
      model_cache_(std::make_shared<core::ModelCache>()),
      policy_(policy ? std::move(policy)
                     : core::make_dynamic_policy(config_.selection, config_.model, model_cache_)),
      // Shares the model cache with the default policy; the dispatch model
      // is evaluated only in hedged mode (the hedge-delay quantile).
      lifecycle_(client_, config_.repository, config_.failure_tracker, config_.selection,
                 config_.dispatch, core::ResponseTimeModel{config_.model, model_cache_},
                 config_.telemetry, "gateway", /*keep_history=*/true),
      obs_(config_.telemetry) {
  qos_.validate();
  if (obs_ != nullptr) {
    auto& metrics = obs_->metrics();
    requests_counter_ = &metrics.counter("gateway.requests");
    probes_counter_ = &metrics.counter("gateway.probes");
    redispatches_counter_ = &metrics.counter("gateway.redispatches");
    replicas_evicted_counter_ = &metrics.counter("gateway.replicas_evicted");
    selection_delta_histogram_ = &metrics.histogram("gateway.selection_delta_us");
    // The select.* counters ride on the policy decorator; the cache
    // mirrors its own counters from here on.
    policy_ = core::make_observed_policy(std::move(policy_), obs_);
    model_cache_->set_telemetry(obs_);
  }
  endpoint_ = lan_.create_endpoint(
      host, [this](EndpointId from, const net::Payload& m) { on_receive(from, m); });
  group_.join(endpoint_);
  group_.on_view_change(endpoint_, [this](const net::View& view,
                                          std::span<const EndpointId> departed) {
    on_view_change(view, departed);
  });
  // Ask the replicas already in the group for performance updates; each
  // responds with an Announce that populates the directory.
  group_.broadcast(endpoint_,
                   net::Payload::make(proto::Subscribe{client_, endpoint_}, proto::kSubscribeBytes));
  if (config_.probe_staleness > Duration::zero()) {
    const Duration period = std::max(msec(1), config_.probe_staleness / 2);
    probe_task_.start(simulator_, period, period, [this] { probe_stale_replicas(); });
  }
}

void TimingFaultHandler::probe_stale_replicas() {
  const TimePoint now = simulator_.now();
  const core::InfoRepository& repository = lifecycle_.repository();
  for (const auto& [replica, endpoint] : replica_endpoints_) {
    if (!repository.contains(replica)) continue;
    const core::ReplicaObservation obs = repository.observe(replica);
    if (now - obs.last_update <= config_.probe_staleness) continue;
    // Skip replicas that already have an outstanding probe or request.
    if (outstanding_requests(replica) == 0) send_probe(replica);
  }
}

void TimingFaultHandler::send_probe(ReplicaId replica) {
  if (!replica_endpoints_.contains(replica)) return;
  const RequestId id = request_ids_.next();
  const TimePoint now = simulator_.now();
  const core::Transmission probe = lifecycle_.open_probe(id, now, qos_, replica);
  simulator_.schedule_at(now + qos_.deadline * 10, [this, id] { collect(id); });

  ++probes_sent_;
  if (probes_counter_ != nullptr) probes_counter_->add();
  if (obs_ != nullptr) {
    obs_->record_alert({.kind = obs::AlertKind::kReplicaStale, .at = now, .client = client_,
                        .replica = replica, .observed = 0.0,
                        .threshold = static_cast<double>(count_us(config_.probe_staleness)),
                        .detail = "probe sent"});
  }
  AQUA_LOG_DEBUG << "handler " << client_.value() << ": probing stale replica "
                 << replica.value();
  send(probe);
}

RequestId TimingFaultHandler::invoke(std::int64_t argument, ReplyCallback on_reply,
                                     const std::string& method) {
  AQUA_REQUIRE(on_reply != nullptr, "reply callback must be callable");
  const RequestId id = request_ids_.next();
  const TimePoint t0 = simulator_.now();
  if (requests_counter_ != nullptr) requests_counter_->add();
  lifecycle_.open(id, t0, qos_, method, argument);

  Timers& timers = timers_[id];
  timers.on_reply = std::move(on_reply);
  // §5.4.2: a timing failure if no timely response arrives (or none at
  // all, when every selected replica crashed).
  timers.deadline = simulator_.schedule_at(t0 + qos_.deadline, [this, id] {
    if (lifecycle_.on_deadline(id, simulator_.now())) report_violation();
    retire(id);
  });

  // Final GC: with loss or undetected crashes not every reply arrives.
  simulator_.schedule_at(t0 + qos_.deadline * 10, [this, id] { collect(id); });

  // The interception + marshalling stage elapses before the scheduler
  // runs the selection.
  simulator_.schedule_after(config_.overhead.interception, [this, id] {
    if (lifecycle_.find(id) != nullptr) dispatch(id, /*redispatch=*/false);
  });
  return id;
}

void TimingFaultHandler::dispatch(RequestId id, bool redispatch) {
  const core::RequestLifecycle::Request& request = *lifecycle_.find(id);
  // Observe with the clock so silence (and thus the liveness guess and
  // the adaptive-trim live filter) is populated.
  lifecycle_.repository().observe_all_into(observations_, request.method, simulator_.now());
  const std::vector<core::ReplicaObservation>& observations = observations_;
  if (observations.empty()) {
    // No replicas discovered yet (the Announce handshake is still in
    // flight). handle_announce() re-dispatches as soon as one appears; if
    // none ever does, the deadline timer records the failure.
    AQUA_LOG_DEBUG << "handler " << client_.value() << ": no replicas known for request "
                   << id.value() << "; waiting for membership";
    return;
  }

  // §5.3.3: select with the most recently measured delta, then measure the
  // cost of this execution for the next one.
  const Duration delta_used = overhead_.current();
  const core::ModelCacheStats cache_before = model_cache_->stats();
  const core::SelectionResult selection =
      policy_->select(observations, request.qos, delta_used, rng_);
  AQUA_ASSERT(!selection.selected.empty());

  std::size_t with_data = 0;
  for (const auto& obs : observations) {
    if (obs.has_data()) ++with_data;
  }
  // Charge convolution cost only for the replicas the model re-convolved;
  // a policy that bypasses the cache is charged the uncached estimate.
  std::size_t convolved = with_data;
  std::size_t cached = 0;
  const core::ModelCacheStats& cache_after = model_cache_->stats();
  if (cache_after.hits + cache_after.misses > cache_before.hits + cache_before.misses) {
    cached = static_cast<std::size_t>(
        std::min<std::uint64_t>(cache_after.hits - cache_before.hits, with_data));
    convolved = with_data - cached;
  }
  Duration selection_cost =
      config_.overhead.selection_cost(convolved, cached, lifecycle_.repository().window_size());

  core::PlannedDispatch plan =
      lifecycle_.plan(id, selection, observations, redispatch, simulator_.now());
  // MDS encoding + per-copy marshalling, charged into the same delta the
  // compensation path feeds back (§5.3.3).
  if (plan.code_k > 0) {
    selection_cost += config_.overhead.per_chunk * static_cast<std::int64_t>(plan.copies);
  }
  overhead_.record(config_.overhead.interception + selection_cost);
  if (selection_delta_histogram_ != nullptr) {
    selection_delta_histogram_->record(config_.overhead.interception + selection_cost);
    if (redispatch) redispatches_counter_->add();
  }
  timers_[id].hedge.cancel();  // a redispatch supersedes any armed hedge

  // Selection explainability record: every replica as Algorithm 1 saw
  // it, plus the achieved-vs-requested probability and the cache split.
  if (obs_ != nullptr && obs_->selection_traces_enabled()) {
    obs::SelectionTrace trace;
    trace.client = client_;
    trace.request = id;
    trace.at = simulator_.now();
    trace.redispatch = redispatch;
    trace.deadline = request.qos.deadline;
    trace.requested_probability = request.qos.min_probability;
    trace.overhead_delta = delta_used;
    trace.cold_start = selection.cold_start;
    trace.feasible = selection.feasible;
    trace.fallback_to_all =
        !selection.feasible && !selection.cold_start &&
        config_.selection.infeasible_fallback == core::InfeasibleFallback::kAllReplicas;
    trace.protected_count = selection.protected_count;
    trace.test_probability = selection.test_probability;
    trace.predicted_probability = selection.predicted_probability;
    trace.redundancy = plan.selected.size();
    trace.cache_hits = cache_after.hits - cache_before.hits;
    trace.cache_misses = cache_after.misses - cache_before.misses;
    trace.replicas.reserve(observations.size());
    for (std::size_t i = 0; i < selection.ranked.size(); ++i) {
      const core::RankedReplica& ranked = selection.ranked[i];
      obs::SelectionReplicaTrace row;
      row.replica = ranked.id;
      row.rank = i;
      row.probability = ranked.probability;
      row.has_data = ranked.has_data;
      row.selected = std::find(plan.selected.begin(), plan.selected.end(), ranked.id) !=
                     plan.selected.end();
      row.protected_member = i < selection.protected_count;
      trace.replicas.push_back(row);
    }
    // Dataless replicas never enter the ranking; list the selected ones
    // after it so the dispatched set K is fully accounted for.
    for (ReplicaId id_selected : plan.selected) {
      const bool ranked_member =
          std::any_of(selection.ranked.begin(), selection.ranked.end(),
                      [id_selected](const core::RankedReplica& r) { return r.id == id_selected; });
      if (ranked_member) continue;
      obs::SelectionReplicaTrace row;
      row.replica = id_selected;
      row.rank = trace.replicas.size();
      row.selected = true;
      trace.replicas.push_back(row);
    }
    obs_->record_selection(std::move(trace));
  }

  // The selection computation itself elapses before transmission (t1).
  const TimePoint dispatch_start = redispatch ? simulator_.now() : request.t0;
  simulator_.schedule_after(selection_cost, [this, id, dispatch_start, plan = std::move(plan)] {
    const auto tx = lifecycle_.transmit(id, plan, simulator_.now(), dispatch_start);
    if (!tx) return;
    send(*tx);
    if (plan.hedged && lifecycle_.hedge_armed(id)) {
      // The hedge delay runs from t1: its pmf quantile predicts the
      // primary's response measured from transmission.
      timers_[id].hedge =
          simulator_.schedule_after(plan.hedge_delay, [this, id] { fire_hedge(id); });
    }
  });
}

void TimingFaultHandler::fire_hedge(RequestId id) {
  const auto tx = lifecycle_.release_hedge(id);
  if (!tx) return;
  AQUA_LOG_DEBUG << "handler " << client_.value() << ": hedging request " << id.value() << " to "
                 << tx->targets.size() << " backup replica(s)";
  send(*tx);
}

void TimingFaultHandler::send(const core::Transmission& tx) {
  std::vector<EndpointId> targets;
  targets.reserve(tx.targets.size());
  for (ReplicaId replica : tx.targets) targets.push_back(replica_endpoints_.at(replica));
  if (tx.chunks.empty()) {
    // Uncoded: one multicast payload shared by the whole set — the
    // paper's transmission exactly.
    net::Payload payload = net::Payload::make(tx.request, proto::kRequestBytes);
    if (tx.span.valid()) payload.set_span(tx.span);
    group_.send(endpoint_, targets, std::move(payload));
    return;
  }
  // Coded: each member receives its own chunk-request; only the body's
  // chunk index differs per copy.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    proto::Request chunk_request = tx.request;
    chunk_request.chunk = tx.chunks[i];
    net::Payload payload = net::Payload::make(chunk_request, proto::kRequestBytes);
    if (tx.span.valid()) payload.set_span(tx.span);
    group_.send(endpoint_, std::span<const EndpointId>(&targets[i], 1), std::move(payload));
  }
}

void TimingFaultHandler::report_violation() {
  if (on_violation_) on_violation_(lifecycle_.tracker().timely_fraction());
}

void TimingFaultHandler::retire(RequestId id) {
  if (lifecycle_.finish_if_complete(id)) timers_.erase(id);
}

void TimingFaultHandler::collect(RequestId id) {
  lifecycle_.erase(id);
  timers_.erase(id);
}

void TimingFaultHandler::on_receive(EndpointId, const net::Payload& message) {
  if (const auto* reply = message.get_if<proto::Reply>()) {
    handle_reply(*reply);
    return;
  }
  if (const auto* update = message.get_if<proto::PerfUpdate>()) {
    lifecycle_.on_perf_update(*update, simulator_.now());
    return;
  }
  if (const auto* announce = message.get_if<proto::Announce>()) {
    handle_announce(*announce);
    return;
  }
  // Subscribe broadcasts from sibling clients land here too; ignore them.
}

void TimingFaultHandler::handle_reply(const proto::Reply& reply) {
  const core::ReplyIntake intake = lifecycle_.on_reply(reply, simulator_.now());
  if (intake.completed) {
    // A pointer, not an iterator: the callbacks below may insert timers.
    auto it = timers_.find(reply.request);
    Timers* timers = it == timers_.end() ? nullptr : &it->second;
    if (timers != nullptr) {
      timers->hedge.cancel();
      timers->deadline.cancel();
    }
    if (intake.cancel) {
      std::vector<EndpointId> targets;
      targets.reserve(intake.cancel->targets.size());
      for (ReplicaId replica : intake.cancel->targets) {
        targets.push_back(replica_endpoints_.at(replica));
      }
      group_.send(endpoint_, targets,
                  net::Payload::make(intake.cancel->cancel, proto::kCancelBytes));
    }
    if (intake.violated) report_violation();
    if (timers != nullptr && timers->on_reply) {
      timers->on_reply(ReplyInfo{reply.request, reply.replica, reply.result,
                                 intake.response_time, intake.timely});
    }
  }
  retire(reply.request);
}

void TimingFaultHandler::handle_announce(const proto::Announce& announce) {
  auto [it, inserted] = replica_endpoints_.try_emplace(announce.replica, announce.endpoint);
  if (!inserted && it->second == announce.endpoint) return;
  if (!inserted) {
    // The replica restarted with a new endpoint.
    endpoint_replicas_.erase(it->second);
    it->second = announce.endpoint;
  }
  endpoint_replicas_[announce.endpoint] = announce.replica;
  lifecycle_.repository().add_replica(announce.replica);
  // Make sure the replica pushes its performance updates to us.
  lan_.unicast(endpoint_, announce.endpoint,
               net::Payload::make(proto::Subscribe{client_, endpoint_}, proto::kSubscribeBytes));
  // Requests intercepted before any replica was known are parked until
  // the Announce burst settles, so the cold-start selection sees it all.
  parked_dispatch_.cancel();
  parked_dispatch_ = simulator_.schedule_after(config_.discovery_settle, [this] {
    for (RequestId id : lifecycle_.parked()) {
      const core::RequestLifecycle::Request* request = lifecycle_.find(id);
      if (request != nullptr && !request->dispatched) dispatch(id, /*redispatch=*/false);
    }
  });
}

void TimingFaultHandler::on_view_change(const net::View&, std::span<const EndpointId> departed) {
  std::vector<ReplicaId> dead;
  for (EndpointId endpoint : departed) {
    auto it = endpoint_replicas_.find(endpoint);
    if (it == endpoint_replicas_.end()) continue;  // a client left, not a replica
    dead.push_back(it->second);
    model_cache_->invalidate(it->second);
    replica_endpoints_.erase(it->second);
    endpoint_replicas_.erase(it);
  }
  if (dead.empty()) return;
  if (replicas_evicted_counter_ != nullptr) {
    replicas_evicted_counter_->add(dead.size());
    obs_->annotate(simulator_.now(), "view_change",
                   "client-" + std::to_string(client_.value()) + " evicted " +
                       std::to_string(dead.size()) + " replica(s)");
  }

  const core::Eviction eviction = lifecycle_.evict(dead, simulator_.now());
  for (const core::Transmission& hedge : eviction.hedges) {
    AQUA_LOG_DEBUG << "handler " << client_.value() << ": releasing hedge set of request "
                   << hedge.request.id.value() << " after primary crash";
    send(hedge);
  }
  if (!config_.redispatch_on_view_change) return;
  for (RequestId id : eviction.unsatisfiable) {
    if (lifecycle_.find(id) == nullptr) continue;
    AQUA_LOG_DEBUG << "handler " << client_.value() << ": redispatching request " << id.value()
                   << " after replica crash";
    dispatch(id, /*redispatch=*/true);
  }
}

void TimingFaultHandler::set_qos(core::QosSpec qos) {
  qos.validate();
  qos_ = qos;
  lifecycle_.renegotiate(qos_, simulator_.now());
}

}  // namespace aqua::gateway
