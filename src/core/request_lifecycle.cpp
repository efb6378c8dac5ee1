#include "core/request_lifecycle.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/telemetry.h"

namespace aqua::core {

RequestLifecycle::RequestLifecycle(ClientId client, const RepositoryConfig& repository,
                                   const FailureTrackerConfig& failure_tracker,
                                   const SelectionConfig& selection,
                                   const DispatchConfig& dispatch,
                                   ResponseTimeModel dispatch_model, obs::Telemetry* telemetry,
                                   const std::string& metric_prefix, bool keep_history)
    : client_(client),
      selection_(selection),
      dispatch_(dispatch),
      dispatch_model_(std::move(dispatch_model)),
      repository_(repository),
      tracker_(failure_tracker),
      keep_history_(keep_history),
      obs_(telemetry) {
  if (obs_ == nullptr) return;
  auto& metrics = obs_->metrics();
  replies_counter_ = &metrics.counter(metric_prefix + ".replies");
  timely_counter_ = &metrics.counter(metric_prefix + ".timely");
  timing_failures_counter_ = &metrics.counter(metric_prefix + ".timing_failures");
  td_clamped_counter_ = &metrics.counter(metric_prefix + ".td_clamped");
  hedges_counter_ = &metrics.counter(metric_prefix + ".hedges_fired");
  cancels_counter_ = &metrics.counter(metric_prefix + ".cancels");
  qos_violations_counter_ = &metrics.counter(metric_prefix + ".qos_violations");
  response_time_histogram_ = &metrics.histogram(metric_prefix + ".response_time_us");
  rejected_negative_service_ = &metrics.counter("wire.rejected.negative_service_time");
  rejected_negative_queuing_ = &metrics.counter("wire.rejected.negative_queuing_delay");
  rejected_negative_queue_length_ = &metrics.counter("wire.rejected.negative_queue_length");
  rejected_perf_overflow_ = &metrics.counter("wire.rejected.perf_overflow");
  repository_.set_telemetry(obs_);
  if (obs_->spans_enabled()) span_sink_ = obs_;
}

const RequestRecord& RequestLifecycle::record(const Request& request) const {
  return keep_history_ ? history_[request.record_index] : request.record;
}

const RequestLifecycle::Request* RequestLifecycle::find(RequestId id) const {
  auto it = requests_.find(id);
  return it == requests_.end() ? nullptr : &it->second;
}

std::size_t RequestLifecycle::outstanding(ReplicaId replica) const {
  auto it = outstanding_.find(replica);
  return it == outstanding_.end() ? 0 : it->second;
}

std::vector<RequestId> RequestLifecycle::parked() const {
  std::vector<RequestId> parked;
  for (const auto& [id, request] : requests_) {
    if (!request.dispatched && !request.delivered) parked.push_back(id);
  }
  return parked;
}

std::uint64_t RequestLifecycle::root_span(Request& request) {
  if (request.root_span == 0) request.root_span = span_sink_->next_span_id();
  return request.root_span;
}

void RequestLifecycle::span(const Request& request, std::uint64_t id, std::uint64_t parent,
                            obs::SpanKind kind, ReplicaId replica, TimePoint start, TimePoint end,
                            bool ok) {
  span_sink_->record_span({.trace_id = request.trace_id, .span_id = id, .parent_span_id = parent,
                           .kind = kind, .client = client_, .request = record(request).request,
                           .replica = replica, .start = start, .end = end, .ok = ok});
}

void RequestLifecycle::alert(obs::AlertKind kind, TimePoint now, ReplicaId replica,
                             double observed, double threshold, std::string detail) {
  if (obs_ == nullptr) return;
  obs_->record_alert({.kind = kind, .at = now, .client = client_, .replica = replica,
                      .observed = observed, .threshold = threshold, .detail = std::move(detail)});
}

proto::Request RequestLifecycle::wire_request(RequestId id, const Request& request) const {
  proto::Request wire{id, client_, request.method, request.argument};
  if (request.code_k > 0) {
    wire.code_k = request.code_k;
    wire.code_id = request.collector.code_id();
  }
  return wire;
}

void RequestLifecycle::open(RequestId id, TimePoint t0, const QosSpec& qos, std::string method,
                            std::int64_t argument) {
  RequestRecord record;
  record.request = id;
  record.intercepted_at = t0;
  record.qos = qos;

  Request request;
  request.t0 = t0;
  request.qos = qos;
  request.method = std::move(method);
  request.argument = argument;
  request.trace_id = obs::make_trace_id(client_, id);
  if (keep_history_) {
    history_.push_back(std::move(record));
    request.record_index = history_.size() - 1;
  } else {
    request.record = std::move(record);
  }
  const bool inserted = requests_.emplace(id, std::move(request)).second;
  AQUA_ASSERT(inserted);
}

Transmission RequestLifecycle::open_probe(RequestId id, TimePoint now, const QosSpec& qos,
                                          ReplicaId replica) {
  open(id, now, qos, kDefaultMethod, 0);
  Request& request = requests_.at(id);
  request.t1 = now;
  request.is_probe = true;
  request.dispatched = true;
  RequestRecord& record = record_of(request);
  record.transmitted_at = now;
  record.probe = true;
  record.redundancy = 1;
  set_awaiting(request, {replica});

  Transmission tx{.request = wire_request(id, request), .targets = {replica}, .chunks = {},
                  .span = {}};
  if (span_sink_ != nullptr) {
    tx.span = {.trace_id = request.trace_id,
               .parent_span_id = root_span(request),
               .leg = obs::SpanKind::kRequestLeg,
               .replica = {}};
  }
  return tx;
}

PlannedDispatch RequestLifecycle::plan(RequestId id, const SelectionResult& selection,
                                       std::span<const ReplicaObservation> observations,
                                       bool redispatch, TimePoint now) {
  Request& request = requests_.at(id);
  request.dispatched = true;
  PlannedDispatch out;

  // Repository bootstrap: replicas with no history yet ride along on
  // every request (whatever the policy chose) so their windows fill — the
  // gateway-level analogue of the paper's proposed active probes (§8).
  out.selected = selection.selected;
  if (selection_.include_dataless && !selection.cold_start) {
    for (const auto& obs : observations) {
      if (!obs.has_data() &&
          std::find(out.selected.begin(), out.selected.end(), obs.id) == out.selected.end()) {
        out.selected.push_back(obs.id);
      }
    }
  }

  // The default config takes the identity branch: no model evaluation
  // that could disturb the paper-policy path (fig4/fig5 stay identical).
  DispatchPlan plan;
  if (dispatch_.is_default()) {
    plan.primary = out.selected;
  } else {
    SelectionResult merged = selection;
    merged.selected = out.selected;
    plan = plan_dispatch(dispatch_, merged, observations, request.qos, dispatch_model_);
  }

  // Arm the completion predicate once, at the first non-default plan: a
  // redispatch keeps the spec and the chunks collected (rateless MDS —
  // fresh copies carry new indices). Coded dispatches tag their
  // generation with the request id; uncoded ones keep the wire default 0.
  if (!plan.completion.is_default() && !request.collector.armed()) {
    request.collector.arm(plan.completion, plan.coded ? id.value() : 0);
    request.code_k = plan.code_k;
  }
  out.code_k = request.code_k;
  out.copies = plan.primary.size() + plan.hedge.size();

  request.hedge_set = plan.hedge;
  request.hedge_delay = plan.hedge_delay;
  set_awaiting(request, plan.primary);
  RequestRecord& record = record_of(request);
  record.redundancy = out.copies;
  record.hedged = plan.hedged;
  record.code_k = request.code_k;
  record.cold_start = selection.cold_start;
  record.feasible = selection.feasible;
  record.predicted_probability = selection.predicted_probability;
  record.redispatched = redispatch;

  if (obs_ != nullptr && !selection.feasible && !selection.cold_start && !request.is_probe) {
    alert(obs::AlertKind::kInfeasibleSelection, now, {}, selection.predicted_probability,
          request.qos.min_probability,
          "fallback redundancy " + std::to_string(out.selected.size()));
  }

  if (request.code_k > 0) {
    for (std::size_t i = 0; i < plan.primary.size(); ++i) {
      out.chunks.push_back(request.next_chunk++);
    }
  }
  out.primary = std::move(plan.primary);
  out.hedged = plan.hedged;
  out.hedge_delay = plan.hedge_delay;
  return out;
}

std::optional<Transmission> RequestLifecycle::transmit(RequestId id, const PlannedDispatch& plan,
                                                       TimePoint t1, TimePoint dispatch_start) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return std::nullopt;
  Request& request = it->second;
  Transmission tx;
  for (std::size_t i = 0; i < plan.primary.size(); ++i) {
    if (!repository_.contains(plan.primary[i])) continue;  // left the view
    tx.targets.push_back(plan.primary[i]);
    if (!plan.chunks.empty()) tx.chunks.push_back(plan.chunks[i]);
  }
  request.t1 = t1;
  record_of(request).transmitted_at = t1;
  tx.request = wire_request(id, request);
  if (span_sink_ != nullptr) {
    // The dispatch span covers interception + selection for a first
    // dispatch (t0 -> t1) and the re-selection alone for a redispatch.
    const std::uint64_t parent = root_span(request);
    const std::uint64_t dispatch_span = span_sink_->next_span_id();
    span(request, dispatch_span, parent, obs::SpanKind::kDispatch, {}, dispatch_start, t1);
    tx.span = {.trace_id = request.trace_id,
               .parent_span_id = dispatch_span,
               .leg = obs::SpanKind::kRequestLeg,
               .replica = {}};
  }
  return tx;
}

bool RequestLifecycle::hedge_armed(RequestId id) const {
  const Request* request = find(id);
  return request != nullptr && !request->delivered && !request->hedge_set.empty();
}

std::optional<Transmission> RequestLifecycle::release_hedge(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return std::nullopt;
  Request& request = it->second;
  if (request.delivered || request.hedge_set.empty()) return std::nullopt;

  std::vector<ReplicaId> hedge = std::move(request.hedge_set);
  request.hedge_set.clear();
  Transmission tx;
  for (ReplicaId replica : hedge) {
    if (repository_.contains(replica)) tx.targets.push_back(replica);
  }
  if (tx.targets.empty()) return std::nullopt;

  add_awaiting(request, hedge);
  ++hedges_fired_;
  record_of(request).hedge_fired = true;
  if (hedges_counter_ != nullptr) hedges_counter_->add();
  tx.request = wire_request(id, request);
  if (span_sink_ != nullptr) {
    tx.span = {.trace_id = request.trace_id,
               .parent_span_id = root_span(request),
               .leg = obs::SpanKind::kRequestLeg,
               .replica = {}};
  }
  if (request.code_k > 0) {
    for (std::size_t i = 0; i < tx.targets.size(); ++i) tx.chunks.push_back(request.next_chunk++);
  }
  return tx;
}

bool RequestLifecycle::admissible(const proto::PerfData& perf) {
  obs::Counter* rejected = nullptr;
  std::int64_t perf_us = 0;
  if (perf.service_time < Duration::zero()) {
    rejected = rejected_negative_service_;
  } else if (perf.queuing_delay < Duration::zero()) {
    rejected = rejected_negative_queuing_;
  } else if (perf.queue_length < 0) {
    rejected = rejected_negative_queue_length_;
  } else if (__builtin_add_overflow(perf.service_time.count(), perf.queuing_delay.count(),
                                    &perf_us)) {
    // t_s + t_q is the t_d formula's subtrahend.
    rejected = rejected_perf_overflow_;
  } else {
    return true;
  }
  // Dropped before the repository's preconditions could throw on a
  // transport thread.
  if (rejected != nullptr) rejected->add();
  return false;
}

ReplyIntake RequestLifecycle::on_reply(const proto::Reply& reply, TimePoint t4) {
  ReplyIntake intake;
  if (replies_counter_ != nullptr) replies_counter_->add();
  if (!admissible(reply.perf)) return intake;
  const PerfSample sample{reply.perf.service_time, reply.perf.queuing_delay,
                          reply.perf.queue_length, reply.perf.sample_seq};
  // Every reply, first or redundant, refreshes the repository (§5.4.1).
  const bool known = repository_.contains(reply.replica);
  if (known) repository_.record_perf(reply.replica, sample, t4, reply.method);

  auto it = requests_.find(reply.request);
  if (it == requests_.end()) return intake;  // very late reply; the request was collected
  Request& request = it->second;

  // t_d = t4 - t1 - t_q - t_s for every reply, from transmission: the
  // selection time is already charged through F(t - delta). A negative
  // raw value means the clock bases disagree (or a redispatch reset t1
  // after this copy left): clamped, and counted so it stays visible.
  // t_q + t_s is in range (admissible); a difference past Duration's
  // range can only be a hugely negative one, clamped like the rest.
  std::int64_t td_us = 0;
  const Duration td_raw =
      __builtin_sub_overflow((t4 - request.t1).count(),
                             (reply.perf.queuing_delay + reply.perf.service_time).count(), &td_us)
          ? Duration::min()
          : Duration{td_us};
  if (td_raw < Duration::zero()) {
    ++td_clamped_;
    if (td_clamped_counter_ != nullptr) td_clamped_counter_->add();
  }
  const Duration td = std::max(Duration::zero(), td_raw);
  if (known) repository_.record_gateway_delay(reply.replica, td, t4, reply.perf.sample_seq);

  remove_awaiting(request, reply.replica);

  // The completion predicate decides delivery: reply #1 for first-of-n,
  // the k-th distinct chunk for k-of-n, the k-th replica for quorum.
  intake.completed = request.collector.record(reply.replica, reply.chunk, reply.code_id);
  RequestRecord& record = record_of(request);
  if (request.collector.armed()) record.chunks_received = request.collector.distinct();
  if (!intake.completed) return intake;

  request.delivered = true;
  const Duration tr = t4 - request.t0;  // t_r = t4 - t0
  const bool timely = tr <= request.qos.deadline;
  intake.response_time = tr;
  intake.timely = timely;
  record.response_time = tr;
  request.t4 = t4;
  request.first_replica = reply.replica;
  request.result = reply.result;
  request.first_service = reply.perf.service_time;
  request.first_queuing = reply.perf.queuing_delay;
  request.first_gateway = td;
  request.hedge_set.clear();  // completion beat the hedge timer
  if (dispatch_.cancel_on_first_reply && !request.is_probe) {
    intake.cancel = cancel_awaited(reply.request, request);
  }
  if (response_time_histogram_ != nullptr && !request.is_probe) {
    response_time_histogram_->record(tr);
  }
  if (span_sink_ != nullptr) {
    const std::uint64_t parent = root_span(request);
    // Before the outcome: the wait-for-first-reply merge (t1 -> t4);
    // after it: the late-reply harvest window.
    const bool late = request.outcome_recorded && !request.is_probe;
    span(request, span_sink_->next_span_id(), parent,
         late ? obs::SpanKind::kLateReply : obs::SpanKind::kFirstReply, reply.replica,
         late ? request.t0 + request.qos.deadline : request.t1, t4, !late && timely);
  }
  if (!request.outcome_recorded && !request.is_probe) {
    intake.violated = record_outcome(request, timely, t4);
  } else if (obs_ != nullptr) {
    if (request.is_probe) {
      // Probes skip record_outcome: trace them and close the root here.
      emit_request_trace(request, timely);
      if (span_sink_ != nullptr) {
        span(request, request.root_span, 0, obs::SpanKind::kRequest, reply.replica, request.t0,
             t4, timely);
      }
    } else if (request.trace_recorded) {
      // Late completion: amend the trace the deadline emitted.
      obs_->amend_request(request.trace_seq, t4, tr, reply.replica, reply.perf.service_time,
                          reply.perf.queuing_delay, td);
    }
  }
  return intake;
}

void RequestLifecycle::on_perf_update(const proto::PerfUpdate& update, TimePoint now) {
  // Updates from replicas outside the current view are ignored.
  if (!admissible(update.perf) || !repository_.contains(update.replica)) return;
  const PerfSample sample{update.perf.service_time, update.perf.queuing_delay,
                          update.perf.queue_length, update.perf.sample_seq};
  repository_.record_perf(update.replica, sample, now, update.method);
}

std::optional<Cancellation> RequestLifecycle::cancel_awaited(RequestId id, Request& request) {
  if (request.awaiting.empty()) return std::nullopt;
  Cancellation cancellation;
  for (ReplicaId replica : request.awaiting) {
    if (repository_.contains(replica)) cancellation.targets.push_back(replica);
  }
  // Stop awaiting them either way: a purged copy never replies, and one
  // already in service only refreshes the repository.
  set_awaiting(request, {});
  if (cancellation.targets.empty()) return std::nullopt;
  const std::size_t sent = cancellation.targets.size();
  cancels_sent_ += sent;
  record_of(request).cancels_sent += sent;
  if (cancels_counter_ != nullptr) cancels_counter_->add(sent);
  cancellation.cancel = proto::Cancel{id, client_, request.method};
  return cancellation;
}

bool RequestLifecycle::on_deadline(RequestId id, TimePoint now) {
  auto it = requests_.find(id);
  if (it == requests_.end() || it->second.outcome_recorded) return false;
  return record_outcome(it->second, /*timely=*/false, now);
}

Eviction RequestLifecycle::evict(std::span<const ReplicaId> dead, TimePoint now) {
  Eviction eviction;
  for (ReplicaId replica : dead) repository_.remove_replica(replica);
  for (ReplicaId replica : dead) {
    alert(obs::AlertKind::kReplicaEvicted, now, replica, static_cast<double>(dead.size()), 0.0,
          "view change");
  }

  std::vector<RequestId> dead_probes;
  std::vector<RequestId> to_hedge;
  for (auto& [id, request] : requests_) {
    for (ReplicaId replica : dead) {
      remove_awaiting(request, replica);
      std::erase(request.hedge_set, replica);
    }
    if (request.delivered) continue;
    // Satisfiable while chunks collected + copies in flight + the held
    // hedge set can still reach k (first-of-n: some copy is awaited).
    // Otherwise release the hedge set if that closes the gap, or report
    // the request for a new selection.
    const std::size_t reachable =
        request.collector.distinct() + request.awaiting.size() + request.hedge_set.size();
    if (!request.awaiting.empty() && reachable >= request.collector.required()) continue;
    if (request.is_probe) {
      // Re-selecting would turn a refresh into a phantom client request.
      dead_probes.push_back(id);
    } else if (!request.hedge_set.empty() && reachable >= request.collector.required()) {
      to_hedge.push_back(id);
    } else {
      eviction.unsatisfiable.push_back(id);
    }
  }
  for (RequestId id : dead_probes) erase(id);
  for (RequestId id : to_hedge) {
    if (auto tx = release_hedge(id)) eviction.hedges.push_back(std::move(*tx));
  }
  return eviction;
}

bool RequestLifecycle::record_outcome(Request& request, bool timely, TimePoint now) {
  AQUA_ASSERT(!request.outcome_recorded);
  request.outcome_recorded = true;
  RequestRecord& record = record_of(request);
  record.timely = timely;
  tracker_.record(timely);
  if (timely_counter_ != nullptr) (timely ? timely_counter_ : timing_failures_counter_)->add();
  if (obs_ != nullptr) {
    emit_request_trace(request, timely);
    // Calibration before the violation check below: on the sample that
    // trips both detectors, the drift alert lands first in the ring.
    obs_->record_calibration(now, client_,
                             request.delivered ? request.first_replica : ReplicaId{},
                             record.predicted_probability, timely);
  }
  if (span_sink_ != nullptr) {
    // Close the root span at decision time — min(completion, deadline) —
    // so the span ring never holds a dangling root.
    span(request, root_span(request), 0, obs::SpanKind::kRequest, request.first_replica,
         request.t0, now, timely);
  }
  const bool violating = tracker_.violates(request.qos.min_probability);
  if (violating && !violation_reported_) {
    violation_reported_ = true;
    if (qos_violations_counter_ != nullptr) {
      qos_violations_counter_->add();
      obs_->annotate(now, "qos_violation", "client-" + std::to_string(client_.value()));
    }
    alert(obs::AlertKind::kQosViolation, now, {}, tracker_.timely_fraction(),
          request.qos.min_probability, "timely fraction below requested minimum");
    return true;
  }
  if (!violating) {
    if (violation_reported_) {
      alert(obs::AlertKind::kQosRecovered, now, {}, tracker_.timely_fraction(),
            request.qos.min_probability, "timely fraction recovered");
    }
    violation_reported_ = false;  // re-arm after recovery
  }
  return false;
}

/// Once per decided request: from record_outcome, or on_reply for probes.
void RequestLifecycle::emit_request_trace(Request& request, bool timely) {
  const RequestRecord& record = record_of(request);
  obs::RequestTrace trace{.client = client_, .request = record.request, .probe = request.is_probe,
                          .t0 = record.intercepted_at, .t1 = record.transmitted_at,
                          .deadline = request.qos.deadline,
                          .min_probability = request.qos.min_probability,
                          .predicted_probability = record.predicted_probability,
                          .redundancy = record.redundancy, .cold_start = record.cold_start,
                          .feasible = record.feasible, .redispatched = record.redispatched,
                          .answered = request.delivered, .timely = timely,
                          .t4 = request.delivered ? std::optional{request.t4} : std::nullopt,
                          .response_time = record.response_time,  // the completing reply's
                          .service_time = request.first_service,
                          .queuing_delay = request.first_queuing,
                          .gateway_delay = request.first_gateway,
                          .first_replica = request.first_replica};
  request.trace_seq = obs_->record_request(std::move(trace));
  request.trace_recorded = true;
}

bool RequestLifecycle::finish_if_complete(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return true;
  const Request& request = it->second;
  if (!request.awaiting.empty() || !(request.outcome_recorded || request.is_probe)) return false;
  requests_.erase(it);
  return true;
}

void RequestLifecycle::erase(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return;
  for (ReplicaId replica : it->second.awaiting) drop_outstanding(replica, 1);
  requests_.erase(it);
}

void RequestLifecycle::renegotiate(const QosSpec& qos, TimePoint now) {
  tracker_.reset();
  violation_reported_ = false;
  alert(obs::AlertKind::kQosRenegotiated, now, {}, static_cast<double>(count_us(qos.deadline)),
        qos.min_probability, "qos renegotiated");
}

// The awaited set only changes through these three, which keep
// outstanding_ and the repository's in-flight charges in sync.
void RequestLifecycle::set_awaiting(Request& request, std::vector<ReplicaId> replicas) {
  for (ReplicaId replica : request.awaiting) drop_outstanding(replica, 1);
  for (ReplicaId replica : replicas) {
    ++outstanding_[replica];
    // Client-side concurrency compensation until the next perf sample: a
    // counter bump (no rng, no generation change), bit-identical paths.
    repository_.note_dispatch(replica);
  }
  request.awaiting = std::move(replicas);
}

void RequestLifecycle::add_awaiting(Request& request, std::span<const ReplicaId> replicas) {
  for (ReplicaId replica : replicas) {
    if (std::find(request.awaiting.begin(), request.awaiting.end(), replica) !=
        request.awaiting.end()) {
      continue;
    }
    ++outstanding_[replica];
    repository_.note_dispatch(replica);
    request.awaiting.push_back(replica);
  }
}

void RequestLifecycle::remove_awaiting(Request& request, ReplicaId replica) {
  const std::size_t erased = std::erase(request.awaiting, replica);
  if (erased > 0) drop_outstanding(replica, erased);
}

void RequestLifecycle::drop_outstanding(ReplicaId replica, std::size_t count) {
  auto it = outstanding_.find(replica);
  if (it == outstanding_.end()) return;
  it->second -= std::min(it->second, count);
  if (it->second == 0) outstanding_.erase(it);
}

}  // namespace aqua::core
