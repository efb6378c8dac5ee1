#include "core/info_repository.h"

#include <algorithm>
#include <chrono>

#include "common/assert.h"
#include "obs/telemetry.h"

namespace aqua::core {

InfoRepository::InfoRepository(RepositoryConfig config) : config_(config) {
  AQUA_REQUIRE(config_.window_size >= 1, "repository window size must be >= 1");
  AQUA_REQUIRE(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0,
               "repository ewma_alpha must be in (0, 1]");
  if (config_.gateway_window_size == 0) config_.gateway_window_size = config_.window_size;
}

InfoRepository::Record& InfoRepository::record_for(ReplicaId replica) {
  auto it = records_.find(replica);
  if (it == records_.end()) {
    it = records_.emplace(replica, Record{config_.gateway_window_size}).first;
    if (replicas_added_counter_ != nullptr) replicas_added_counter_->add();
  }
  return it->second;
}

void InfoRepository::add_replica(ReplicaId replica) { record_for(replica); }

void InfoRepository::remove_replica(ReplicaId replica) {
  if (records_.erase(replica) > 0 && replicas_removed_counter_ != nullptr) {
    replicas_removed_counter_->add();
  }
}

bool InfoRepository::contains(ReplicaId replica) const { return records_.contains(replica); }

std::size_t InfoRepository::replica_count() const { return records_.size(); }

std::vector<ReplicaId> InfoRepository::replicas() const {
  std::vector<ReplicaId> out;
  out.reserve(records_.size());
  for (const auto& [id, record] : records_) out.push_back(id);
  return out;
}

void InfoRepository::record_perf(ReplicaId replica, const PerfSample& sample, TimePoint now,
                                 const std::string& method) {
  AQUA_REQUIRE(sample.service_time >= Duration::zero(), "service time must be non-negative");
  AQUA_REQUIRE(sample.queuing_delay >= Duration::zero(), "queuing delay must be non-negative");
  AQUA_REQUIRE(sample.queue_length >= 0, "queue length must be non-negative");
  Record& record = record_for(replica);
  if (sample.sample_seq != 0 && record.last_perf_seq != 0 &&
      sample.sample_seq <= record.last_perf_seq) {
    // A retransmitted or reordered copy of a sample already applied; its
    // queue_length is older than what the record holds.
    if (stale_samples_counter_ != nullptr) stale_samples_counter_->add();
    if (config_.reject_stale_samples) return;
  }
  record.last_perf_seq = std::max(record.last_perf_seq, sample.sample_seq);
  auto [it, inserted] = record.methods.try_emplace(method, config_.window_size);
  it->second.service.push(sample.service_time);
  it->second.queuing.push(sample.queuing_delay);
  it->second.generation = ++generation_counter_;
  if (record.queue_length != sample.queue_length) {
    // Queue length feeds the backlog-shift model for EVERY method of this
    // replica, so it invalidates across methods; an unchanged length does
    // not (same model inputs, keep the cached pmfs alive).
    record.shared_generation = ++generation_counter_;
  }
  // Load EWMAs. These never touch a generation stamp: the response-time
  // model does not read them, so cached pmfs stay valid while they move.
  const double alpha = config_.ewma_alpha;
  const double qlen = static_cast<double>(sample.queue_length);
  const double service_us =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(sample.service_time).count());
  if (!record.ewma_seeded) {
    record.queue_ewma = qlen;
    record.service_ewma_us = service_us;
    record.queue_trend = 0.0;
    record.ewma_seeded = true;
  } else {
    const double delta = qlen - static_cast<double>(record.queue_length);
    record.queue_trend = alpha * delta + (1.0 - alpha) * record.queue_trend;
    record.queue_ewma = alpha * qlen + (1.0 - alpha) * record.queue_ewma;
    record.service_ewma_us = alpha * service_us + (1.0 - alpha) * record.service_ewma_us;
  }
  // A fresh sample reflects the replica's queue as of this reply; our
  // older in-flight charges are either inside that queue count now or
  // already serviced, so the compensation resets.
  record.own_inflight = 0;
  record.queue_length = sample.queue_length;
  record.last_update = now;
  if (perf_samples_counter_ != nullptr) perf_samples_counter_->add();
  if (telemetry_ != nullptr) {
    resolve_load_gauges(replica, record);
    record.queue_ewma_gauge->set(record.queue_ewma);
    record.queue_trend_gauge->set(record.queue_trend);
    record.own_inflight_gauge->set(0.0);
  }
}

void InfoRepository::record_gateway_delay(ReplicaId replica, Duration delay, TimePoint now,
                                          std::uint64_t sample_seq) {
  AQUA_REQUIRE(delay >= Duration::zero(), "gateway delay must be non-negative");
  Record& record = record_for(replica);
  if (sample_seq != 0 && record.last_gateway_seq != 0 && sample_seq <= record.last_gateway_seq) {
    if (stale_samples_counter_ != nullptr) stale_samples_counter_->add();
    if (config_.reject_stale_samples) return;
  }
  record.last_gateway_seq = std::max(record.last_gateway_seq, sample_seq);
  record.gateway_delay = delay;
  record.gateway_delay_known = true;
  record.gateway_window.push(delay);
  record.shared_generation = ++generation_counter_;
  record.last_update = now;
  if (gateway_delays_counter_ != nullptr) gateway_delays_counter_->add();
}

void InfoRepository::note_dispatch(ReplicaId replica) {
  auto it = records_.find(replica);
  if (it == records_.end()) return;
  Record& record = it->second;
  ++record.own_inflight;
  if (telemetry_ != nullptr) {
    resolve_load_gauges(replica, record);
    record.own_inflight_gauge->set(static_cast<double>(record.own_inflight));
  }
}

ReplicaObservation InfoRepository::observe(ReplicaId replica, const std::string& method,
                                           TimePoint now) const {
  auto it = records_.find(replica);
  AQUA_REQUIRE(it != records_.end(), "observe() of an untracked replica");
  ReplicaObservation obs;
  fill(obs, replica, it->second, method, now);
  return obs;
}

void InfoRepository::fill(ReplicaObservation& obs, ReplicaId replica, const Record& record,
                          const std::string& method, TimePoint now) {
  obs.id = replica;
  obs.method = method;
  obs.generation = record.shared_generation;
  if (auto mit = record.methods.find(method); mit != record.methods.end()) {
    mit->second.service.copy_to(obs.service_samples);
    mit->second.queuing.copy_to(obs.queuing_samples);
    obs.generation = std::max(obs.generation, mit->second.generation);
  } else {
    obs.service_samples.clear();
    obs.queuing_samples.clear();
  }
  obs.gateway_delay = record.gateway_delay;
  record.gateway_window.copy_to(obs.gateway_samples);
  obs.queue_length = record.queue_length;
  obs.last_update = record.last_update;
  obs.queue_ewma = record.queue_ewma;
  obs.queue_trend = record.queue_trend;
  obs.service_ewma_us = record.service_ewma_us;
  obs.own_inflight = record.own_inflight;
  obs.silence = now != TimePoint{} && now > record.last_update ? now - record.last_update
                                                               : Duration::zero();
}

std::uint64_t InfoRepository::generation(ReplicaId replica, const std::string& method) const {
  auto it = records_.find(replica);
  if (it == records_.end()) return 0;
  std::uint64_t generation = it->second.shared_generation;
  if (auto mit = it->second.methods.find(method); mit != it->second.methods.end()) {
    generation = std::max(generation, mit->second.generation);
  }
  return generation;
}

std::vector<ReplicaObservation> InfoRepository::observe_all(const std::string& method,
                                                            TimePoint now) const {
  std::vector<ReplicaObservation> out;
  observe_all_into(out, method, now);
  return out;
}

void InfoRepository::observe_all_into(std::vector<ReplicaObservation>& out,
                                      const std::string& method, TimePoint now) const {
  out.resize(records_.size());
  auto slot = out.begin();
  for (const auto& [id, record] : records_) fill(*slot++, id, record, method, now);
}

bool InfoRepository::cold(const std::string& method) const {
  for (const auto& [id, record] : records_) {
    auto mit = record.methods.find(method);
    if (mit != record.methods.end() && !mit->second.service.empty()) return false;
  }
  return true;
}

void InfoRepository::resolve_load_gauges(ReplicaId replica, Record& record) {
  if (record.queue_ewma_gauge != nullptr) return;
  auto& metrics = telemetry_->metrics();
  const std::string prefix = "repository." + std::to_string(replica.value());
  record.queue_ewma_gauge = &metrics.gauge(prefix + ".queue_ewma");
  record.queue_trend_gauge = &metrics.gauge(prefix + ".queue_trend");
  record.own_inflight_gauge = &metrics.gauge(prefix + ".own_inflight");
}

void InfoRepository::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  for (auto& [id, record] : records_) {
    record.queue_ewma_gauge = nullptr;
    record.queue_trend_gauge = nullptr;
    record.own_inflight_gauge = nullptr;
  }
  if (telemetry == nullptr) {
    perf_samples_counter_ = nullptr;
    gateway_delays_counter_ = nullptr;
    stale_samples_counter_ = nullptr;
    replicas_added_counter_ = nullptr;
    replicas_removed_counter_ = nullptr;
    return;
  }
  auto& metrics = telemetry->metrics();
  perf_samples_counter_ = &metrics.counter("repository.perf_samples");
  gateway_delays_counter_ = &metrics.counter("repository.gateway_delays");
  stale_samples_counter_ = &metrics.counter("repository.stale_samples");
  replicas_added_counter_ = &metrics.counter("repository.replicas_added");
  replicas_removed_counter_ = &metrics.counter("repository.replicas_removed");
}

}  // namespace aqua::core
