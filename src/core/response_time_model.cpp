#include "core/response_time_model.h"

#include <cmath>

#include "common/assert.h"
#include "core/model_cache.h"

namespace aqua::core {

ResponseTimeModel::ResponseTimeModel(ModelConfig config)
    : ResponseTimeModel(config, nullptr) {}

ResponseTimeModel::ResponseTimeModel(ModelConfig config, std::shared_ptr<ModelCache> cache)
    : config_(config), cache_(std::move(cache)) {
  AQUA_REQUIRE(config_.bin_width >= Duration::zero(), "bin width must be non-negative");
}

namespace {

/// The pmf of a replica that never answers in time: F(t) = 0 for every
/// representable deadline.
stats::EmpiricalPmf never() { return stats::EmpiricalPmf::delta(Duration::max()); }

}  // namespace

stats::EmpiricalPmf ResponseTimeModel::compute_pmf(const ReplicaObservation& obs) const {
  stats::EmpiricalPmf service = stats::EmpiricalPmf::from_samples(obs.service_samples);
  stats::EmpiricalPmf queuing = stats::EmpiricalPmf::from_samples(obs.queuing_samples);

  Duration extra_shift = Duration::zero();
  if (config_.queue_backlog_shift && obs.queue_length > 0) {
    // Mean of the RAW service samples: binning floors every atom by up to
    // bin_width, which would bias the shift by up to queue_length *
    // bin_width/2.
    const double backlog_us = service.mean_us() * static_cast<double>(obs.queue_length);
    // A backlog past Duration's range (an absurd or hostile queue_length)
    // saturates; llround would be undefined there.
    if (!(backlog_us < 0x1p63)) return never();
    extra_shift += Duration{static_cast<std::int64_t>(std::llround(backlog_us))};
  }

  if (config_.bin_width > Duration::zero()) {
    service = service.binned(config_.bin_width);
    queuing = queuing.binned(config_.bin_width);
  }
  const bool windowed = config_.windowed_gateway_delay && !obs.gateway_samples.empty();
  stats::EmpiricalPmf gateway;
  if (windowed) {
    gateway = stats::EmpiricalPmf::from_samples(obs.gateway_samples);
    if (config_.bin_width > Duration::zero()) gateway = gateway.binned(config_.bin_width);
  }

  // One range check for the whole pipeline: the largest support value is
  // max(S) + max(W) (+ max(G) when windowed) plus the shift T. A t_s or
  // t_q near Duration's limit saturates to F = 0 instead of overflowing.
  std::int64_t shift_us = extra_shift.count();
  if (!windowed && __builtin_add_overflow(shift_us, obs.gateway_delay.count(), &shift_us)) {
    return never();
  }
  if (!service.empty() && !queuing.empty()) {
    std::int64_t top_us = 0;
    if (__builtin_add_overflow(service.max().count(), queuing.max().count(), &top_us) ||
        (windowed && __builtin_add_overflow(top_us, gateway.max().count(), &top_us)) ||
        __builtin_add_overflow(top_us, shift_us, &top_us)) {
      return never();
    }
  }
  stats::EmpiricalPmf response = convolve(service, queuing);
  if (windowed) response = convolve(response, gateway);
  return response.shifted(Duration{shift_us});
}

stats::EmpiricalPmf ResponseTimeModel::response_pmf(const ReplicaObservation& obs) const {
  if (!obs.has_data()) return {};
  if (cache_ && obs.generation != 0) {
    if (const stats::EmpiricalPmf* hit = cache_->find(config_, obs)) return *hit;
    return cache_->store(config_, obs, compute_pmf(obs));
  }
  return compute_pmf(obs);
}

double ResponseTimeModel::probability_by(const ReplicaObservation& obs, Duration deadline) const {
  if (deadline <= Duration::zero()) return 0.0;
  if (!obs.has_data()) return 0.0;
  if (cache_ && obs.generation != 0) {
    if (const stats::EmpiricalPmf* hit = cache_->find(config_, obs)) return hit->cdf_at(deadline);
    return cache_->store(config_, obs, compute_pmf(obs)).cdf_at(deadline);
  }
  return compute_pmf(obs).cdf_at(deadline);
}

}  // namespace aqua::core
