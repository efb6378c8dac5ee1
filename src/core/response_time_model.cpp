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

/// True if shifting `pmf` by `offset` would leave Duration's range.
bool shift_overflows(const stats::EmpiricalPmf& pmf, Duration offset) {
  std::int64_t sum = 0;
  return !pmf.empty() &&
         __builtin_add_overflow(pmf.atoms().back().value.count(), offset.count(), &sum);
}

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
  stats::EmpiricalPmf response = convolve(service, queuing);

  if (config_.windowed_gateway_delay && !obs.gateway_samples.empty()) {
    stats::EmpiricalPmf gateway = stats::EmpiricalPmf::from_samples(obs.gateway_samples);
    if (config_.bin_width > Duration::zero()) gateway = gateway.binned(config_.bin_width);
    stats::EmpiricalPmf with_gateway = convolve(response, gateway);
    if (shift_overflows(with_gateway, extra_shift)) return never();
    return with_gateway.shifted(extra_shift);
  }
  std::int64_t shift_us = 0;
  if (__builtin_add_overflow(obs.gateway_delay.count(), extra_shift.count(), &shift_us) ||
      shift_overflows(response, Duration{shift_us})) {
    return never();
  }
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
