// Tests of the §5.3.1 response-time model: R_i = S_i + W_i + T_i.
#include "core/response_time_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace aqua::core {
namespace {

ReplicaObservation observation(std::vector<std::int64_t> service_ms,
                               std::vector<std::int64_t> queue_ms, std::int64_t gateway_ms,
                               std::int64_t queue_length = 0) {
  ReplicaObservation obs;
  obs.id = ReplicaId{1};
  for (auto v : service_ms) obs.service_samples.push_back(msec(v));
  for (auto v : queue_ms) obs.queuing_samples.push_back(msec(v));
  obs.gateway_delay = msec(gateway_ms);
  obs.queue_length = queue_length;
  return obs;
}

TEST(ResponseTimeModelTest, NoDataYieldsEmptyPmfAndZeroProbability) {
  ResponseTimeModel model;
  ReplicaObservation obs;
  obs.id = ReplicaId{1};
  EXPECT_TRUE(model.response_pmf(obs).empty());
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(100)), 0.0);
}

TEST(ResponseTimeModelTest, DeterministicHistoryGivesStepCdf) {
  ResponseTimeModel model;
  const auto obs = observation({100}, {0}, 4);
  // R = 100 + 0 + 4 = 104ms with probability 1.
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(103)), 0.0);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(104)), 1.0);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(200)), 1.0);
}

TEST(ResponseTimeModelTest, ConvolutionCombinesServiceAndQueue) {
  ResponseTimeModel model;
  // S in {100, 200} each 1/2; W in {0, 50} each 1/2; T = 10.
  const auto obs = observation({100, 200}, {0, 50}, 10);
  // R support: 110, 160, 210, 260 each 1/4.
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(109)), 0.0);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(110)), 0.25);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(160)), 0.5);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(210)), 0.75);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(260)), 1.0);
}

TEST(ResponseTimeModelTest, RepeatedSamplesWeightTheCdf) {
  ResponseTimeModel model;
  // S: 100 (x3), 200 (x1) -> P(S=100)=0.75.
  const auto obs = observation({100, 100, 100, 200}, {0, 0, 0, 0}, 0);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(100)), 0.75);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(200)), 1.0);
}

TEST(ResponseTimeModelTest, GatewayDelayShiftsTheWholeDistribution) {
  ResponseTimeModel model;
  const auto near = observation({100, 150}, {0}, 0);
  const auto far = observation({100, 150}, {0}, 60);
  // T=0: both samples meet a 150ms deadline.
  EXPECT_DOUBLE_EQ(model.probability_by(near, msec(150)), 1.0);
  // T=60 shifts R to {160, 210}: nothing fits 150ms, half fits 160ms.
  EXPECT_DOUBLE_EQ(model.probability_by(far, msec(150)), 0.0);
  EXPECT_DOUBLE_EQ(model.probability_by(far, msec(160)), 0.5);
  EXPECT_DOUBLE_EQ(model.probability_by(far, msec(210)), 1.0);
}

TEST(ResponseTimeModelTest, NonPositiveDeadlineGivesZero) {
  ResponseTimeModel model;
  const auto obs = observation({100}, {0}, 0);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, Duration::zero()), 0.0);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, -msec(5)), 0.0);
}

TEST(ResponseTimeModelTest, ProbabilityIsMonotoneInDeadline) {
  ResponseTimeModel model;
  const auto obs = observation({80, 100, 120, 140}, {0, 10, 20, 30}, 5);
  double last = -1.0;
  for (std::int64_t t = 50; t <= 250; t += 10) {
    const double p = model.probability_by(obs, msec(t));
    EXPECT_GE(p, last);
    last = p;
  }
  EXPECT_DOUBLE_EQ(last, 1.0);
}

TEST(ResponseTimeModelTest, PmfSupportSizeIsAtMostProductOfWindows) {
  ResponseTimeModel model;
  const auto obs = observation({1, 2, 3, 4, 5}, {10, 20, 30, 40, 50}, 0);
  EXPECT_LE(model.response_pmf(obs).support_size(), 25u);
  EXPECT_GE(model.response_pmf(obs).support_size(), 9u);  // distinct sums merge
}

TEST(ResponseTimeModelTest, BinnedModelApproximatesExact) {
  ModelConfig binned_cfg;
  binned_cfg.bin_width = msec(5);
  ResponseTimeModel exact;
  ResponseTimeModel binned{binned_cfg};
  const auto obs = observation({101, 118, 134, 156, 178}, {3, 9, 14, 22, 31}, 4);
  for (std::int64_t t = 100; t <= 250; t += 25) {
    EXPECT_NEAR(binned.probability_by(obs, msec(t)), exact.probability_by(obs, msec(t)), 0.45)
        << "t=" << t;
  }
  // Binned support is strictly coarser.
  EXPECT_LE(binned.response_pmf(obs).support_size(), exact.response_pmf(obs).support_size());
}

TEST(ResponseTimeModelTest, QueueBacklogShiftPenalisesBusyReplicas) {
  ModelConfig cfg;
  cfg.queue_backlog_shift = true;
  ResponseTimeModel with_shift{cfg};
  ResponseTimeModel without_shift;
  const auto idle = observation({100}, {0}, 0, /*queue_length=*/0);
  const auto busy = observation({100}, {0}, 0, /*queue_length=*/3);
  // Without the extension, queue length is ignored.
  EXPECT_DOUBLE_EQ(without_shift.probability_by(busy, msec(100)), 1.0);
  // With it, 3 queued requests shift the distribution by 3 x 100ms.
  EXPECT_DOUBLE_EQ(with_shift.probability_by(busy, msec(100)), 0.0);
  EXPECT_DOUBLE_EQ(with_shift.probability_by(busy, msec(400)), 1.0);
  EXPECT_DOUBLE_EQ(with_shift.probability_by(idle, msec(100)), 1.0);
}

TEST(ResponseTimeModelTest, QueueBacklogShiftUsesUnbinnedServiceMean) {
  // Regression: the backlog shift used to be computed from the BINNED
  // service pmf, so binning (which floors atoms) deflated the penalty by
  // up to queue_length * bin_width.
  ModelConfig cfg;
  cfg.queue_backlog_shift = true;
  cfg.bin_width = msec(20);
  ResponseTimeModel model{cfg};
  // S = {25ms} (bins to 20ms), W = {0}, T = 0, 4 queued requests.
  // Shift must be 4 x 25 = 100ms on the raw mean, not 4 x 20 = 80ms on
  // the binned one: R = 20 + 100 = 120ms.
  const auto obs = observation({25}, {0}, 0, /*queue_length=*/4);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(100)), 0.0);  // the buggy value
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(119)), 0.0);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(120)), 1.0);
}

TEST(ResponseTimeModelTest, AbsurdBacklogSaturatesToNever) {
  // A hostile queue_length near INT64_MAX: queue_length x mean(S) is far
  // past Duration's range, where llround is undefined. The model must
  // saturate to "never in time" (run under ENABLE_UBSAN to see the UB).
  ModelConfig cfg;
  cfg.queue_backlog_shift = true;
  ResponseTimeModel model{cfg};
  const auto obs =
      observation({100}, {0}, 1, /*queue_length=*/std::numeric_limits<std::int64_t>::max() - 1);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, msec(100)), 0.0);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, sec(1'000'000'000)), 0.0);
  EXPECT_FALSE(model.response_pmf(obs).empty());
}

TEST(ResponseTimeModelTest, BacklogThatOverflowsTheShiftSaturatesToNever) {
  // The backlog alone fits in Duration, but adding it to the support and
  // the gateway delay would not.
  ModelConfig cfg;
  cfg.queue_backlog_shift = true;
  ResponseTimeModel model{cfg};
  auto obs = observation({}, {0}, 0, /*queue_length=*/std::int64_t{1} << 61);
  obs.service_samples = {usec(3)};  // backlog 3 x 2^61 us < 2^63
  obs.gateway_delay = usec(std::int64_t{1} << 62);
  EXPECT_DOUBLE_EQ(model.probability_by(obs, sec(1'000'000'000)), 0.0);
  cfg.windowed_gateway_delay = true;
  obs.gateway_samples = {obs.gateway_delay};
  EXPECT_DOUBLE_EQ(ResponseTimeModel{cfg}.probability_by(obs, sec(1'000'000'000)), 0.0);
}

TEST(ResponseTimeModelTest, ServicePlusQueuingPastDurationRangeSaturatesToNever) {
  // max(S) + max(W) itself leaves Duration's range: t_s and t_q each just
  // above 2^62 (hostile perf data). The convolution would overflow
  // (run under ENABLE_UBSAN to see it); the model saturates instead.
  const Duration huge = usec((std::int64_t{1} << 62) + 1);
  ReplicaObservation obs = observation({}, {}, 0);
  obs.service_samples = {msec(1), huge};
  obs.queuing_samples = {huge};
  ResponseTimeModel model;
  EXPECT_DOUBLE_EQ(model.probability_by(obs, sec(1'000'000'000)), 0.0);
  EXPECT_EQ(model.response_pmf(obs).support_size(), 1u);
  // Binned, and with the gateway window convolved in: the same answer.
  ModelConfig cfg;
  cfg.bin_width = usec(100);
  cfg.windowed_gateway_delay = true;
  obs.gateway_samples = {msec(1)};
  EXPECT_DOUBLE_EQ(ResponseTimeModel{cfg}.probability_by(obs, sec(1'000'000'000)), 0.0);
}

TEST(ResponseTimeModelTest, GatewayWindowThatOverflowsTheSumSaturatesToNever) {
  // S + W fits; adding the windowed gateway pmf's top atom does not.
  ModelConfig cfg;
  cfg.windowed_gateway_delay = true;
  ReplicaObservation obs = observation({}, {0}, 0);
  obs.service_samples = {usec(std::int64_t{1} << 62)};
  obs.gateway_samples = {usec(std::int64_t{1} << 62)};
  EXPECT_DOUBLE_EQ(ResponseTimeModel{cfg}.probability_by(obs, sec(1'000'000'000)), 0.0);
}

TEST(ResponseTimeModelTest, LargestInRangeSupportIsStillExact) {
  // max(S) + max(W) + T one tick below Duration's limit is in range: the
  // range check must not saturate it (never() sits AT the limit).
  const std::int64_t half = std::numeric_limits<std::int64_t>::max() / 2;
  ReplicaObservation obs = observation({}, {}, 0);
  obs.service_samples = {usec(half - 1)};
  obs.queuing_samples = {usec(half)};
  obs.gateway_delay = usec(1);  // (half - 1) + half + 1 == INT64_MAX - 1
  const stats::EmpiricalPmf pmf = ResponseTimeModel{}.response_pmf(obs);
  ASSERT_EQ(pmf.support_size(), 1u);
  EXPECT_EQ(pmf.max(), Duration::max() - usec(1));
  EXPECT_DOUBLE_EQ(ResponseTimeModel{}.probability_by(obs, Duration::max() - usec(1)), 1.0);
}

TEST(ResponseTimeModelTest, ModelConfigValidation) {
  ModelConfig cfg;
  cfg.bin_width = -msec(1);
  EXPECT_THROW(ResponseTimeModel{cfg}, std::invalid_argument);
}

TEST(ResponseTimeModelTest, PartialDataCountsAsNoData) {
  ResponseTimeModel model;
  ReplicaObservation obs;
  obs.id = ReplicaId{1};
  obs.service_samples.push_back(msec(100));  // queuing window still empty
  EXPECT_FALSE(obs.has_data());
  EXPECT_DOUBLE_EQ(model.probability_by(obs, sec(10)), 0.0);
}

}  // namespace
}  // namespace aqua::core
