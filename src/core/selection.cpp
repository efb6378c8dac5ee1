#include "core/selection.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/assert.h"
#include "common/rng.h"

namespace aqua::core {

Duration load_penalty(const ReplicaObservation& obs, const LoadScoreConfig& load) {
  const double backlog = load.queue_weight * std::max(0.0, obs.queue_ewma) +
                         load.outstanding_weight * static_cast<double>(obs.own_inflight) +
                         load.trend_weight * std::max(0.0, obs.queue_trend);
  if (backlog <= 0.0 || obs.service_ewma_us <= 0.0) return Duration::zero();
  return std::chrono::duration_cast<Duration>(
      std::chrono::duration<double, std::micro>(backlog * obs.service_ewma_us));
}

bool load_suspect(const ReplicaObservation& obs, const QosSpec& qos,
                  const LoadScoreConfig& load) {
  if (!load.liveness_guess) return false;
  // Only our own unanswered traffic makes silence suspicious: a replica
  // we have not talked to recently is merely idle from our vantage.
  if (obs.own_inflight == 0) return false;
  if (obs.silence <= Duration::zero()) return false;
  return static_cast<double>(obs.silence.count()) >
         load.liveness_factor * static_cast<double>(qos.deadline.count());
}

double load_score(const ResponseTimeModel& model, const ReplicaObservation& obs,
                  Duration effective_deadline, const LoadScoreConfig& load) {
  return model.probability_by(obs, effective_deadline - load_penalty(obs, load));
}

void two_choice_spread(std::vector<RankedReplica>& ranked,
                       std::span<const ReplicaObservation> observations,
                       const LoadScoreConfig& load, Rng& rng) {
  if (ranked.size() < 2) return;
  std::unordered_map<ReplicaId, Duration> penalties;
  penalties.reserve(observations.size());
  for (const ReplicaObservation& obs : observations) {
    penalties.emplace(obs.id, load_penalty(obs, load));
  }
  const auto penalty_of = [&](const RankedReplica& r) {
    auto it = penalties.find(r.id);
    return it == penalties.end() ? Duration::zero() : it->second;
  };
  std::size_t band_begin = 0;
  while (band_begin < ranked.size()) {
    std::size_t band_end = band_begin + 1;
    while (band_end < ranked.size() &&
           ranked[band_begin].score - ranked[band_end].score <= load.p2c_epsilon) {
      ++band_end;
    }
    // Re-emit the band two-choices at a time: draw two distinct members,
    // keep the less loaded one next (ties keep the current, score-better
    // order). O(band^2) but bands are tiny in practice.
    std::vector<RankedReplica> pool(ranked.begin() + static_cast<std::ptrdiff_t>(band_begin),
                                    ranked.begin() + static_cast<std::ptrdiff_t>(band_end));
    std::size_t out = band_begin;
    while (pool.size() > 1) {
      const auto a = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      auto b = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 2));
      if (b >= a) ++b;  // distinct second choice
      std::size_t pick = penalty_of(pool[b]) < penalty_of(pool[a]) ? b : a;
      if (penalty_of(pool[a]) == penalty_of(pool[b])) pick = std::min(a, b);
      ranked[out++] = pool[pick];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ranked[out] = pool.front();
    band_begin = band_end;
  }
}

namespace {

bool distinct_ids(std::span<const ReplicaObservation> observations) {
  // The repository hands out observations in id order, where strictly
  // increasing ids prove distinctness in one pass; any other order falls
  // back to comparing pairs. Neither allocates.
  const auto not_increasing = [](const ReplicaObservation& a, const ReplicaObservation& b) {
    return !(a.id < b.id);
  };
  if (std::adjacent_find(observations.begin(), observations.end(), not_increasing) ==
      observations.end()) {
    return true;
  }
  for (auto it = observations.begin(); it != observations.end(); ++it) {
    for (auto other = std::next(it); other != observations.end(); ++other) {
      if (it->id == other->id) return false;
    }
  }
  return true;
}

}  // namespace

ReplicaSelector::ReplicaSelector(SelectionConfig config, ResponseTimeModel model)
    : config_(config), model_(std::move(model)) {}

SelectionResult ReplicaSelector::select(std::span<const ReplicaObservation> observations,
                                        const QosSpec& qos, Duration overhead_delta,
                                        Rng* rng) const {
  AQUA_REQUIRE(!observations.empty(), "selection requires at least one replica");
  qos.validate();
  AQUA_REQUIRE(distinct_ids(observations), "duplicate replica in observations");

  SelectionResult result;

  // §5.3.3: compensate the algorithm's own overhead by selecting replicas
  // able to respond within t - delta.
  Duration effective_deadline = qos.deadline;
  if (config_.overhead_compensation && overhead_delta > Duration::zero()) {
    effective_deadline -= overhead_delta;
  }

  // Compute F_Ri(t - delta) for every replica with history. With the
  // load score on, the liveness guess skips suspect replicas before any
  // convolution runs, and each survivor also gets its compensated score.
  const LoadScoreConfig& load = config_.load;
  result.ranked.reserve(observations.size());
  std::vector<ReplicaId> dataless;
  std::vector<const ReplicaObservation*> suspect_obs;
  const auto rank_one = [&](const ReplicaObservation& obs) {
    RankedReplica ranked{obs.id, model_.probability_by(obs, effective_deadline), true};
    if (load.enabled) ranked.score = load_score(model_, obs, effective_deadline, load);
    result.ranked.push_back(ranked);
  };
  for (const ReplicaObservation& obs : observations) {
    if (!obs.has_data()) {
      dataless.push_back(obs.id);
    } else if (load.enabled && load_suspect(obs, qos, load)) {
      suspect_obs.push_back(&obs);
    } else {
      rank_one(obs);
    }
  }
  if (result.ranked.empty() && !suspect_obs.empty()) {
    // Every data-bearing replica looked dead: the guess must never starve
    // selection, so rank them all after all (and report no skips).
    for (const ReplicaObservation* obs : suspect_obs) rank_one(*obs);
    suspect_obs.clear();
  }
  result.suspects = suspect_obs.size();

  // Cold start (§5.4.1): with no history at all, select every replica so
  // the performance updates can initialise the repository.
  if (result.ranked.empty()) {
    result.cold_start = true;
    for (const ReplicaObservation& obs : observations) result.selected.push_back(obs.id);
    return result;
  }

  // Line 3: sort in decreasing order of F_Ri; ties broken by id so that
  // selection is deterministic. The load score takes precedence: a
  // timely-but-loaded replica ranks below an equally timely idle one.
  // With the load score off every score is 0.0, so the order is the
  // paper's exactly.
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const RankedReplica& a, const RankedReplica& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.probability != b.probability) return a.probability > b.probability;
              return a.id < b.id;
            });
  if (load.enabled && rng != nullptr) two_choice_spread(result.ranked, observations, load, *rng);

  // Line 4 (generalised): protect the top-k replicas, clamped to n-1 so
  // the feasibility test below never runs over an empty candidate range.
  // Without the clamp, k >= n short-circuits the loop, prod stays 1.0 and
  // even a single PERFECT replica reports test_probability = 0 and falls
  // into the infeasible fallback. With it, the surplus protected members
  // are themselves evaluated against P_c: the test covers the worst-case
  // survivor set after min(k, n-1) member crashes, which is Algorithm 1's
  // intent (the excluded top members are the worst-case crash victims).
  const std::size_t protected_count =
      std::min(config_.crash_tolerance, result.ranked.size() - 1);
  result.protected_count = protected_count;

  // Lines 6-14: grow the candidate set X from the remaining replicas
  // until P_X(t) >= P_c(t).
  // Tolerance for the feasibility comparison: empirical F values are sums
  // of 1/l atoms, so an exact >= at a round P_c (e.g. 0.8 vs 8 x 0.1)
  // would fail on floating-point dust.
  constexpr double kFeasibilityTolerance = 1e-9;
  double prod = 1.0;
  std::size_t candidate_end = protected_count;  // X = ranked[protected_count, candidate_end)
  bool feasible = false;
  for (std::size_t i = protected_count; i < result.ranked.size(); ++i) {
    prod *= 1.0 - result.ranked[i].probability;
    candidate_end = i + 1;
    if (1.0 - prod >= qos.min_probability - kFeasibilityTolerance) {
      feasible = true;
      break;
    }
  }

  result.feasible = feasible;
  result.test_probability = result.ranked.empty() ? 0.0 : 1.0 - prod;

  if (feasible) {
    // Line 11: K = X u protected set.
    for (std::size_t i = 0; i < candidate_end; ++i) {
      result.selected.push_back(result.ranked[i].id);
    }
    if (config_.include_dataless) {
      for (ReplicaId id : dataless) result.selected.push_back(id);
    }
  } else if (config_.infeasible_fallback == InfeasibleFallback::kAllReplicas) {
    // Line 15: return the complete replica set M.
    for (const RankedReplica& r : result.ranked) result.selected.push_back(r.id);
    for (ReplicaId id : dataless) result.selected.push_back(id);
  } else {
    // kMinimalSet: the spec is unreachable; take what a P_c = 0 request
    // would get (protected members + one candidate) instead of loading
    // every replica.
    const std::size_t take = std::min(protected_count + 1, result.ranked.size());
    for (std::size_t i = 0; i < take; ++i) result.selected.push_back(result.ranked[i].id);
    if (config_.include_dataless) {
      for (ReplicaId id : dataless) result.selected.push_back(id);
    }
  }

  // P_K(t) over every selected replica with data.
  double all_prod = 1.0;
  std::size_t counted = candidate_end;
  if (!feasible) {
    counted = config_.infeasible_fallback == InfeasibleFallback::kAllReplicas
                  ? result.ranked.size()
                  : std::min(protected_count + 1, result.ranked.size());
  }
  for (std::size_t i = 0; i < counted; ++i) {
    all_prod *= 1.0 - result.ranked[i].probability;
  }
  result.predicted_probability = 1.0 - all_prod;
  return result;
}

}  // namespace aqua::core
