#include "gateway/system.h"

#include <gtest/gtest.h>

namespace aqua::gateway {
namespace {

SystemConfig quiet_system(std::uint64_t seed = 1) {
  SystemConfig cfg;
  cfg.seed = seed;
  cfg.lan.jitter_sigma = 0.0;
  return cfg;
}

ClientWorkload small_workload(std::size_t requests, Duration think = msec(50)) {
  ClientWorkload w;
  w.total_requests = requests;
  w.think_time = stats::make_constant(think);
  return w;
}

TEST(AquaSystemTest, BuildsReplicasAndClients) {
  AquaSystem system{quiet_system()};
  system.add_replica(replica::make_sampled_service(stats::make_constant(msec(10))));
  system.add_replica(replica::make_sampled_service(stats::make_constant(msec(10))));
  system.add_client(core::QosSpec{msec(200), 0.5}, small_workload(3));
  EXPECT_EQ(system.replicas().size(), 2u);
  EXPECT_EQ(system.clients().size(), 1u);
}

TEST(AquaSystemTest, DestroyingMidRunOutlivesEveryEventHandle) {
  // Event handles may only be used while their simulator lives. The
  // system declares its simulator first, so it is destroyed last: the
  // handlers, replicas and apps (holding deadline, hedge, completion and
  // give-up handles) go first, then the simulator frees the callbacks
  // still pending. The sanitizer builds check this teardown.
  for (const std::int64_t stop_ms : {1, 95, 150, 420}) {
    AquaSystem system{quiet_system()};
    for (int i = 0; i < 4; ++i) {
      system.add_replica(replica::make_sampled_service(stats::make_constant(msec(40))));
    }
    HandlerConfig config;
    config.dispatch.mode = core::DispatchMode::kHedged;
    ClientWorkload workload = small_workload(0);
    workload.give_up_after = msec(300);
    system.add_client(core::QosSpec{msec(100), 0.9}, workload, config);
    system.add_client(core::QosSpec{msec(200), 0.5}, small_workload(0, msec(5)));
    system.run_for(msec(stop_ms));
    EXPECT_GT(system.simulator().pending_events(), 0u) << "stop at " << stop_ms << " ms";
  }
}

TEST(AquaSystemTest, ReplicasGetDistinctHostsAndIds) {
  AquaSystem system{quiet_system()};
  auto& r1 = system.add_replica(replica::make_sampled_service(stats::make_constant(msec(1))));
  auto& r2 = system.add_replica(replica::make_sampled_service(stats::make_constant(msec(1))));
  EXPECT_NE(r1.id(), r2.id());
  EXPECT_NE(r1.host(), r2.host());
}

TEST(AquaSystemTest, SharedHostPlacement) {
  AquaSystem system{quiet_system()};
  const HostId host = system.new_host();
  auto& r1 = system.add_replica_on(host, replica::make_sampled_service(stats::make_constant(msec(1))));
  auto& r2 = system.add_replica_on(host, replica::make_sampled_service(stats::make_constant(msec(1))));
  EXPECT_EQ(r1.host(), host);
  EXPECT_EQ(r2.host(), host);
}

TEST(AquaSystemTest, ClientCompletesWorkload) {
  AquaSystem system{quiet_system()};
  for (int i = 0; i < 3; ++i) {
    system.add_replica(replica::make_sampled_service(stats::make_constant(msec(10))));
  }
  ClientApp& app = system.add_client(core::QosSpec{msec(200), 0.5}, small_workload(10));
  EXPECT_TRUE(system.run_until_clients_done(sec(60)));
  EXPECT_TRUE(app.done());
  EXPECT_EQ(app.issued(), 10u);
  EXPECT_EQ(app.answered(), 10u);
  EXPECT_EQ(app.abandoned(), 0u);
}

TEST(AquaSystemTest, ReportAggregatesOutcomes) {
  AquaSystem system{quiet_system()};
  for (int i = 0; i < 3; ++i) {
    system.add_replica(replica::make_sampled_service(stats::make_constant(msec(10))));
  }
  system.add_client(core::QosSpec{msec(200), 0.0}, small_workload(10));
  ASSERT_TRUE(system.run_until_clients_done(sec(60)));
  const auto reports = system.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].requests, 10u);
  EXPECT_EQ(reports[0].answered, 10u);
  EXPECT_EQ(reports[0].timing_failures, 0u);
  EXPECT_EQ(reports[0].cold_starts, 1u);
  // After warm-up the algorithm selects 2; cold start selected 3.
  EXPECT_NEAR(reports[0].mean_redundancy(), (3.0 + 9 * 2.0) / 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(reports[0].failure_probability(), 0.0);
}

TEST(AquaSystemTest, SameSeedGivesIdenticalReports) {
  auto run = [](std::uint64_t seed) {
    AquaSystem system{quiet_system(seed)};
    for (int i = 0; i < 4; ++i) {
      system.add_replica(replica::make_sampled_service(
          stats::make_truncated_normal(msec(50), msec(20))));
    }
    system.add_client(core::QosSpec{msec(150), 0.5}, small_workload(20));
    system.run_until_clients_done(sec(120));
    const auto reports = system.reports();
    return std::tuple{reports[0].timing_failures, reports[0].mean_redundancy(),
                      reports[0].response_times_ms.summary().mean()};
  };
  // Note: jitter_sigma=0 in quiet_system, but service times are random.
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(AquaSystemTest, MultipleClientsShareTheService) {
  AquaSystem system{quiet_system()};
  for (int i = 0; i < 4; ++i) {
    system.add_replica(replica::make_sampled_service(stats::make_constant(msec(20))));
  }
  system.add_client(core::QosSpec{msec(300), 0.5}, small_workload(8));
  system.add_client(core::QosSpec{msec(300), 0.9}, small_workload(8));
  ASSERT_TRUE(system.run_until_clients_done(sec(60)));
  const auto reports = system.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].answered, 8u);
  EXPECT_EQ(reports[1].answered, 8u);
}

TEST(AquaSystemTest, StartDelayStaggersClients) {
  AquaSystem system{quiet_system()};
  system.add_replica(replica::make_sampled_service(stats::make_constant(msec(5))));
  ClientWorkload w = small_workload(1);
  w.start_delay = sec(2);
  ClientApp& app = system.add_client(core::QosSpec{msec(200), 0.0}, w);
  system.run_for(sec(1));
  EXPECT_EQ(app.issued(), 0u);
  system.run_for(sec(2));
  EXPECT_EQ(app.issued(), 1u);
}

TEST(AquaSystemTest, UnboundedWorkloadKeepsIssuing) {
  AquaSystem system{quiet_system()};
  system.add_replica(replica::make_sampled_service(stats::make_constant(msec(5))));
  ClientWorkload w;
  w.total_requests = 0;  // unbounded
  w.think_time = stats::make_constant(msec(100));
  ClientApp& app = system.add_client(core::QosSpec{msec(200), 0.0}, w);
  system.run_for(sec(5));
  EXPECT_GT(app.issued(), 20u);
  EXPECT_FALSE(app.done());
}

TEST(AquaSystemTest, RunUntilClientsDoneTimesOut) {
  AquaSystem system{quiet_system()};
  system.add_replica(replica::make_sampled_service(stats::make_constant(msec(5))));
  ClientWorkload w;
  w.total_requests = 0;
  w.think_time = stats::make_constant(msec(100));
  system.add_client(core::QosSpec{msec(200), 0.0}, w);
  EXPECT_FALSE(system.run_until_clients_done(sec(2)));
}

TEST(AquaSystemTest, PaperScaleDeploymentRuns) {
  // 7 replicas, 2 clients, 50 requests each — the paper's §6 setup shape.
  AquaSystem system{quiet_system(3)};
  for (int i = 0; i < 7; ++i) {
    system.add_replica(replica::make_sampled_service(
        stats::make_truncated_normal(msec(100), msec(50))));
  }
  ClientWorkload w;
  w.total_requests = 50;
  w.think_time = stats::make_constant(sec(1));
  ClientApp& c1 = system.add_client(core::QosSpec{msec(200), 0.0}, w);
  ClientApp& c2 = system.add_client(core::QosSpec{msec(150), 0.9}, w);
  ASSERT_TRUE(system.run_until_clients_done(sec(600)));
  EXPECT_EQ(c1.answered(), 50u);
  EXPECT_EQ(c2.answered(), 50u);
  const auto reports = system.reports();
  // The demanding client gets at least as much redundancy on average.
  EXPECT_GE(reports[1].mean_redundancy(), reports[0].mean_redundancy() - 0.5);
}

}  // namespace
}  // namespace aqua::gateway
