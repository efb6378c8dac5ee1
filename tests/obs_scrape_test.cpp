// Live scrape endpoint: route handling, Prometheus text shape, the
// 404 contract for unknown paths/traces, and lifecycle (ephemeral port,
// idempotent stop).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "obs/scrape.h"
#include "obs/span.h"
#include "obs/telemetry.h"

namespace aqua::obs {
namespace {

/// Tiny blocking HTTP GET against 127.0.0.1:port; returns the full
/// response (status line + headers + body), or "" on connect failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

void populate(Telemetry& telemetry) {
  telemetry.metrics().counter("gateway.requests").add(12);
  telemetry.metrics().gauge("system.replicas").set(3.0);
  telemetry.metrics().histogram("gateway.response_time_us").record(msec(15));
  SpanRecord span;
  span.trace_id = make_trace_id(ClientId{1}, RequestId{1});
  span.span_id = telemetry.next_span_id();
  span.kind = SpanKind::kRequest;
  span.client = ClientId{1};
  span.request = RequestId{1};
  span.start = TimePoint{usec(100)};
  span.end = TimePoint{usec(900)};
  telemetry.record_span(span);
  telemetry.record_alert({.kind = AlertKind::kQosViolation,
                          .at = TimePoint{msec(2)},
                          .client = ClientId{1},
                          .observed = 0.5,
                          .threshold = 0.9,
                          .detail = "test alert"});
  telemetry.record_calibration(TimePoint{msec(3)}, ClientId{1}, ReplicaId{2}, 0.9, true);
}

TEST(ScrapeServer, ServesPrometheusTextOnMetrics) {
  Telemetry telemetry;
  populate(telemetry);
  ScrapeServer server{telemetry, 0};
  ASSERT_GT(server.port(), 0);

  const std::string response = http_get(server.port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  // Mangled names: dots become underscores, aqua_ prefix.
  EXPECT_NE(response.find("# TYPE aqua_gateway_requests counter"), std::string::npos);
  EXPECT_NE(response.find("aqua_gateway_requests 12"), std::string::npos);
  EXPECT_NE(response.find("# TYPE aqua_system_replicas gauge"), std::string::npos);
  EXPECT_NE(response.find("# TYPE aqua_gateway_response_time_us summary"), std::string::npos);
  EXPECT_NE(response.find("aqua_gateway_response_time_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(response.find("aqua_gateway_response_time_us_count 1"), std::string::npos);
  EXPECT_NE(response.find("aqua_telemetry_spans_recorded 1"), std::string::npos);
}

TEST(ScrapeServer, ServesSnapshotAlertsAndTraces) {
  Telemetry telemetry;
  populate(telemetry);
  ScrapeServer server{telemetry, 0};

  const std::string snapshot = http_get(server.port(), "/snapshot");
  EXPECT_NE(snapshot.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(snapshot.find("\"alerts_recorded\":1"), std::string::npos);

  const std::string alerts = http_get(server.port(), "/alerts");
  EXPECT_NE(alerts.find("\"kind\":\"qos_violation\""), std::string::npos);
  EXPECT_NE(alerts.find("test alert"), std::string::npos);

  const std::string calibration = http_get(server.port(), "/calibration");
  EXPECT_NE(calibration.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(calibration.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(calibration.find("\"replica\":2"), std::string::npos);

  const std::string perfetto = http_get(server.port(), "/trace");
  EXPECT_NE(perfetto.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  const std::uint64_t trace_id = make_trace_id(ClientId{1}, RequestId{1});
  std::ostringstream path;
  path << "/traces/" << trace_id;
  const std::string one = http_get(server.port(), path.str());
  EXPECT_NE(one.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(one.find("\"kind\":\"request\""), std::string::npos);
}

TEST(ScrapeServer, UnknownRoutesAndTracesAre404) {
  Telemetry telemetry;
  populate(telemetry);
  ScrapeServer server{telemetry, 0};
  EXPECT_NE(http_get(server.port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/traces/777777").find("404"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/traces/not-a-number").find("404"), std::string::npos);
}

/// Connect without port helpers duplicated from http_get; returns -1 on
/// failure.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ScrapeServer, ParsesRequestLineSplitAcrossSegments) {
  Telemetry telemetry;
  populate(telemetry);
  ScrapeServer server{telemetry, 0};

  // Trickle the request in three segments, breaking inside the method
  // token and inside the path: each read alone looks like a non-GET
  // request, so a single-read parser answers 405.
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  for (const std::string& piece : {std::string{"GE"}, std::string{"T /met"},
                                   std::string{"rics HTTP/1.0\r\n\r\n"}}) {
    ASSERT_EQ(::send(fd, piece.data(), piece.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(piece.size()));
    ::usleep(20'000);  // force distinct TCP segments
  }
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
  EXPECT_NE(response.find("aqua_gateway_requests 12"), std::string::npos);
}

TEST(ScrapeServer, RequestBytesAfterTheLineDoNotResetTheResponse) {
  // The server answers as soon as it has the request line; the blank
  // line that ends the request arrives in a second segment (a shell's
  // `printf ... >/dev/tcp/...` writes line by line). Closing with those
  // bytes unread makes the kernel abort the connection with a reset,
  // and the client loses the part of a large response it has not read.
  Telemetry telemetry;
  populate(telemetry);
  for (int i = 0; i < 4000; ++i) {
    telemetry.metrics().counter("bulk.counter_" + std::to_string(i)).add(1);
  }
  ScrapeServer server{telemetry, 0};
  for (int round = 0; round < 5; ++round) {
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    for (const std::string& piece : {std::string{"GET /metrics HTTP/1.0\r\n"},
                                     std::string{"\r\n"}}) {
      ASSERT_EQ(::send(fd, piece.data(), piece.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(piece.size()));
      ::usleep(5'000);  // distinct segments
    }
    ::usleep(50'000);  // the server has answered and closed by now
    std::string response;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof buf)) > 0) {
      response.append(buf, static_cast<std::size_t>(n));
    }
    const int read_errno = n < 0 ? errno : 0;
    ::close(fd);

    EXPECT_EQ(read_errno, 0) << std::strerror(read_errno);
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
    EXPECT_NE(response.find("aqua_bulk_counter_3999 1"), std::string::npos);
  }
}

TEST(ScrapeServer, SurvivesClientDisconnectingBeforeResponse) {
  Telemetry telemetry;
  populate(telemetry);
  ScrapeServer server{telemetry, 0};

  // Abortive disconnects: the client sends a GET and resets the
  // connection without reading. The server's send then hits a dead
  // socket — with ::write that raises SIGPIPE and kills the process;
  // ::send(..., MSG_NOSIGNAL) degrades it to EPIPE. Several rounds so
  // at least one send lands after the RST is processed.
  for (int i = 0; i < 8; ++i) {
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    // SO_LINGER with zero timeout turns close() into an immediate RST.
    const linger hard_reset{.l_onoff = 1, .l_linger = 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset, sizeof hard_reset);
    ::close(fd);
  }

  // The server (and this process) is still alive and still answers.
  const std::string response = http_get(server.port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
}

TEST(ScrapeServer, StopIsIdempotentAndRefusesBusyPort) {
  const Telemetry telemetry;
  ScrapeServer server{telemetry, 0};
  const std::uint16_t port = server.port();
  // A second server on the same fixed port must throw, not hang.
  EXPECT_THROW(ScrapeServer(telemetry, port), std::runtime_error);
  server.stop();
  server.stop();  // idempotent
  // After stop, the port no longer answers.
  EXPECT_TRUE(http_get(port, "/metrics").empty());
}

}  // namespace
}  // namespace aqua::obs
