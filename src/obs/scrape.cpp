#include "obs/scrape.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/export.h"
#include "obs/perfetto_export.h"
#include "obs/telemetry.h"

namespace aqua::obs {
namespace {

std::string http_response(int status, const char* reason, const char* content_type,
                          const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.0 " << status << ' ' << reason << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

std::string not_found() {
  return http_response(404, "Not Found", "text/plain; charset=utf-8", "not found\n");
}

/// Lingering close. Closing a socket with request bytes still unread
/// (headers, the blank line after the request line) makes the kernel
/// reset the connection, and the client loses the part of the response
/// it has not read yet. So: send FIN, then read and discard until the
/// client closes, for at most kLingerMs (the server is single-threaded).
void linger_close(int fd) {
  constexpr int kLingerMs = 250;
  ::shutdown(fd, SHUT_WR);
  char sink[512];
  for (int waited = 0; waited < kLingerMs; waited += 10) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/10);
    if (ready < 0) break;
    if (ready > 0 && ::read(fd, sink, sizeof sink) <= 0) break;  // EOF or error
  }
  ::close(fd);
}

}  // namespace

ScrapeServer::ScrapeServer(const Telemetry& telemetry, std::uint16_t port)
    : telemetry_(telemetry) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("scrape: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string{"scrape: cannot listen on 127.0.0.1:"} +
                             std::to_string(port) + ": " + std::strerror(err));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { serve(); });
}

ScrapeServer::~ScrapeServer() { stop(); }

void ScrapeServer::stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ScrapeServer::serve() {
  while (running_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0) continue;  // timeout or transient error: re-check running_
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;

    // Read until the end of the request line. A scrape request is tiny
    // but the kernel may still hand it over in several TCP segments
    // (slow client, TCP_NODELAY off, deliberate trickle) — a single read
    // that catches only "GE" must not be judged as a non-GET method.
    // The line is capped at the buffer size: anything longer is not a
    // scrape path we serve.
    char buf[2048];
    std::string request_text;
    bool have_line = false;
    while (request_text.size() < sizeof buf) {
      const ssize_t n = ::read(client, buf, sizeof buf - 1);
      if (n <= 0) break;  // peer closed or error before finishing the line
      request_text.append(buf, static_cast<std::size_t>(n));
      if (request_text.find("\r\n") != std::string::npos ||
          request_text.find('\n') != std::string::npos) {
        have_line = true;
        break;
      }
    }
    if (have_line) {
      std::string request_line = request_text;
      if (const auto eol = request_line.find_first_of("\r\n"); eol != std::string::npos) {
        request_line.resize(eol);
      }
      std::string response;
      if (request_line.rfind("GET ", 0) == 0) {
        std::string path = request_line.substr(4);
        if (const auto sp = path.find(' '); sp != std::string::npos) path.resize(sp);
        response = respond(path);
      } else {
        response = http_response(405, "Method Not Allowed", "text/plain; charset=utf-8",
                                 "GET only\n");
      }
      std::size_t sent = 0;
      while (sent < response.size()) {
        // MSG_NOSIGNAL: a client that disconnects mid-response must cost
        // us an EPIPE errno, not a process-killing SIGPIPE.
        const ssize_t w = ::send(client, response.data() + sent, response.size() - sent,
                                 MSG_NOSIGNAL);
        if (w <= 0) break;
        sent += static_cast<std::size_t>(w);
      }
    }
    linger_close(client);
  }
}

std::string ScrapeServer::respond(const std::string& path) const {
  std::ostringstream body;
  if (path == "/metrics") {
    write_prometheus_text(body, telemetry_);
    return http_response(200, "OK", "text/plain; version=0.0.4; charset=utf-8", body.str());
  }
  if (path == "/snapshot") {
    write_snapshot_json(body, telemetry_);
    return http_response(200, "OK", "application/json", body.str());
  }
  if (path == "/alerts") {
    write_alerts_json(body, telemetry_);
    return http_response(200, "OK", "application/json", body.str());
  }
  if (path == "/calibration") {
    write_calibration_json(body, telemetry_);
    return http_response(200, "OK", "application/json", body.str());
  }
  if (path == "/trace") {
    write_perfetto_json(body, telemetry_);
    return http_response(200, "OK", "application/json", body.str());
  }
  if (path == "/spans") {
    // Whole span ring as flat records — the machine-readable sibling of
    // /trace, which a fleet collector can parse back into SpanRecords
    // and stitch across processes (obs/fleet.h).
    const std::vector<SpanRecord> spans = telemetry_.spans();
    write_spans_json(body, std::span<const SpanRecord>{spans});
    return http_response(200, "OK", "application/json", body.str());
  }
  if (constexpr const char* kPrefix = "/traces/"; path.rfind(kPrefix, 0) == 0) {
    const std::string id_text = path.substr(std::strlen(kPrefix));
    std::uint64_t trace_id = 0;
    const auto [end, ec] =
        std::from_chars(id_text.data(), id_text.data() + id_text.size(), trace_id);
    if (ec != std::errc{} || end != id_text.data() + id_text.size()) return not_found();
    const std::vector<SpanRecord> spans = telemetry_.spans_for(trace_id);
    if (spans.empty()) return not_found();
    write_spans_json(body, std::span<const SpanRecord>{spans});
    return http_response(200, "OK", "application/json", body.str());
  }
  return not_found();
}

}  // namespace aqua::obs
