// selin_ingestd — live event-ingest daemon.
//
//   selin_ingestd [--uds <path>] [--tcp <port>] [--host <addr>]
//                 [--batch-limit N] [--inbox-capacity N]
//                 [--max-configs N] [--max-sessions N]
//                 [--idle-timeout-ms N] [--no-observe]
//
// Serves the binary wire protocol (src/selin/net/wire.hpp) over a Unix-
// domain socket and/or TCP, multiplexing every connection's event stream
// into one service::MonitorService, whose drain thread feeds the sessions
// in turn.  The same listeners answer HTTP-ish
// plaintext GETs (/stats, /metrics, /metrics.json) for scrapers.
//
// At least one of --uds / --tcp is required.  --tcp 0 binds an ephemeral
// port.  On successful startup the daemon prints one READY line per
// listener to stdout and flushes:
//
//   READY uds=<path>
//   READY tcp=<port>
//
// so harnesses can wait for the socket (and learn the ephemeral port)
// without polling.  SIGINT/SIGTERM stop the daemon gracefully; it prints
// one final `STATS <json>` line (the /stats document) and exits 0.
//
// Numeric flags are range-checked up front: --batch-limit /
// --inbox-capacity 1..2^32-1 (the hello ack carries both as 32-bit fields).
// Anything else is a usage error rather than an allocation failure on the
// first session.
//
// Exit codes: 0 = clean shutdown, 2 = usage error, 3 = startup failure
// (bind/listen).
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <unistd.h>

#include "selin/net/ingest_server.hpp"

namespace {

int usage(int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: selin_ingestd [--uds <path>] [--tcp <port>] [--host <addr>]"
         " [--batch-limit N] [--inbox-capacity N]"
         " [--max-configs N] [--max-sessions N] [--idle-timeout-ms N]"
         " [--no-observe]\n"
         "at least one of --uds / --tcp required; --tcp 0 = ephemeral port\n";
  return code;
}

// The running server, for the async-signal-safe stop path.
selin::net::IngestServer* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) {
    const char q = 'q';
    [[maybe_unused]] ssize_t n = ::write(g_server->wake_fd(), &q, 1);
  }
}

/// Parses a whole token of decimal digits in [lo, hi]; rejects signs,
/// leading spaces, overflow and trailing text.
bool parse_size(const char* s, size_t* out, size_t lo = 0,
                size_t hi = SIZE_MAX) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return false;
  *out = static_cast<size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  selin::net::IngestOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--uds") {
      const char* v = need_value();
      if (v == nullptr) return usage(2);
      opts.uds_path = v;
    } else if (arg == "--tcp") {
      const char* v = need_value();
      size_t port;
      if (v == nullptr || !parse_size(v, &port, 0, 65535)) return usage(2);
      opts.tcp_port = static_cast<int>(port);
    } else if (arg == "--host") {
      const char* v = need_value();
      if (v == nullptr) return usage(2);
      opts.tcp_host = v;
    } else if (arg == "--batch-limit") {
      const char* v = need_value();
      if (v == nullptr ||
          !parse_size(v, &opts.batch_limit, 1, UINT32_MAX)) {
        return usage(2);
      }
    } else if (arg == "--inbox-capacity") {
      const char* v = need_value();
      if (v == nullptr ||
          !parse_size(v, &opts.inbox_capacity, 1, UINT32_MAX)) {
        return usage(2);
      }
    } else if (arg == "--max-configs") {
      const char* v = need_value();
      if (v == nullptr || !parse_size(v, &opts.max_configs)) return usage(2);
    } else if (arg == "--max-sessions") {
      const char* v = need_value();
      if (v == nullptr || !parse_size(v, &opts.max_sessions)) return usage(2);
    } else if (arg == "--idle-timeout-ms") {
      const char* v = need_value();
      size_t ms;
      if (v == nullptr || !parse_size(v, &ms)) return usage(2);
      opts.idle_timeout_ms = ms;
    } else if (arg == "--no-observe") {
      opts.observe = false;
    } else {
      std::cerr << "selin_ingestd: unknown flag: " << arg << "\n";
      return usage(2);
    }
  }
  if (opts.uds_path.empty() && opts.tcp_port < 0) return usage(2);

  selin::net::IngestServer server(std::move(opts));
  std::string err;
  if (!server.start(&err)) {
    std::cerr << "selin_ingestd: " << err << "\n";
    return 3;
  }
  g_server = &server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  if (!server.uds_path().empty()) {
    std::cout << "READY uds=" << server.uds_path() << "\n";
  }
  if (server.tcp_port() >= 0) {
    std::cout << "READY tcp=" << server.tcp_port() << "\n";
  }
  std::cout.flush();

  server.run();

  std::cout << "STATS " << server.stats_json() << "\n";
  std::cout.flush();
  g_server = nullptr;
  return 0;
}
