// selin_e2e — load generator and correctness oracle of the
// end-to-end benchmark.  bench/e2e/run.py builds it next to the library and
// selin_ingestd, runs one workload per process and turns the JSON it prints
// into the benchmark's metrics:
//
//   selin_e2e <workload> --seed S --seconds T [--scale F] [--trace FILE]
//             [--daemon PATH --uds PATH]
//
//   ingest_bulk     closed loop: back-to-back sessions of soak-shaped streams
//                   on one connection, against ten selin_ingestd daemons in
//                   turn
//   enforced_queue  Figure 11's five public steps on the MS queue, driven by
//                   one thread over 16 process slots
//   offline_audit   parse_history_string -> LinMonitor::feed_batch over
//                   bundles of wide and narrow histories
//
// Every input comes from --seed, and every verdict is checked against the
// verdict the input was built to have (OK with every event fed, or a
// rejection inside the stream).  --scale shrinks input sizes for the harness
// self-test.  --trace records spans at the benchmark's own call sites into
// the program and writes them as JSONL at exit.  Only public entry points
// are called, with the program's default settings.
//
// Prints one JSON object on stdout.  Exit 0 when every verdict matched,
// 1 otherwise, 2 on usage errors.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "selin/core/astar.hpp"
#include "selin/core/monitor_core.hpp"
#include "selin/impls/concurrent.hpp"
#include "selin/io/history_io.hpp"
#include "selin/lincheck/checker.hpp"
#include "selin/lincheck/monitor.hpp"
#include "selin/net/ingest_client.hpp"
#include "selin/obs/export.hpp"
#include "selin/obs/hooks.hpp"
#include "selin/sim/workload.hpp"
#include "selin/util/rng.hpp"

extern char** environ;

namespace {

using namespace selin;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t mix(uint64_t a, uint64_t b) {
  return Rng(a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL)).next();
}

// ---- numbers and JSON --------------------------------------------------------

/// Linear-interpolated q-quantile of an ascending vector; 0 when empty.
double sorted_quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Median of `v`, which it sorts; 0 when empty.
double median(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return sorted_quantile(v, 0.5);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + '"';
}

/// Flat JSON object builder; members keep insertion order.
class Obj {
 public:
  Obj& num(std::string_view k, double v) { return raw(k, json_num(v)); }
  Obj& str(std::string_view k, std::string_view v) {
    return raw(k, json_str(v));
  }
  Obj& raw(std::string_view k, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += json_str(k) + ':' + json;
    return *this;
  }
  std::string text() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += json_num(v[i]);
  }
  return out + ']';
}

/// A kB field of /proc/<pid>/status ("VmHWM:", "VmRSS:") in MiB; 0 when
/// unreadable.
double status_mb(pid_t pid, std::string_view field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

/// The whole life's peak resident set of a process (VmHWM) in MiB.
double vm_hwm_mb(pid_t pid) { return status_mb(pid, "VmHWM:"); }

// ---- tracing ---------------------------------------------------------------

/// One span of a request: steady-clock ns; `parent` indexes the request's
/// span list (-1 for the root, which comes first).
struct Span {
  const char* name;
  int parent;
  uint64_t start;
  uint64_t end;
};

/// Spans recorded at the benchmark's own call sites into the program.
/// Every request folds into per-name totals of count and self time (a
/// span's duration minus what its direct children cover); every `every`-th
/// request is also kept whole, for the JSONL file and for per-name
/// percentiles.
class Tracer {
 public:
  Tracer(bool on, uint64_t every)
      : on_(on), every_(std::max<uint64_t>(every, 1)) {}

  bool on() const { return on_; }

  /// Folds one finished request.  `root_dur` (0 = end - start) overrides
  /// the root's duration: an enforced op lasts the sum of its own steps,
  /// not the wall interval they interleave across.
  void request(std::span<const Span> spans, uint64_t root_dur = 0) {
    if (!on_ || spans.empty()) return;
    constexpr size_t kMax = 8;
    const size_t n = std::min(spans.size(), kMax);
    double dur[kMax], self[kMax];
    for (size_t i = 0; i < n; ++i) {
      dur[i] = static_cast<double>(spans[i].end - spans[i].start);
    }
    if (root_dur != 0) dur[0] = static_cast<double>(root_dur);
    std::copy(dur, dur + n, self);
    for (size_t i = 1; i < n; ++i) self[spans[i].parent] -= dur[i];
    const uint64_t req = next_req_++;
    const bool keep = req % every_ == 0;
    for (size_t i = 0; i < n; ++i) {
      Agg& a = by_name_[spans[i].name];
      ++a.count;
      a.self_ns += self[i];
      if (!keep) continue;
      a.sampled.push_back(i == 0 ? dur[0] : self[i]);
      if (i == 0) a.children.push_back(dur[0] - self[0]);
      kept_.push_back(Kept{req, static_cast<int>(i),
                           spans[i].parent, spans[i].name, spans[i].start,
                           spans[i].start + static_cast<uint64_t>(dur[i]),
                           self[i]});
    }
  }

  bool write_jsonl(const std::string& path, uint64_t epoch) const {
    std::ofstream out(path);
    for (const Kept& k : kept_) {
      out << Obj()
                 .num("req", static_cast<double>(k.req))
                 .num("id", k.id)
                 .num("parent", k.parent)
                 .str("name", k.name)
                 .num("start_ns", static_cast<double>(k.start - epoch))
                 .num("end_ns", static_cast<double>(k.end - epoch))
                 .num("self_ns", k.self)
                 .text()
          << '\n';
    }
    return static_cast<bool>(out);
  }

  /// {"<name>": {"count", "self_ns", "p50_ns", "p99_ns", "children_p50_ns"}}:
  /// p50/p99 of the name's self time (a root's duration) over kept
  /// requests; children_p50_ns = a root's median time covered by its
  /// children.
  std::string summary() {
    Obj o;
    for (auto& [name, a] : by_name_) {
      std::sort(a.sampled.begin(), a.sampled.end());
      std::sort(a.children.begin(), a.children.end());
      o.raw(name, Obj()
                      .num("count", static_cast<double>(a.count))
                      .num("self_ns", a.self_ns)
                      .num("p50_ns", sorted_quantile(a.sampled, 0.5))
                      .num("p99_ns", sorted_quantile(a.sampled, 0.99))
                      .num("children_p50_ns", sorted_quantile(a.children, 0.5))
                      .text());
    }
    return o.text();
  }

 private:
  struct Agg {
    uint64_t count = 0;
    double self_ns = 0;
    std::vector<double> sampled;
    std::vector<double> children;  ///< roots: per kept request, child time
  };
  struct Kept {
    uint64_t req;
    int id;
    int parent;
    const char* name;
    uint64_t start, end;
    double self;
  };

  bool on_;
  uint64_t every_;
  uint64_t next_req_ = 0;
  std::map<std::string_view, Agg> by_name_;
  std::vector<Kept> kept_;
};

// ---- what a workload reports -------------------------------------------------

/// Per-request samples, at most kMaxSamples of them:
/// past that, a uniform random sample of every value offered (reservoir
/// sampling).  The space is reserved up front and never grows, so the
/// benchmark's own memory does not rise with the number of requests a run
/// completes, and an in-process workload's peak RSS is the program's.
class Samples {
 public:
  static constexpr size_t kMaxSamples = size_t{1} << 18;

  Samples() { v_.reserve(kMaxSamples); }

  void add(double x) {
    ++offered_;
    if (v_.size() < kMaxSamples) {
      v_.push_back(x);
      return;
    }
    const uint64_t j = rng_.below(offered_);
    if (j < kMaxSamples) v_[j] = x;
  }
  std::vector<double>& values() { return v_; }

 private:
  std::vector<double> v_;
  uint64_t offered_ = 0;
  Rng rng_{0x5a3b1e5};
};

/// Counts and samples of a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  double items = 0;  ///< events or ops whose verdict settled and matched
  Samples latency_ns;
  Samples lag_ns;
  uint64_t frames = 0;
  uint64_t throttles = 0;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

struct Outcome {
  explicit Outcome(bool trace, uint64_t keep_every = 1)
      : tracer(trace, keep_every) {}

  Tally tally;
  Tracer tracer;
  double busy_ns = 0;  ///< time spent on requests (summed per object or epoch)
  std::vector<double> setup_ns;
  double peak_rss_mb = 0;  ///< VmHWM of the measured process(es): the run's peak
  double rss_median_mb = 0;  ///< median VmRSS over the run (diagnostic)
  std::string engine_json = "null";  ///< in-process EngineStats
  std::string obs_json = "null";     ///< metrics.json: daemon's or in-process
  double obs_window_ns = 0;  ///< how long the scraped daemon had been loaded
  std::string server_json = "null";  ///< the daemon's exit STATS document
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  double scale = 1;
  std::string trace_path;
  std::string daemon;
  std::string uds;
};

/// Moves the calling thread to the k-th CPU it may run on (mod their count).
/// The single-threaded workloads step through every CPU in turn: on a
/// shared host one CPU can run at half speed for minutes while a neighbour
/// loads its sibling, and a run that sat on it throughout would measure the
/// neighbour, not the program.
void rotate_cpu(size_t k) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  ::sched_setaffinity(0, sizeof one, &one);
}

size_t scaled(size_t n, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(static_cast<double>(n) * scale));
}

// ---- the daemon under test -----------------------------------------------------

/// A selin_ingestd child on a Unix-domain socket, started with the daemon's
/// default settings.  The destructor stops and reaps it.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  /// Spawns `exe --uds uds` and waits for its READY line.
  bool start(const std::string& exe, const std::string& uds,
             std::string* err) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      *err = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    std::string a0 = exe, a1 = "--uds", a2 = uds;
    char* argv[] = {a0.data(), a1.data(), a2.data(), nullptr};
    const int rc = ::posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv,
                                 environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    if (rc != 0) {
      ::close(fds[0]);
      pid_ = -1;
      *err = "spawn " + exe + ": " + std::strerror(rc);
      return false;
    }
    out_ = fds[0];
    if (!read_line_with("READY uds=", 10000)) {
      *err = "selin_ingestd printed no READY line";
      stop();
      return false;
    }
    return true;
  }

  /// SIGTERM, then the STATS document the daemon prints on exit; reaps the
  /// process.  "" when not running or when no STATS line came.
  std::string stop() {
    if (pid_ < 0) return "";
    ::kill(pid_, SIGTERM);
    std::optional<std::string> stats = read_line_with("STATS ", 10000);
    if (!stats) ::kill(pid_, SIGKILL);
    ::close(out_);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    out_ = -1;
    return stats.value_or("");
  }

  pid_t pid() const { return pid_; }

 private:
  /// Reads stdout lines until one starts with `prefix`; returns the rest of
  /// that line, or nullopt on EOF or timeout.
  std::optional<std::string> read_line_with(std::string_view prefix,
                                            int timeout_ms) {
    const uint64_t deadline = now_ns() + uint64_t(timeout_ms) * 1'000'000;
    for (;;) {
      size_t nl;
      while ((nl = buf_.find('\n')) != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
      }
      const uint64_t now = now_ns();
      if (now >= deadline) return std::nullopt;
      pollfd p{out_, POLLIN, 0};
      const int left = static_cast<int>((deadline - now) / 1'000'000) + 1;
      if (::poll(&p, 1, left) < 0 && errno != EINTR) return std::nullopt;
      char tmp[4096];
      const ssize_t n = ::read(out_, tmp, sizeof tmp);
      if (n == 0) return std::nullopt;
      if (n > 0) buf_.append(tmp, static_cast<size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::string buf_;
};

/// Plain "GET <path>" over the daemon's socket; the body of a 200 reply,
/// "" otherwise.
std::string http_get(const std::string& uds, const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (uds.size() >= sizeof addr.sun_path) return "";
  std::memcpy(addr.sun_path, uds.c_str(), uds.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return "";
  std::string resp;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
      char buf[65536];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
        resp.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  const size_t body = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos) {
    return "";
  }
  return resp.substr(body + 4);
}

/// Samples a process's VmRSS every 100 ms while a workload runs.  Only a
/// diagnostic: peak_rss_mb is the process's own VmHWM, read at the end of
/// its life, which the sampler never resets.
class RssSampler {
 public:
  explicit RssSampler(pid_t pid)
      : pid_(pid), thread_([this] { loop(); }) {}
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  ~RssSampler() { stop(); }

  /// Stops sampling; the median sample (one reading if there was none).
  double stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    if (samples_.empty()) return status_mb(pid_, "VmRSS:");
    std::sort(samples_.begin(), samples_.end());
    return sorted_quantile(samples_, 0.5);
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return stopping_; })) {
      samples_.push_back(status_mb(pid_, "VmRSS:"));
    }
  }

  pid_t pid_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;         // guarded by mu_
  std::vector<double> samples_;   // written by the sampler thread only
  std::thread thread_;
};

/// Spawns the daemon `reps` times, timing spawn -> READY -> first hello
/// each time; keeps the last one running.  ingest_bulk calls it at the
/// start of every epoch, so set-up time is sampled at several moments and a
/// slow spell of the host at one of them does not decide the median.
std::unique_ptr<Daemon> start_daemon(const Args& a, Outcome& out,
                                     size_t reps) {
  std::unique_ptr<Daemon> d;
  for (size_t r = 0; r < reps; ++r) {
    d = std::make_unique<Daemon>();
    std::string err;
    const uint64_t t0 = now_ns();
    net::IngestClient c;
    if (!d->start(a.daemon, a.uds, &err) || !c.connect_uds(a.uds, &err) ||
        !c.hello(static_cast<uint8_t>(ObjectKind::kQueue), "setup", nullptr,
                 &err)) {
      ++out.tally.attempted;
      out.tally.fail("daemon setup: " + err);
      return nullptr;
    }
    out.setup_ns.push_back(static_cast<double>(now_ns() - t0));
    net::VerdictBody v;
    if (!c.bye(&v, &err)) {
      ++out.tally.attempted;
      out.tally.fail("setup bye: " + err);
      return nullptr;
    }
    if (r + 1 < reps) d->stop();
  }
  return d;
}

// ---- generated inputs ------------------------------------------------------------

/// The stream shape of tools/selin_ingest_soak.cpp: width-2 blocks pair a
/// random op on process 0 with the kind's consumer or observer on process
/// 1, whose own response resolves it, so frontiers stay O(1).  Responses
/// come from the sequential spec, so the stream is linearizable by
/// construction.  A tail is one width-1 op; a corrupt tail answers it with
/// a value the spec cannot give there, so the stream is then certainly not
/// linearizable.
class SoakStream {
 public:
  SoakStream(ObjectKind kind, uint64_t seed)
      : kind_(kind), rng_(seed), spec_(make_spec(kind)),
        state_(spec_->initial()) {}

  void blocks(std::vector<Event>& out, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const auto [am, aarg] = random_op(kind_, rng_);
      const OpDesc a{{0, seq_[0]++}, am, aarg};
      const auto [bm, barg] = partner_op();
      const OpDesc b{{1, seq_[1]++}, bm, barg};
      const Value ra = state_->step(a.method, a.arg);
      const Value rb = state_->step(b.method, b.arg);
      out.push_back(Event::inv(a));
      out.push_back(Event::inv(b));
      out.push_back(Event::res(a, ra));
      out.push_back(Event::res(b, rb));
    }
  }

  void tail(std::vector<Event>& out, bool corrupt) {
    const auto [m, arg] = random_op(kind_, rng_);
    const OpDesc a{{0, seq_[0]++}, m, arg};
    const Value r = state_->step(a.method, a.arg);
    out.push_back(Event::inv(a));
    out.push_back(Event::res(a, corrupt ? r + 1 : r));
  }

 private:
  std::pair<Method, Value> partner_op() const {
    switch (kind_) {
      case ObjectKind::kQueue: return {Method::kDequeue, kNoArg};
      case ObjectKind::kStack: return {Method::kPop, kNoArg};
      case ObjectKind::kSet: return {Method::kContains, 3};
      case ObjectKind::kPqueue: return {Method::kPqExtractMin, kNoArg};
      case ObjectKind::kCounter: return {Method::kCounterRead, kNoArg};
      case ObjectKind::kRegister: return {Method::kRead, kNoArg};
      case ObjectKind::kConsensus: return {Method::kDecide, 1};
    }
    return {Method::kRead, kNoArg};
  }

  ObjectKind kind_;
  Rng rng_;
  std::unique_ptr<SeqSpec> spec_;
  std::unique_ptr<SeqState> state_;
  uint32_t seq_[2] = {0, 0};
};

/// A bulk session's stream: `blocks` width-2 blocks, then one tail op.  The
/// correct and the corrupt stream share the body; tail[1] answers the tail
/// op with the value SoakStream::tail(corrupt) gives.
struct BulkStream {
  std::vector<Event> body;
  std::array<std::array<Event, 2>, 2> tail;  ///< [corrupt] = {inv, res}
};

BulkStream bulk_stream(ObjectKind kind, uint64_t seed, size_t blocks) {
  BulkStream b;
  b.body.reserve(4 * blocks);
  SoakStream g(kind, seed);
  g.blocks(b.body, blocks);
  std::vector<Event> t;
  g.tail(t, false);
  b.tail[0] = {t[0], t[1]};
  b.tail[1] = b.tail[0];
  b.tail[1][1].result += 1;
  return b;
}

/// `blocks` width-2 blocks and a tail: 4 * blocks + 2 events.
std::vector<Event> soak_stream(ObjectKind kind, uint64_t seed, size_t blocks,
                               bool corrupt) {
  std::vector<Event> out;
  out.reserve(4 * blocks + 2);
  SoakStream g(kind, seed);
  g.blocks(out, blocks);
  g.tail(out, corrupt);
  return out;
}

/// A stack history whose frontier swings wide and back, `phases` times:
/// k overlapping push pairs leave 2^k orders open, then pops resolve them.
/// A corrupt history's final pop returns a value nobody pushed.
History width_swing(Rng& rng, size_t phases, size_t k, bool corrupt) {
  History h;
  Value v = rng.range(1, 1'000'000) * 64;
  uint32_t seq[3] = {0, 0, 0};
  for (size_t ph = 0; ph < phases; ++ph) {
    std::vector<std::pair<Value, Value>> pairs;
    for (size_t i = 0; i < k; ++i) {
      const OpDesc a{{0, seq[0]++}, Method::kPush, v++};
      const OpDesc b{{1, seq[1]++}, Method::kPush, v++};
      pairs.emplace_back(a.arg, b.arg);
      h.push_back(Event::inv(a));
      h.push_back(Event::inv(b));
      h.push_back(Event::res(a, kTrue));
      h.push_back(Event::res(b, kTrue));
    }
    for (size_t i = k; i-- > 0;) {
      for (Value popped : {pairs[i].second, pairs[i].first}) {
        const OpDesc d{{2, seq[2]++}, Method::kPop, kNoArg};
        h.push_back(Event::inv(d));
        h.push_back(Event::res(d, popped));
      }
    }
  }
  if (corrupt) h.back().result = -1;
  return h;
}

// ---- ingest workloads ----------------------------------------------------------

constexpr size_t kKinds = 7;

uint64_t seconds_ns(double s) { return static_cast<uint64_t>(s * 1e9); }

/// Empty when `v` is the verdict the stream was built to have: OK with all
/// `events` fed, or REJECTED at a batch inside the stream.
std::string verdict_mismatch(const net::VerdictBody& v, bool corrupt,
                             uint64_t events) {
  const auto st = static_cast<int>(v.status);
  if (corrupt) {
    if (v.status != net::WireStatus::kRejected) {
      return "expected REJECTED, got status " + std::to_string(st);
    }
    if (v.first_bad >= events) {
      return "first_bad " + std::to_string(v.first_bad) + " out of range";
    }
    return "";
  }
  if (v.status != net::WireStatus::kOk) {
    return "expected OK, got status " + std::to_string(st);
  }
  if (v.events_fed != events) {
    return "events_fed " + std::to_string(v.events_fed) + " != " +
           std::to_string(events);
  }
  return "";
}

// ingest_bulk: closed loop on one connection.  Sessions run back to back
// (connect, hello, the stream in 256-event frames with the tail op in a
// frame of its own, bye), and a session's latency runs from its connect to
// its final verdict.  Kinds cycle over all seven by session index, and every
// 4th session's stream ends in a corrupt response.
//
// The run is cut into kBulkEpochs epochs, each against a freshly spawned
// daemon.  Against one daemon per run, throughput fell into a fast or a slow
// mode ~20% apart from run to run, with no change to the code or its
// inputs; ten daemons per run average over those modes.  One connection, so
// that the client, the reactor and the drain thread (which runs a lone
// session's batch itself) fit the four CPUs with one to spare: with two
// connections, and so the executor's worker lanes, and with 1024-event
// frames, runs spread more (see README).
constexpr size_t kBulkFrameEvents = 256;
constexpr size_t kBulkBlocks = 1 << 15;  // 131,074 events per session
constexpr size_t kBulkEpochs = 10;
constexpr size_t kBulkSpawnsPerEpoch = 2;  // timed for setup_s; the last stays
constexpr uint64_t kBulkKeepEvery = 16;

/// Runs sessions from `since` until `deadline`, counting on from `*next`.
/// With `scrape`, takes the daemon's counters before the final bye, while
/// the last session's instruments are still live.  False when a session
/// failed in a way that ends the connection.
bool bulk_sessions(const Args& a, const std::vector<BulkStream>& pool,
                   uint64_t since, uint64_t deadline, size_t* next, bool scrape,
                   Outcome& out) {
  Tally& t = out.tally;
  Tracer& tr = out.tracer;
  std::string err;
  for (;;) {
    const size_t s = (*next)++;
    const auto kind = static_cast<ObjectKind>(s % kKinds);
    const bool corrupt = s % 4 == 3;
    const BulkStream& stream = pool[s % kKinds];
    const size_t events = stream.body.size() + 2;
    const std::string who = "session " + std::to_string(s);
    ++t.attempted;
    net::IngestClient cl;
    const uint64_t h0 = now_ns();
    if (!cl.connect_uds(a.uds, &err) ||
        !cl.hello(static_cast<uint8_t>(kind), "bulk-" + std::to_string(s),
                  nullptr, &err)) {
      t.fail(who + " hello: " + err);
      return false;
    }
    uint64_t due = now_ns();
    const Span hello[] = {{"service.hello", -1, h0, due}};
    tr.request(hello);
    const std::span<const Event> body(stream.body);
    const size_t body_frames =
        (body.size() + kBulkFrameEvents - 1) / kBulkFrameEvents;
    for (size_t f = 0; f <= body_frames; ++f) {
      const size_t off = f * kBulkFrameEvents;
      const std::span<const Event> events_out =
          f < body_frames
              ? body.subspan(off, std::min(kBulkFrameEvents, body.size() - off))
              : std::span<const Event>(stream.tail[corrupt]);
      const uint64_t ts = now_ns();
      if (!cl.send_events(events_out, &err)) {
        t.fail(who + " send: " + err);
        return false;
      }
      const uint64_t te = now_ns();
      ++t.frames;
      t.lag_ns.add(static_cast<double>(ts - due));
      const Span frame[] = {{"frame", -1, due, te},
                            {"gen.lag", 0, due, ts},
                            {"net.send_events", 0, ts, te}};
      tr.request(frame);
      due = te;
    }
    t.throttles += cl.throttles();
    const bool final_session = now_ns() >= deadline;
    if (final_session && scrape) {
      const std::string doc = http_get(a.uds, "/metrics.json");
      if (!doc.empty()) out.obs_json = doc;
      out.obs_window_ns = static_cast<double>(now_ns() - since);
    }
    const uint64_t b0 = now_ns();
    net::VerdictBody v;
    if (!cl.bye(&v, &err)) {
      t.fail(who + " bye: " + err);
      return false;
    }
    const uint64_t b1 = now_ns();
    const Span bye[] = {{"service.bye", -1, b0, b1}};
    tr.request(bye);
    const std::string bad = verdict_mismatch(v, corrupt, events);
    if (bad.empty()) {
      t.items += static_cast<double>(events);
      t.latency_ns.add(static_cast<double>(b1 - h0));
    } else {
      t.fail(who + ": " + bad);
    }
    if (final_session) return true;
  }
}

Outcome run_ingest_bulk(const Args& a) {
  Outcome out(!a.trace_path.empty(), kBulkKeepEvery);
  const size_t blocks = scaled(kBulkBlocks, a.scale, 16);
  std::vector<BulkStream> pool;
  for (size_t k = 0; k < kKinds; ++k) {
    pool.push_back(
        bulk_stream(static_cast<ObjectKind>(k), mix(a.seed, k), blocks));
  }
  const uint64_t epoch_ns = seconds_ns(a.seconds) / kBulkEpochs;
  std::vector<double> rss;
  size_t next = 0;
  for (size_t e = 0; e < kBulkEpochs; ++e) {
    std::unique_ptr<Daemon> d = start_daemon(a, out, kBulkSpawnsPerEpoch);
    if (!d) break;
    const bool last = e + 1 == kBulkEpochs;
    RssSampler sampler(d->pid());
    const uint64_t t0 = now_ns();
    const bool ok =
        bulk_sessions(a, pool, t0, t0 + epoch_ns, &next, last, out);
    out.busy_ns += static_cast<double>(now_ns() - t0);
    rss.push_back(sampler.stop());
    // Each daemon's whole-life peak, read before SIGTERM.
    out.peak_rss_mb = std::max(out.peak_rss_mb, vm_hwm_mb(d->pid()));
    const std::string stats = d->stop();
    if (last && !stats.empty()) out.server_json = stats;
    if (!ok) break;
  }
  out.rss_median_mb = median(rss);
  return out;
}

// ---- in-process workloads ------------------------------------------------------

// enforced_queue: one thread interleaves the five public steps of
// Figure 11 (SteppedAStar announce/invoke/complete, then MonitorCore
// publish/check: the calls SelfEnforced::apply and `selin_check --enforced`
// make) over 16 process slots of a fresh MS-queue object at a time.  At most
// two ops are open between announce and publish, and an op announced while
// another is open is a dequeue: two overlapping mutators make the checker's
// frontier blow up on every op.  Every 4th object ends with a dequeue whose
// published response was never enqueued, which the check must reject.
// Objects are fresh and of fixed size because memory grows with the
// object's history by design.
constexpr size_t kProcs = 16;
constexpr size_t kEnforcedOps = 5000;
constexpr uint64_t kEnforcedKeepEvery = 64;
constexpr Value kNeverEnqueued = -1;  // random_op enqueues 1..1,000,000

// In-process setup_s: each sample times this many constructions back to
// back (one takes microseconds, close to the clock's noise).  The run takes
// kSetupBatches samples before its clock starts and as many after it ends,
// each on the next CPU (see rotate_cpu), and reports their median.
constexpr size_t kSetupBatches = 5;
constexpr size_t kSetupPerBatch = 64;

/// One enforced MS-queue object: the implementation, its sequential
/// object, A* over it and the monitor core, destroyed in reverse order.
struct EnforcedObject {
  explicit EnforcedObject(const MonitorCore::Options& copts)
      : impl(make_ms_queue()),
        obj(make_linearizable_object(make_queue_spec())),
        astar(kProcs, *impl),
        step(astar),
        core(kProcs, kProcs, *obj, copts) {}

  std::unique_ptr<IConcurrent> impl;
  std::unique_ptr<GenLinObject> obj;
  AStar astar;
  SteppedAStar step;
  MonitorCore core;
};

/// Times kSetupBatches batches of kSetupPerBatch `make()` calls; the
/// results are freed after each batch, outside the timing.
template <typename Make>
void time_setup(Outcome& out, Make make) {
  for (size_t b = 0; b < kSetupBatches; ++b) {
    rotate_cpu(b);
    std::vector<decltype(make())> made;
    made.reserve(kSetupPerBatch);
    const uint64_t t0 = now_ns();
    for (size_t i = 0; i < kSetupPerBatch; ++i) made.push_back(make());
    const uint64_t t1 = now_ns();
    out.setup_ns.push_back(static_cast<double>(t1 - t0) /
                           static_cast<double>(kSetupPerBatch));
  }
}

/// One op in flight; spans[0] is the op, spans[1..5] its five steps.
struct OpenOp {
  ProcId p = 0;
  int stage = 0;  // steps done after announce: 0, invoke 1, complete 2
  AStar::Result r;
  Span spans[6] = {};
};

Outcome run_enforced_queue(const Args& a) {
  Outcome out(!a.trace_path.empty(), kEnforcedKeepEvery);
  Tally& t = out.tally;
  Tracer& tr = out.tracer;
  const size_t ops_per_object = scaled(kEnforcedOps, a.scale, 64);
  obs::MetricsRegistry reg;
  obs::EngineHooks ehooks;
  obs::LeveledHooks lhooks;
  MonitorCore::Options copts;
  if (tr.on()) {
    ehooks = obs::make_engine_hooks(reg);
    lhooks = obs::make_leveled_hooks(reg, {}, nullptr, 0, &ehooks);
    copts.obs = &lhooks;
  }
  const auto make_object = [&] {
    return std::make_unique<EnforcedObject>(copts);
  };
  time_setup(out, make_object);
  engine::EngineStats stats;
  RssSampler rss(::getpid());
  const uint64_t deadline = now_ns() + seconds_ns(a.seconds);
  for (size_t oi = 0; oi == 0 || now_ns() < deadline; ++oi) {
    const bool corrupt = oi % 4 == 3;
    Rng rng(mix(a.seed, 400 + oi));
    EnforcedObject eo(copts);
    SteppedAStar& step = eo.step;
    MonitorCore& core = eo.core;
    rotate_cpu(oi);

    const auto settle = [&](OpenOp& o, bool ok, bool corrupt_op) {
      ++t.attempted;
      uint64_t sum = 0;
      for (int i = 1; i <= 5; ++i) sum += o.spans[i].end - o.spans[i].start;
      o.spans[0] = {"op", -1, o.spans[1].start, o.spans[5].end};
      tr.request(o.spans, sum);
      t.latency_ns.add(static_cast<double>(sum));
      const bool rejected =
          core.check_status(o.p) == MonitorCore::CheckStatus::kRejected;
      if (corrupt_op ? !ok && rejected : ok) {
        t.items += 1;
      } else {
        t.fail("object " + std::to_string(oi) + " process " +
               std::to_string(o.p) + ": check " + (ok ? "passed" : "failed") +
               (corrupt_op ? " on a corrupt response" : ""));
      }
    };

    std::vector<OpenOp> open;
    open.reserve(2);
    std::vector<char> busy(kProcs, 0);
    const size_t body = corrupt ? ops_per_object - 1 : ops_per_object;
    size_t started = 0;
    uint64_t prev = now_ns();
    const uint64_t first = prev;
    while (started < body || !open.empty()) {
      if (started < body && open.size() < 2 &&
          (open.empty() || rng.chance(1, 2))) {
        auto p = static_cast<ProcId>(rng.below(kProcs));
        while (busy[p]) p = (p + 1) % kProcs;
        std::pair<Method, Value> op{Method::kDequeue, kNoArg};
        if (open.empty()) op = random_op(ObjectKind::kQueue, rng);
        OpenOp o;
        o.p = p;
        const uint64_t t0 = now_ns();
        step.announce(p, op.first, op.second);
        const uint64_t t1 = now_ns();
        t.lag_ns.add(static_cast<double>(t0 - prev));
        const Span lag[] = {{"gen.lag", -1, prev, t0}};
        tr.request(lag);
        o.spans[1] = {"core.announce", 0, t0, t1};
        busy[p] = 1;
        ++started;
        prev = t1;
        open.push_back(std::move(o));
        continue;
      }
      const size_t k = rng.below(open.size());
      OpenOp& o = open[k];
      const uint64_t t0 = now_ns();
      if (o.stage == 0) {
        step.invoke(o.p);
        prev = now_ns();
        o.spans[2] = {"core.invoke", 0, t0, prev};
        o.stage = 1;
        continue;
      }
      if (o.stage == 1) {
        o.r = step.complete(o.p);
        prev = now_ns();
        o.spans[3] = {"core.complete", 0, t0, prev};
        o.stage = 2;
        continue;
      }
      core.publish(o.p, o.r.op, o.r.y, std::move(o.r.view));
      const uint64_t t1 = now_ns();
      const bool ok = core.check(o.p);
      prev = now_ns();
      o.spans[4] = {"core.publish", 0, t0, t1};
      o.spans[5] = {"core.check", 0, t1, prev};
      settle(o, ok, false);
      busy[o.p] = 0;
      open.erase(open.begin() + static_cast<ptrdiff_t>(k));
    }
    if (corrupt) {
      OpenOp o;
      uint64_t s[6];
      s[0] = now_ns();
      step.announce(0, Method::kDequeue);
      s[1] = now_ns();
      step.invoke(0);
      s[2] = now_ns();
      o.r = step.complete(0);
      s[3] = now_ns();
      core.publish(0, o.r.op, kNeverEnqueued, std::move(o.r.view));
      s[4] = now_ns();
      const bool ok = core.check(0);
      s[5] = prev = now_ns();
      const char* names[] = {"core.announce", "core.invoke", "core.complete",
                             "core.publish", "core.check"};
      for (int i = 0; i < 5; ++i) o.spans[i + 1] = {names[i], 0, s[i], s[i + 1]};
      settle(o, ok, true);
    }
    out.busy_ns += static_cast<double>(prev - first);
    engine::accumulate(stats, core.stats());
  }
  out.rss_median_mb = rss.stop();
  out.peak_rss_mb = vm_hwm_mb(::getpid());
  time_setup(out, make_object);
  out.engine_json = obs::engine_stats_json(stats);
  if (tr.on()) {
    obs::sample_engine_stats(reg, stats);
    out.obs_json = obs::snapshot_json(reg);
  }
  return out;
}

// offline_audit: an auditor re-checks recorded runs.  A recorded run is a
// bundle of ten histories: three wide stack histories whose frontier swings
// to 2^k configurations three times (k = 10, 11, 12), which load the engine,
// and one narrow soak-shaped stream of each of the seven kinds, where parsing
// costs more than checking; narrow streams are sized so that each class
// takes about half the run.  The corpus is serialized to text before the
// clock starts.  Then, bundle after bundle, each history goes
// parse_history_string -> fresh LinMonitor -> feed_batch, and a bundle's
// latency runs from its first parse to its last verdict.  Every bundle does
// the same work (the seed varies values, not kinds or sizes), so latency has
// one mode; the latency of single histories had ten, its percentiles fell
// between them, and over ten runs their interquartile range reached 32% of
// the median.  Every 4th history of each class is corrupt and must be a
// violation.
constexpr size_t kAuditBundles = 8;  // distinct bundles, cycled
constexpr size_t kWideK[] = {10, 11, 12};
constexpr size_t kSwingPhases = 3;
constexpr size_t kNarrowBlocks = 2560;

struct AuditEntry {
  std::string text;
  ObjectKind kind;
  bool wide;
  bool corrupt;
  size_t events;
};

Outcome run_offline_audit(const Args& a) {
  Outcome out(!a.trace_path.empty());
  Tally& t = out.tally;
  Tracer& tr = out.tracer;
  const size_t narrow_blocks = scaled(kNarrowBlocks, a.scale, 8);
  Rng rng(mix(a.seed, 500));
  std::vector<std::vector<AuditEntry>> corpus(kAuditBundles);
  size_t wide = 0;
  size_t narrow = 0;
  for (std::vector<AuditEntry>& bundle : corpus) {
    for (size_t k : kWideK) {
      const bool bad = wide++ % 4 == 3;
      const History w = width_swing(rng, kSwingPhases, k, bad);
      bundle.push_back(
          {history_to_string(w), ObjectKind::kStack, true, bad, w.size()});
    }
    for (size_t k = 0; k < kKinds; ++k) {
      const auto kind = static_cast<ObjectKind>(k);
      const bool bad = narrow % 4 == 3;
      const History n =
          soak_stream(kind, mix(a.seed, 600 + narrow++), narrow_blocks, bad);
      bundle.push_back({history_to_string(n), kind, false, bad, n.size()});
    }
  }
  std::vector<std::unique_ptr<SeqSpec>> specs;
  for (size_t k = 0; k < kKinds; ++k) {
    specs.push_back(make_spec(static_cast<ObjectKind>(k)));
  }
  obs::MetricsRegistry reg;
  obs::EngineHooks ehooks;
  if (tr.on()) ehooks = obs::make_engine_hooks(reg);
  size_t next_spec = 0;
  const auto make_monitor = [&] {
    auto mon = std::make_unique<LinMonitor>(*specs[next_spec++ % kKinds]);
    if (tr.on()) mon->attach_obs(&ehooks);
    return mon;
  };
  time_setup(out, make_monitor);
  engine::EngineStats stats;
  RssSampler rss(::getpid());
  const uint64_t deadline = now_ns() + seconds_ns(a.seconds);
  uint64_t prev = now_ns();
  const uint64_t first = prev;
  size_t h = 0;  // histories checked, for CPU rotation
  for (size_t b = 0; b == 0 || prev < deadline; ++b) {
    const uint64_t b0 = prev;
    const std::vector<AuditEntry>& bundle = corpus[b % corpus.size()];
    for (size_t j = 0; j < bundle.size(); ++j) {
      const AuditEntry& e = bundle[j];
      rotate_cpu(h++);
      const std::string who = "bundle " + std::to_string(b % corpus.size()) +
                              " history " + std::to_string(j);
      ++t.attempted;
      const uint64_t t0 = now_ns();
      uint64_t t1, t2, t3, t4;
      bool ok, overflowed;
      engine::EngineStats st;
      {
        History hist;
        try {
          hist = parse_history_string(e.text);
        } catch (const std::exception& ex) {
          t.fail(who + " parse: " + ex.what());
          prev = now_ns();
          continue;
        }
        t1 = now_ns();
        LinMonitor mon(*specs[static_cast<size_t>(e.kind)]);
        if (tr.on()) mon.attach_obs(&ehooks);
        t2 = now_ns();
        try {
          mon.feed_batch(hist);
        } catch (const CheckerOverflow&) {
          // overflowed() stays set; the oracle below counts it as a failure
        }
        t3 = now_ns();
        ok = mon.ok() && !mon.overflowed();
        overflowed = mon.overflowed();
        st = mon.stats();
        t4 = now_ns();
      }
      // Freeing a wide frontier is work the auditor pays per history too.
      const uint64_t t5 = now_ns();
      t.lag_ns.add(static_cast<double>(t0 - prev));
      const Span spans[] = {
          {"history", -1, prev, t5},
          {"gen.lag", 0, prev, t0},
          {"io.parse", 0, t0, t1},
          {"engine.construct", 0, t1, t2},
          {e.wide ? "engine.feed_batch.wide" : "engine.feed_batch.narrow", 0,
           t2, t3},
          {"engine.release", 0, t4, t5}};
      tr.request(spans);
      prev = t5;
      engine::accumulate(stats, st);
      if (e.corrupt ? !ok && !overflowed : ok && st.events_fed == e.events) {
        t.items += static_cast<double>(e.events);
      } else {
        t.fail(who + (e.corrupt ? ": violation missed" : ": rejected") +
               (overflowed ? " (overflow)" : ""));
      }
    }
    t.latency_ns.add(static_cast<double>(prev - b0));
  }
  out.busy_ns = static_cast<double>(prev - first);
  out.rss_median_mb = rss.stop();
  out.peak_rss_mb = vm_hwm_mb(::getpid());
  time_setup(out, make_monitor);
  out.engine_json = obs::engine_stats_json(stats);
  if (tr.on()) {
    obs::sample_engine_stats(reg, stats);
    out.obs_json = obs::snapshot_json(reg);
  }
  return out;
}

// ---- main --------------------------------------------------------------------

int usage() {
  std::cerr << "usage: selin_e2e <ingest_bulk|enforced_queue|offline_audit> "
               "--seed S --seconds T [--scale F] "
               "[--trace FILE] [--daemon PATH --uds PATH]\n";
  return 2;
}

std::string report(const Args& a, Outcome& out) {
  Tally& t = out.tally;
  std::vector<double>& latency_ns = t.latency_ns.values();
  std::vector<double>& lag_ns = t.lag_ns.values();
  std::sort(latency_ns.begin(), latency_ns.end());
  std::sort(lag_ns.begin(), lag_ns.end());
  std::sort(out.setup_ns.begin(), out.setup_ns.end());
  std::string failures = "[";
  for (size_t i = 0; i < t.failures.size(); ++i) {
    failures += (i > 0 ? "," : "") + json_str(t.failures[i]);
  }
  failures += ']';
  const auto ms = [&](double q) {
    return sorted_quantile(latency_ns, q) / 1e6;
  };
  std::vector<double> setup_s;
  for (double ns : out.setup_ns) setup_s.push_back(ns / 1e9);
  return Obj()
      .str("workload", a.workload)
      .num("seed", static_cast<double>(a.seed))
      .num("attempted", static_cast<double>(t.attempted))
      .num("failed", static_cast<double>(t.failed))
      .raw("failures", failures)
      .num("items", t.items)
      .num("busy_s", out.busy_ns / 1e9)
      .raw("latency_ms", Obj()
                             .num("p50", ms(0.5))
                             .num("p90", ms(0.90))
                             .num("p95", ms(0.95))
                             .num("p99", ms(0.99))
                             .num("p999", ms(0.999))
                             .num("mean", mean(latency_ns) / 1e6)
                             .num("samples",
                                  static_cast<double>(latency_ns.size()))
                             .text())
      .raw("lag_us", Obj()
                         .num("mean", mean(lag_ns) / 1e3)
                         .num("p99", sorted_quantile(lag_ns, 0.99) / 1e3)
                         .text())
      .raw("setup_s", json_array(setup_s))
      .num("peak_rss_mb", out.peak_rss_mb)
      .num("rss_median_mb", out.rss_median_mb)
      .num("frames", static_cast<double>(t.frames))
      .num("throttles", static_cast<double>(t.throttles))
      .raw("engine", out.engine_json)
      .raw("obs", out.obs_json)
      .num("obs_window_s", out.obs_window_ns / 1e9)
      .raw("server", out.server_json)
      .raw("trace", out.tracer.on() ? out.tracer.summary() : "null")
      .text();
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t epoch = now_ns();
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg.rfind("--", 0) != 0) {
      if (!a.workload.empty()) return usage();
      a.workload = arg;
      continue;
    }
    if (val == nullptr) return usage();
    ++i;
    char* end = nullptr;
    if (arg == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(val, &end);
    } else if (arg == "--scale") {
      a.scale = std::strtod(val, &end);
    } else if (arg == "--trace") {
      a.trace_path = val;
    } else if (arg == "--daemon") {
      a.daemon = val;
    } else if (arg == "--uds") {
      a.uds = val;
    } else {
      return usage();
    }
    if (end != nullptr && (end == val || *end != '\0')) return usage();
  }
  if (!(a.seconds > 0) || !(a.scale > 0)) return usage();
  const bool ingest = a.workload.rfind("ingest_", 0) == 0;
  if (ingest && (a.daemon.empty() || a.uds.empty())) return usage();
  std::signal(SIGPIPE, SIG_IGN);

  Outcome (*run)(const Args&) = nullptr;
  if (a.workload == "ingest_bulk") run = run_ingest_bulk;
  if (a.workload == "enforced_queue") run = run_enforced_queue;
  if (a.workload == "offline_audit") run = run_offline_audit;
  if (run == nullptr) return usage();
  Outcome out = run(a);
  if (out.tracer.on() && !out.tracer.write_jsonl(a.trace_path, epoch)) {
    std::cerr << "selin_e2e: cannot write " << a.trace_path << "\n";
    return 2;
  }
  std::cout << report(a, out) << std::endl;
  return out.tally.failed == 0 && out.tally.attempted > 0 ? 0 : 1;
}
