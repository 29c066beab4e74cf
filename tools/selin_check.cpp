// selin_check — offline linearizability checker over text histories.
//
// Single-history mode:
//   selin_check <object> <history-file> [--witness] [--quiet] [--stats]
//   selin_check <object> -              (read from stdin)
//
// Multi-history mode (more than one file): every file becomes an
// independent session of a service::MonitorService — files are streamed
// line-at-a-time (HistoryStreamReader) and their batches are fed
// round-robin, one session after another:
//   selin_check <object> file1 file2 ... [--quiet] [--stats]
// A per-file verdict summary table is printed at the end (unless --quiet,
// which prints only failing files).
//
// <object>: queue | stack | set | pqueue | counter | register | consensus
//
// The witness (--witness, single-history only) comes from the DFS, which is
// the only checker that records a linearization order.  --stats prints the
// engine's execution counters per history.
//
// Observability outputs (both modes):
//   --stats-json       print the engine counters as one JSON object per
//                      history (stable keys — see obs::engine_stats_json) on
//                      stdout; in multi-history mode one
//                      {"file":...,"stats":{...}} line per session.
//   --metrics <file|-> attach the obs metrics plane (per-session registries,
//                      engine round/frontier histograms, drain-round
//                      instruments in multi mode) and write one
//                      obs::snapshot_json document at exit.  `-` writes the
//                      document to stdout and implies --quiet, so stdout is
//                      a single parseable JSON document.
//   --trace <file>     attach an obs::JsonlSink: one JSON line per span
//                      event (feed rounds, rollbacks, resyncs, drain
//                      rounds, session batches — see obs/trace.hpp).
// Verdict exit codes are unchanged by these flags; an unwritable metrics or
// trace file is a usage error (2).
//
// Exit codes, single-history mode: 0 = linearizable, 1 = NOT linearizable,
// 2 = usage/parse error, 3 = exploration budget overflow (verdict unknown —
// the membership problem is NP-hard and this history has too much sustained
// concurrency).
//
// Exit codes, multi-history mode (worst session wins, most severe first):
//   4 = at least one session errored (file unreadable or malformed);
//   3 = at least one session overflowed its exploration budget;
//   1 = at least one history NOT linearizable;
//   0 = every history linearizable;
//   2 = usage error (bad flags/object — nothing was checked).
// The distinct codes let scripts separate "your trace is broken" (4) from
// "the verdict is unknown" (3) from "the implementation is wrong" (1).
//
// This is the P_O membership test of the paper exposed as a tool: the same
// engine the runtime verifier uses (and the same format certificates are
// exported in), so an auditor can re-validate a self-enforced object's
// witness without running the system (Section 8.3 forensics).
//
// Enforcement replay (--enforced, single-history only): instead of feeding
// the raw history to the membership monitor, re-run it through the actual
// enforcement stack — A* announcements over a replayed implementation (each
// response comes from the recorded history, not a live object) and
// MonitorCore's publish/check discipline, exactly the per-op path a
// SelfEnforced object executes (Figure 11).  Exit codes are the
// single-history codes: 0 = no check flagged, 1 = some check flagged,
// 3 = a checker overflowed its budget (sticky; verdict unknown).
// --stats/--stats-json/--metrics report the aggregated engine counters of
// all per-process checkers (the same stable keys — enforced objects are no
// longer opaque to the observability plane).  --witness is membership-mode
// only.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <unordered_map>
#include <vector>

#include "selin/core/astar.hpp"
#include "selin/core/monitor_core.hpp"
#include "selin/io/history_io.hpp"
#include "selin/lincheck/checker.hpp"
#include "selin/lincheck/monitor.hpp"
#include "selin/obs/export.hpp"
#include "selin/obs/hooks.hpp"
#include "selin/obs/trace.hpp"
#include "selin/service/monitor_service.hpp"
#include "selin/sim/workload.hpp"

namespace {

using namespace selin;

std::optional<ObjectKind> parse_object(const std::string& s) {
  if (s == "queue") return ObjectKind::kQueue;
  if (s == "stack") return ObjectKind::kStack;
  if (s == "set") return ObjectKind::kSet;
  if (s == "pqueue") return ObjectKind::kPqueue;
  if (s == "counter") return ObjectKind::kCounter;
  if (s == "register") return ObjectKind::kRegister;
  if (s == "consensus") return ObjectKind::kConsensus;
  return std::nullopt;
}

int usage() {
  std::cerr << "usage: selin_check <queue|stack|set|pqueue|counter|register|"
               "consensus> <file|-> [--witness] [--enforced] [--quiet] "
               "[--stats] [--stats-json] [--metrics <file|->] "
               "[--trace <file>]\n"
               "       selin_check <object> <file> <file> ... [--quiet] "
               "[--stats] [--stats-json] [--metrics <file|->] "
               "[--trace <file>]\n";
  return 2;
}

/// Observability outputs shared by both modes.
struct ObsOpts {
  bool want_stats = false;
  bool stats_json = false;
  std::string metrics;  // empty = off; "-" = stdout
  std::string trace;    // empty = off
  bool enabled() const { return !metrics.empty() || !trace.empty(); }
};

/// Write one snapshot_json document to `target` ("-" = stdout).  Returns
/// false (after complaining) when the file cannot be written.
bool write_metrics(const obs::MetricsSnapshot& snap,
                   const std::string& target) {
  const std::string doc = obs::snapshot_json(snap);
  if (target == "-") {
    std::cout << doc << "\n";
    return true;
  }
  std::ofstream out(target);
  if (!out) {
    std::cerr << "selin_check: cannot write metrics to " << target << "\n";
    return false;
  }
  out << doc << "\n";
  return true;
}

void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  out.push_back('"');
}

void print_stats(const engine::EngineStats& s) {
  double hit_rate =
      s.dedup_probes == 0
          ? 0.0
          : static_cast<double>(s.dedup_hits) / static_cast<double>(s.dedup_probes);
  std::cout << "# engine stats: events=" << s.events_fed
            << " rounds_seq=" << s.rounds_sequential
            << " peak_frontier=" << s.peak_frontier
            << " dedup_probes=" << s.dedup_probes
            << " dedup_hit_rate=" << hit_rate
            << " states_recycled=" << s.states_recycled << "\n";
}

int run_single(ObjectKind kind, const std::string& path, bool want_witness,
               bool quiet, const ObsOpts& oo) {
  History h;
  try {
    if (path == "-") {
      h = parse_history(std::cin);
    } else {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "selin_check: cannot open " << path << "\n";
        return 2;
      }
      h = parse_history(in);
    }
  } catch (const HistoryParseError& e) {
    std::cerr << "selin_check: parse error: " << e.what() << "\n";
    return 2;
  }

  std::unique_ptr<obs::JsonlSink> tsink;
  if (!oo.trace.empty()) {
    tsink = std::make_unique<obs::JsonlSink>(oo.trace);
    if (!tsink->ok()) {
      std::cerr << "selin_check: cannot write trace to " << oo.trace << "\n";
      return 2;
    }
  }

  auto spec = make_spec(kind);
  LinMonitor m(*spec);
  obs::MetricsRegistry reg;
  obs::EngineHooks hooks;
  if (oo.enabled()) {
    hooks = obs::make_engine_hooks(reg, {}, tsink.get());
    m.attach_obs(&hooks);
  }

  // Common tail of every verdict path: the per-history machine-readable
  // outputs, then the exit code (2 if a metrics file was unwritable).
  auto finish = [&](int code) {
    if (oo.want_stats) print_stats(m.stats());
    if (oo.stats_json) {
      std::cout << obs::engine_stats_json(m.stats()) << "\n";
    }
    if (!oo.metrics.empty()) {
      obs::sample_engine_stats(reg, m.stats());
      if (!write_metrics(reg.snapshot(), oo.metrics)) return 2;
    }
    return code;
  };

  size_t first_bad = h.size();
  try {
    for (size_t i = 0; i < h.size(); ++i) {
      m.feed(h[i]);
      if (!m.ok()) {
        first_bad = i;
        break;
      }
    }
  } catch (const CheckerOverflow&) {
    std::cerr << "selin_check: OVERFLOW — exploration budget exceeded; "
                 "verdict unknown (too much sustained concurrency; the "
                 "membership problem is NP-hard)\n";
    return finish(3);
  }

  if (m.ok()) {
    std::optional<History> lin;
    bool witness_overflow = false;
    if (want_witness) {
      try {
        lin = find_linearization(*spec, h);
      } catch (const CheckerOverflow&) {
        // The membership verdict above already stands; only the witness
        // search ran out of budget.  Report the verdict, warn about the
        // missing witness.
        witness_overflow = true;
      }
    }
    if (witness_overflow) {
      std::cerr << "selin_check: witness search exceeded its budget; "
                   "reporting the verdict without a linearization\n";
    }
    if (!quiet) {
      std::cout << "LINEARIZABLE (" << h.size() << " events";
      if (lin.has_value()) {
        std::cout << ", " << lin->size() / 2 << " ops linearized";
      }
      std::cout << ")\n";
      if (want_witness && lin.has_value()) {
        std::cout << "# linearization:\n";
        write_history(std::cout, *lin);
      }
    }
    return finish(0);
  }
  if (!quiet) {
    std::cout << "NOT LINEARIZABLE\n";
    std::cout << "# first inconsistent event (index " << first_bad
              << "): " << to_string(h[first_bad]) << "\n";
  }
  return finish(1);
}

/// The replayed implementation for --enforced: Apply(op) returns the
/// response the history recorded for that process's next completion, so
/// the enforcement stack re-executes the trace without a live object.
/// Responses pop per-process FIFO — a well-formed history completes each
/// process's operations in program order, which is also the order the
/// replay loop invokes them.
class ReplayImpl final : public IConcurrent {
 public:
  explicit ReplayImpl(const History& h) {
    for (const Event& e : h) {
      if (e.is_res()) recorded_[e.op.id.pid].push_back(e.result);
    }
  }
  const char* name() const override { return "replay"; }
  Value apply(ProcId p, const OpDesc&) override {
    auto it = recorded_.find(p);
    if (it == recorded_.end() || next_[p] >= it->second.size()) return kNoArg;
    return it->second[next_[p]++];
  }

 private:
  std::unordered_map<uint32_t, std::vector<Value>> recorded_;
  std::unordered_map<uint32_t, size_t> next_;
};

int run_enforced(ObjectKind kind, const std::string& path, bool quiet,
                 const ObsOpts& oo) {
  History h;
  try {
    if (path == "-") {
      h = parse_history(std::cin);
    } else {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "selin_check: cannot open " << path << "\n";
        return 2;
      }
      h = parse_history(in);
    }
  } catch (const HistoryParseError& e) {
    std::cerr << "selin_check: parse error: " << e.what() << "\n";
    return 2;
  }

  // SteppedAStar drives at most 64 process slots (its open-op table is
  // fixed); enforcement replay inherits the bound.
  uint32_t max_pid = 0;
  for (const Event& e : h) max_pid = std::max(max_pid, e.op.id.pid);
  const size_t n = static_cast<size_t>(max_pid) + 1;
  if (h.empty() || n > 64) {
    std::cerr << "selin_check: --enforced replays 1..64 process slots ("
              << (h.empty() ? 0 : n) << " in this history)\n";
    return 2;
  }

  std::unique_ptr<obs::JsonlSink> tsink;
  if (!oo.trace.empty()) {
    tsink = std::make_unique<obs::JsonlSink>(oo.trace);
    if (!tsink->ok()) {
      std::cerr << "selin_check: cannot write trace to " << oo.trace << "\n";
      return 2;
    }
  }
  obs::MetricsRegistry reg;
  obs::EngineHooks ehooks;
  obs::LeveledHooks lhooks;
  auto obj = make_linearizable_object(make_spec(kind));
  MonitorCore::Options copts;
  if (oo.enabled()) {
    ehooks = obs::make_engine_hooks(reg, {}, tsink.get());
    lhooks = obs::make_leveled_hooks(reg, {}, tsink.get(), 0, &ehooks);
    copts.obs = &lhooks;
  }

  ReplayImpl replay(h);
  AStar astar(n, replay);
  SteppedAStar step(astar);
  MonitorCore core(n, n, *obj, copts);

  auto finish = [&](int code) {
    if (oo.want_stats) print_stats(core.stats());
    if (oo.stats_json) {
      std::cout << obs::engine_stats_json(core.stats()) << "\n";
    }
    if (!oo.metrics.empty()) {
      obs::sample_engine_stats(reg, core.stats());
      if (!write_metrics(reg.snapshot(), oo.metrics)) return 2;
    }
    return code;
  };

  // Replay the trace through the Figure 11 per-op path: inv = announce (A*
  // Lines 01-02), res = invoke+snapshot (Lines 03-07) then publish+check.
  std::vector<char> open(n, 0);
  for (size_t i = 0; i < h.size(); ++i) {
    const Event& e = h[i];
    const ProcId p = static_cast<ProcId>(e.op.id.pid);
    if (e.is_inv()) {
      if (open[p]) {
        std::cerr << "selin_check: event " << i << " invokes on process "
                  << p << " with an operation still open\n";
        return 2;
      }
      open[p] = 1;
      step.announce(p, e.op.method, e.op.arg);
      continue;
    }
    if (!open[p]) {
      std::cerr << "selin_check: event " << i << " responds on process " << p
                << " with no open operation\n";
      return 2;
    }
    open[p] = 0;
    step.invoke(p);
    AStar::Result r = step.complete(p);
    core.publish(p, r.op, r.y, r.view);
    if (!core.check(p)) {
      if (core.overflowed(p)) {
        std::cerr << "selin_check: OVERFLOW — process " << p
                  << "'s checker exceeded its budget at event " << i
                  << "; verdict unknown from here (sticky)\n";
        return finish(3);
      }
      if (!quiet) {
        std::cout << "FLAGGED\n";
        std::cout << "# process " << p << "'s check flagged at event " << i
                  << ": " << to_string(e) << "\n";
      }
      return finish(1);
    }
  }
  if (!quiet) {
    std::cout << "ENFORCED OK (" << h.size()
              << " events; every per-op check passed)\n";
  }
  return finish(0);
}

int run_multi(ObjectKind kind, const std::vector<std::string>& files,
              bool quiet, const ObsOpts& oo) {
  struct FileCtx {
    std::string path;
    std::ifstream stream;
    std::unique_ptr<HistoryStreamReader> reader;
    service::SessionId sid = 0;
    bool has_session = false;
    bool eof = false;
    std::string error;
  };

  std::unique_ptr<obs::JsonlSink> tsink;
  if (!oo.trace.empty()) {
    tsink = std::make_unique<obs::JsonlSink>(oo.trace);
    if (!tsink->ok()) {
      std::cerr << "selin_check: cannot write trace to " << oo.trace << "\n";
      return 2;
    }
  }
  // `--metrics -` must leave stdout a single parseable JSON document, so the
  // verdict table (including quiet mode's failing-file lines) is suppressed;
  // the exit code still carries the aggregate verdict.
  const bool suppress_report = oo.metrics == "-";

  service::ServiceOptions so;
  so.batch_limit = 512;
  so.observe = oo.enabled();
  so.trace = tsink.get();
  service::MonitorService svc(so);

  std::vector<FileCtx> ctxs(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    FileCtx& c = ctxs[i];
    c.path = files[i];
    c.stream.open(c.path);
    if (!c.stream) {
      c.error = "cannot open";
      c.eof = true;
      continue;
    }
    c.reader = std::make_unique<HistoryStreamReader>(c.stream);
    c.sid = svc.open(c.path, make_spec(kind));
    c.has_session = true;
  }

  // Stream round-robin: one read batch per live file, then one service
  // drain round, so no single deep file monopolizes either io or the
  // checker.  A parse error settles that file as ERRORED but the other
  // sessions keep going.
  constexpr size_t kReadBatch = 512;
  std::vector<Event> batch;
  for (;;) {
    bool reading = false;
    for (FileCtx& c : ctxs) {
      if (c.eof) continue;
      if (c.has_session && !svc.session(c.sid).ok()) {
        // Settled verdict (violation/overflow is sticky): further input
        // cannot change it, so don't parse the rest of the file.
        c.eof = true;
        continue;
      }
      batch.clear();
      try {
        if (c.reader->read_batch(batch, kReadBatch) == 0) {
          c.eof = true;
          // A dead stream that is not at end-of-file (directory passed as a
          // file, I/O error mid-trace) is a session error, not a clean EOF.
          if (!c.stream.eof()) c.error = "read error (stream failed)";
        }
      } catch (const HistoryParseError& e) {
        c.error = e.what();
        c.eof = true;
      }
      if (!batch.empty()) svc.feed(c.sid, batch);
      reading = reading || !c.eof;
    }
    if (svc.drain_round() == 0 && !reading) break;
  }
  svc.drain();

  size_t width = 4;  // "file" header
  for (const FileCtx& c : ctxs) width = std::max(width, c.path.size());
  bool any_error = false, any_overflow = false, any_violation = false;
  if (!quiet && !suppress_report) {
    std::cout << std::left << std::setw(static_cast<int>(width + 2)) << "file"
              << std::setw(12) << "verdict" << "events\n";
  }
  for (const FileCtx& c : ctxs) {
    std::string verdict;
    std::string detail;
    size_t events = 0;
    if (!c.error.empty()) {
      any_error = true;
      verdict = "ERROR";
      detail = c.error;
      if (c.has_session) events = svc.session(c.sid).events_fed();
    } else {
      const service::Session& s = svc.session(c.sid);
      events = s.events_fed();
      switch (s.status()) {
        case service::Session::Status::kOk:
          verdict = "OK";
          break;
        case service::Session::Status::kRejected:
          any_violation = true;
          verdict = "VIOLATION";
          detail = "inconsistent within events [" +
                   std::to_string(s.first_bad_index()) + ", " +
                   std::to_string(s.events_fed()) + ")";
          break;
        case service::Session::Status::kOverflowed:
          any_overflow = true;
          verdict = "OVERFLOW";
          detail = "budget exceeded; verdict unknown";
          break;
      }
    }
    if ((!quiet || verdict != "OK") && !suppress_report) {
      std::cout << std::left << std::setw(static_cast<int>(width + 2))
                << c.path << std::setw(12) << verdict << events;
      if (!detail.empty()) std::cout << "  # " << detail;
      std::cout << "\n";
    }
    if (oo.want_stats && c.has_session) {
      print_stats(svc.session(c.sid).stats());
    }
    if (oo.stats_json && c.has_session && !suppress_report) {
      std::string line = "{\"file\":";
      append_json_string(line, c.path);
      line += ",\"stats\":";
      line += obs::engine_stats_json(svc.session(c.sid).stats());
      line += "}";
      std::cout << line << "\n";
    }
  }
  if (!oo.metrics.empty() &&
      !write_metrics(svc.metrics_snapshot(), oo.metrics)) {
    return 2;
  }
  if (any_error) return 4;
  if (any_overflow) return 3;
  if (any_violation) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  auto kind = parse_object(argv[1]);
  if (!kind.has_value()) return usage();
  bool want_witness = false, quiet = false, want_enforced = false;
  ObsOpts oo;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--witness") want_witness = true;
    else if (flag == "--enforced") want_enforced = true;
    else if (flag == "--quiet") quiet = true;
    else if (flag == "--stats") oo.want_stats = true;
    else if (flag == "--stats-json") oo.stats_json = true;
    else if (flag == "--metrics" && i + 1 < argc) oo.metrics = argv[++i];
    else if (flag == "--trace" && i + 1 < argc) oo.trace = argv[++i];
    else if (!flag.empty() && flag[0] == '-' && flag != "-") return usage();
    else files.push_back(flag);
  }
  if (files.empty()) return usage();
  // stdout carries the metrics document: keep it free of verdict prose.
  if (oo.metrics == "-") quiet = true;

  const bool multi = files.size() > 1;
  if (want_enforced) {
    if (multi) {
      std::cerr << "selin_check: --enforced is single-history only\n";
      return usage();
    }
    if (want_witness) {
      std::cerr << "selin_check: --enforced replays checks; --witness is "
                   "membership-mode only\n";
      return usage();
    }
    return run_enforced(*kind, files[0], quiet, oo);
  }
  if (!multi) {
    return run_single(*kind, files[0], want_witness, quiet, oo);
  }
  if (want_witness) {
    std::cerr << "selin_check: --witness is single-history only\n";
    return usage();
  }
  for (const std::string& f : files) {
    if (f == "-") {
      std::cerr << "selin_check: stdin ('-') is single-history only\n";
      return usage();
    }
  }
  return run_multi(*kind, files, quiet, oo);
}
