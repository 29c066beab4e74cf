// Live-ingest facet (`ingest` in BENCH_lincheck.json, recorded by
// tools/run_bench.sh --facet ingest): what the binary wire protocol buys
// over the text pipeline it displaces, and what the full MPSC publish +
// drain path costs on top of raw decoding.
//
//   BM_IngestWireDecode  peek_frame + decode_events over a pre-encoded
//                        kEvents frame stream — the daemon reactor's
//                        per-connection hot path (no heap per frame).
//   BM_IngestTextParse   the same history through io/history_io's streaming
//                        reader — the selin_check file path the wire format
//                        keeps off the live path.
//   BM_IngestMpscPublishDrain
//                        decoded batches published into a session's bounded
//                        MPSC inbox and drained by the service — end to end
//                        minus the sockets.
//
// Single-producer and deterministic, but timings ride the host's allocator
// and cache sizes; the facet is recorded for the trajectory and excluded
// from the regression gate (BM_Ingest in tools/bench_gate.py
// UNSTABLE_PREFIXES) until the bench-scaling job records it on the CI
// runner.
#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

#include "selin/io/history_io.hpp"
#include "selin/net/wire.hpp"
#include "selin/selin.hpp"
#include "selin/service/monitor_service.hpp"

namespace {

using namespace selin;

constexpr size_t kOps = 4096;        // 8192 events
constexpr size_t kFrameEvents = 256;  // events per kEvents frame

// Linearizable-by-construction queue history: width-2 mutator∥consumer
// blocks, the soak driver's shape (tools/selin_ingest_soak.cpp).  The
// consumer side of each overlapped pair is resolved by its own response, so
// the monitor's frontier stays O(1) and the publish+drain arm measures the
// transport, not an adversarial checking instance (random mutator∥mutator
// overlaps compound queue-order ambiguities exponentially).
History make_stream(uint64_t seed) {
  Rng rng(seed);
  auto state = make_spec(ObjectKind::kQueue)->initial();
  History h;
  h.reserve(2 * kOps);
  uint32_t seq[2] = {0, 0};
  while (h.size() < 2 * kOps) {
    auto [m, arg] = random_op(ObjectKind::kQueue, rng);
    const OpDesc a{OpId{0, seq[0]++}, m, arg};
    const OpDesc b{OpId{1, seq[1]++}, Method::kDequeue, kNoArg};
    const Value ra = state->step(a.method, a.arg);
    const Value rb = state->step(b.method, b.arg);
    h.push_back(Event::inv(a));
    h.push_back(Event::inv(b));
    h.push_back(Event::res(a, ra));
    h.push_back(Event::res(b, rb));
  }
  return h;
}

/// The history pre-encoded as consecutive kEvents frames.
std::vector<uint8_t> encode_frames(const History& h) {
  std::vector<uint8_t> wire;
  uint32_t seq = 0;
  for (size_t at = 0; at < h.size(); at += kFrameEvents) {
    const size_t n = std::min(kFrameEvents, h.size() - at);
    net::append_events(wire, /*session=*/1, seq++, {h.data() + at, n});
  }
  return wire;
}

void BM_IngestWireDecode(benchmark::State& state) {
  const History h = make_stream(0x1357);
  const std::vector<uint8_t> wire = encode_frames(h);
  std::vector<Event> batch;
  uint64_t events = 0;
  for (auto _ : state) {
    size_t at = 0;
    while (at < wire.size()) {
      net::FrameView f;
      if (net::peek_frame({wire.data() + at, wire.size() - at}, f) !=
          net::DecodeStatus::kFrame) {
        state.SkipWithError("bad frame");
        return;
      }
      if (!net::decode_events(f.body, batch)) {
        state.SkipWithError("bad records");
        return;
      }
      benchmark::DoNotOptimize(batch.data());
      events += batch.size();
      at += f.frame_len;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * wire.size()));
  state.SetLabel("wire-decode");
}
BENCHMARK(BM_IngestWireDecode);

void BM_IngestTextParse(benchmark::State& state) {
  const History h = make_stream(0x1357);
  const std::string text = history_to_string(h);
  std::vector<Event> batch;
  uint64_t events = 0;
  for (auto _ : state) {
    std::istringstream in(text);
    HistoryStreamReader reader(in);
    for (;;) {
      batch.clear();
      if (reader.read_batch(batch, kFrameEvents) == 0) break;
      benchmark::DoNotOptimize(batch.data());
      events += batch.size();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * text.size()));
  state.SetLabel("text-parse");
}
BENCHMARK(BM_IngestTextParse);

void BM_IngestMpscPublishDrain(benchmark::State& state) {
  const History h = make_stream(0x1357);
  uint64_t events = 0;
  for (auto _ : state) {
    service::ServiceOptions opts;
    opts.batch_limit = 512;
    service::MonitorService svc(opts);
    const auto sid = svc.open("bench", make_spec(ObjectKind::kQueue));
    service::Session* s = svc.find(sid);
    for (size_t at = 0; at < h.size(); at += kFrameEvents) {
      const size_t n = std::min(kFrameEvents, h.size() - at);
      while (!s->try_publish({h.data() + at, n})) svc.drain_round();
    }
    while (s->backlog() > 0) svc.drain_round();
    if (!s->ok()) {
      state.SkipWithError("stream rejected");
      return;
    }
    events += s->events_fed();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.SetLabel("publish+drain");
}
BENCHMARK(BM_IngestMpscPublishDrain)->Unit(benchmark::kMillisecond);

}  // namespace
