// Observability subsystem (src/selin/obs/): sharded instruments vs a
// single-threaded oracle under concurrent writers, registry get-or-register
// consistency, ring-recorder bounds, per-session trace ordering, export
// round-trips, and end-to-end hook attachment through LinMonitor and
// MonitorService.  Runs in the TSan CI leg — the concurrency tests double
// as data-race probes on the lane-sharded cells and the sink mutexes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <sstream>
#include <thread>

#include "selin/obs/export.hpp"
#include "selin/obs/hooks.hpp"
#include "selin/obs/metrics.hpp"
#include "selin/obs/trace.hpp"
#include "selin/service/monitor_service.hpp"
#include "test_util.hpp"

namespace selin::obs {
namespace {

// ---- metrics core ---------------------------------------------------------

TEST(ObsCounter, ConcurrentWritersMatchOracle) {
  Counter c;
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> ts;
  for (size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.add(i % 3 + 1);
    });
  }
  for (auto& t : ts) t.join();
  // Oracle: each thread adds sum of (i % 3 + 1) over kPerThread iterations.
  uint64_t per = 0;
  for (uint64_t i = 0; i < kPerThread; ++i) per += i % 3 + 1;
  EXPECT_EQ(c.value(), per * kThreads);
}

TEST(ObsGauge, AddShardsAndSumsSetCollapses) {
  Gauge g;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&g] {
      for (int i = 0; i < 1000; ++i) g.add(2);
      for (int i = 0; i < 1000; ++i) g.add(-1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(g.value(), 4 * 1000);
  g.set(7);
  EXPECT_EQ(g.value(), 7);
}

TEST(ObsHistogram, ConcurrentRecordsMatchOracle) {
  Histogram h;
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> ts;
  for (size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.record(t * 1000 + i);
    });
  }
  for (auto& t : ts) t.join();

  // Single-threaded oracle over the same value stream.
  uint64_t count = 0, sum = 0, max = 0;
  uint64_t buckets[Histogram::kBuckets] = {};
  for (size_t t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      const uint64_t v = t * 1000 + i;
      ++count;
      sum += v;
      max = std::max(max, v);
      ++buckets[std::bit_width(v)];
    }
  }
  EXPECT_EQ(h.count(), count);
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.max(), max);
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(h.bucket(b), buckets[b]) << "bucket " << b;
  }
}

TEST(ObsHistogram, BucketBoundsAndQuantiles) {
  Histogram h;
  EXPECT_EQ(Histogram::bucket_bound(0), 0u);   // v == 0
  EXPECT_EQ(Histogram::bucket_bound(1), 1u);   // [1, 1]
  EXPECT_EQ(Histogram::bucket_bound(4), 15u);  // [8, 15]
  EXPECT_EQ(h.approx_quantile(0.5), 0u);       // empty
  for (int i = 0; i < 100; ++i) h.record(10);  // bucket 4: bound 15
  h.record(1000);                              // bucket 10: bound 1023
  EXPECT_EQ(h.approx_quantile(0.5), 15u);
  EXPECT_EQ(h.approx_quantile(1.0), 1023u);
}

TEST(ObsRegistry, GetOrRegisterReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("hits", {{"shard", "1"}});
  Counter& b = reg.counter("hits", {{"shard", "1"}});
  EXPECT_EQ(&a, &b);
  // Label order is not part of identity (labels are sorted).
  Histogram& h1 = reg.histogram("lat", {{"a", "1"}, {"b", "2"}});
  Histogram& h2 = reg.histogram("lat", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&h1, &h2);
  // Different labels → different instrument.
  EXPECT_NE(&a, &reg.counter("hits", {{"shard", "2"}}));
  // Same (name, labels) with a different kind is a misconfiguration.
  EXPECT_THROW(reg.gauge("hits", {{"shard", "1"}}), std::logic_error);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(ObsRegistry, SnapshotIsConsistentUnderConcurrentWriters) {
  MetricsRegistry reg;
  Counter& c = reg.counter("ops");
  Histogram& h = reg.histogram("lat");
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.inc();
        h.record(42);
      }
    });
  }
  uint64_t last_count = 0;
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot snap = reg.snapshot();
    const MetricValue* ops = snap.find("ops");
    const MetricValue* lat = snap.find("lat");
    ASSERT_NE(ops, nullptr);
    ASSERT_NE(lat, nullptr);
    // Monotone counters never go backwards across snapshots.
    EXPECT_GE(ops->counter, last_count);
    last_count = ops->counter;
    // Histogram sum is internally consistent with its count (every record
    // is the same value, but count and sum are separate atomics, so allow
    // the one-record skew a concurrent writer can produce).
    EXPECT_LE(lat->sum, (lat->count + 4) * 42);
  }
  stop.store(true);
  for (auto& t : ts) t.join();
  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("lat")->sum, snap.find("lat")->count * 42);
}

// ---- trace layer ----------------------------------------------------------

TEST(ObsRing, BoundedDropOldest) {
  RingRecorder ring(8);
  for (uint64_t i = 0; i < 20; ++i) {
    TraceEvent ev;
    ev.kind = SpanKind::kFeedRound;
    ev.p0 = i;
    ring.record(ev);
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  std::vector<TraceEvent> evs = ring.events();
  ASSERT_EQ(evs.size(), 8u);
  // Oldest first, and exactly the most recent events survive.
  for (size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].p0, 12 + i);
    EXPECT_EQ(evs[i].seq, 12 + i);
  }
  std::vector<TraceEvent> drained = ring.drain();
  EXPECT_EQ(drained.size(), 8u);
  EXPECT_TRUE(ring.events().empty());
  EXPECT_EQ(ring.recorded(), 20u);  // totals survive the drain
}

TEST(ObsRing, ConcurrentEmittersKeepPerSessionOrder) {
  RingRecorder ring(1 << 16);
  constexpr size_t kSessions = 4;
  constexpr uint64_t kPerSession = 5000;
  std::vector<std::thread> ts;
  for (uint64_t s = 0; s < kSessions; ++s) {
    ts.emplace_back([&ring, s] {
      for (uint64_t i = 0; i < kPerSession; ++i) {
        TraceEvent ev;
        ev.kind = SpanKind::kSessionBatch;
        ev.session = s;
        ev.p0 = i;  // per-session emission order
        ring.record(ev);
      }
    });
  }
  for (auto& t : ts) t.join();
  std::vector<TraceEvent> evs = ring.events();
  ASSERT_EQ(evs.size(), kSessions * kPerSession);
  // The global seq respects record order, so within one session (one
  // emitting thread) p0 must be strictly increasing when read back in seq
  // order — the property a trace consumer reconstructing a session relies
  // on.
  uint64_t next_p0[kSessions] = {};
  uint64_t last_seq = 0;
  for (size_t i = 0; i < evs.size(); ++i) {
    if (i > 0) EXPECT_LT(last_seq, evs[i].seq);
    last_seq = evs[i].seq;
    EXPECT_EQ(evs[i].p0, next_p0[evs[i].session]++);
  }
}

TEST(ObsJsonl, StableLineFormat) {
  std::ostringstream out;
  JsonlSink sink(out);
  ASSERT_TRUE(sink.ok());
  TraceEvent ev;
  ev.kind = SpanKind::kRollback;
  ev.session = 3;
  ev.start_ns = 100;
  ev.dur_ns = 7;
  ev.p0 = 1;
  ev.p5 = 6;
  sink.record(ev);
  sink.record(ev);
  sink.flush();
  EXPECT_EQ(out.str(),
            "{\"seq\":0,\"kind\":\"rollback\",\"session\":3,"
            "\"t_ns\":100,\"dur_ns\":7,\"p0\":1,\"p1\":0,\"p2\":0,\"p3\":0,"
            "\"p4\":0,\"p5\":6}\n"
            "{\"seq\":1,\"kind\":\"rollback\",\"session\":3,"
            "\"t_ns\":100,\"dur_ns\":7,\"p0\":1,\"p1\":0,\"p2\":0,\"p3\":0,"
            "\"p4\":0,\"p5\":6}\n");
}

// ---- export ---------------------------------------------------------------

TEST(ObsExport, JsonAndPrometheusShapes) {
  MetricsRegistry reg;
  reg.counter("reqs", {{"object", "queue"}}).add(5);
  reg.gauge("depth").set(-2);
  Histogram& h = reg.histogram("lat");
  h.record(0);
  h.record(3);
  h.record(3);

  const std::string json = snapshot_json(reg);
  EXPECT_NE(json.find("\"name\":\"reqs\""), std::string::npos);
  EXPECT_NE(json.find("\"object\":\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":5"), std::string::npos);
  EXPECT_NE(json.find("\"value\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":6"), std::string::npos);

  const std::string prom = prometheus_text(reg);
  EXPECT_NE(prom.find("reqs{object=\"queue\"} 5\n"), std::string::npos);
  EXPECT_NE(prom.find("depth -2\n"), std::string::npos);
  // Cumulative buckets: v=0 lands at le=0, both v=3 at le=3 (bit_width 2).
  EXPECT_NE(prom.find("lat_bucket{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_bucket{le=\"3\"} 3\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_sum 6\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_count 3\n"), std::string::npos);
}

TEST(ObsExport, EngineStatsJsonStableKeys) {
  engine::EngineStats s;
  s.peak_frontier = 2;
  s.events_fed = 10;
  const std::string json = engine_stats_json(s);
  for (const char* key :
       {"events_fed", "rounds_sequential", "peak_frontier", "dedup_probes",
        "dedup_hits", "states_recycled", "probe_batches", "prefetch_batches",
        "filter_in_place_rounds"}) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\":"), std::string::npos)
        << key;
  }
  EXPECT_NE(json.find("\"peak_frontier\":2"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), ':'), 9) << json;

  MetricsRegistry reg;
  sample_engine_stats(reg, s, {{"session", "a"}});
  MetricsSnapshot snap = reg.snapshot();
  const Labels want{{"session", "a"}};
  const MetricValue* v = snap.find("engine_events_fed", &want);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->gauge, 10);
}

// ---- end-to-end hook attachment -------------------------------------------

TEST(ObsHooks, LinMonitorRecordsRoundsAndClonesInherit) {
  MetricsRegistry reg;
  RingRecorder ring;
  EngineHooks hooks = make_engine_hooks(reg, {}, &ring, /*session=*/9);

  auto spec = make_queue_spec();
  LinMonitor m(*spec);
  m.attach_obs(&hooks);
  test::OpFactory f;
  OpDesc a = f.op(0, Method::kEnqueue, 1);
  OpDesc b = f.op(1, Method::kDequeue);
  m.feed(Event::inv(a));
  m.feed(Event::res(a, kTrue));
  EXPECT_TRUE(m.ok());

  // A clone keeps reporting into the same instruments.
  auto c = m.clone();
  c->feed(Event::inv(b));
  c->feed(Event::res(b, 1));
  EXPECT_TRUE(c->ok());

  MetricsSnapshot snap = reg.snapshot();
  const Labels seq{{"mode", "seq"}};
  const MetricValue* rounds = snap.find("engine_round_ns", &seq);
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->count, 2u);  // one closure round per monitor's response
  const MetricValue* width = snap.find("engine_frontier_width");
  ASSERT_NE(width, nullptr);
  EXPECT_EQ(width->count, 2u);
  for (const TraceEvent& ev : ring.events()) {
    EXPECT_EQ(ev.kind, SpanKind::kFeedRound);
    EXPECT_EQ(ev.session, 9u);
  }
  EXPECT_EQ(ring.recorded(), 2u);

  // Detach: further feeds leave the instruments untouched.
  m.attach_obs(nullptr);
  OpDesc d = f.op(0, Method::kEnqueue, 2);
  m.feed(Event::inv(d));
  m.feed(Event::res(d, kTrue));
  EXPECT_EQ(reg.snapshot().find("engine_round_ns", &seq)->count, 2u);
}

TEST(ObsHooks, MonitorServiceObservedSessions) {
  RingRecorder ring;
  service::ServiceOptions so;
  so.observe = true;
  so.trace = &ring;
  service::MonitorService svc(so);
  EXPECT_TRUE(svc.observed());

  test::OpFactory f;
  auto sid_a = svc.open("alpha", make_queue_spec());
  auto sid_b = svc.open("beta", make_queue_spec());
  for (int i = 0; i < 4; ++i) {
    OpDesc op = f.op(0, Method::kEnqueue, i + 1);
    svc.feed(sid_a, Event::inv(op));
    svc.feed(sid_a, Event::res(op, kTrue));
    OpDesc op2 = f.op(1, Method::kEnqueue, i + 1);
    svc.feed(sid_b, Event::inv(op2));
    svc.feed(sid_b, Event::res(op2, kTrue));
  }
  svc.drain();
  EXPECT_TRUE(svc.session(sid_a).ok());

  MetricsSnapshot snap = svc.metrics_snapshot();
  // Service-plane instruments.
  const MetricValue* rounds = snap.find("service_drain_rounds_total");
  ASSERT_NE(rounds, nullptr);
  EXPECT_GE(rounds->counter, 1u);
  const MetricValue* drained = snap.find("service_events_drained_total");
  ASSERT_NE(drained, nullptr);
  EXPECT_EQ(drained->counter, 16u);
  // Per-session engine instruments, labelled by session name, with the
  // engine totals sampled in.
  const Labels alpha{{"session", "alpha"}};
  const Labels beta{{"session", "beta"}};
  const MetricValue* fed_a = snap.find("engine_events_fed", &alpha);
  const MetricValue* fed_b = snap.find("engine_events_fed", &beta);
  ASSERT_NE(fed_a, nullptr);
  ASSERT_NE(fed_b, nullptr);
  EXPECT_EQ(fed_a->gauge, 8);
  EXPECT_EQ(fed_b->gauge, 8);

  // Trace: session batches attribute to their session ids; drain rounds
  // and session batches both present.
  bool saw_drain = false, saw_batch = false;
  for (const TraceEvent& ev : ring.events()) {
    if (ev.kind == SpanKind::kDrainRound) saw_drain = true;
    if (ev.kind == SpanKind::kSessionBatch) {
      saw_batch = true;
      EXPECT_LE(ev.session, 1u);
    }
  }
  EXPECT_TRUE(saw_drain);
  EXPECT_TRUE(saw_batch);

  // The machine-readable endpoint renders the same snapshot.
  const std::string json = svc.metrics_json();
  EXPECT_NE(json.find("service_drain_rounds_total"), std::string::npos);
  EXPECT_NE(json.find("\"session\":\"alpha\""), std::string::npos);
}

TEST(ObsHooks, UnobservedServiceHasNoPlane) {
  service::MonitorService svc;
  EXPECT_FALSE(svc.observed());
  EXPECT_TRUE(svc.metrics_snapshot().values.empty());
  auto sid = svc.open("s", make_queue_spec());
  EXPECT_EQ(svc.session(sid).metrics(), nullptr);
}

}  // namespace
}  // namespace selin::obs
