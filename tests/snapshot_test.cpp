// Snapshot substrate tests (Definition 7.3), parameterized over all three
// implementations: sequential semantics, and the concurrent correctness
// properties that the views machinery relies on —
//   * per-entry monotonicity (a scan never regresses an entry), and
//   * coordinatewise comparability of concurrent scans (what gives views
//     their containment comparability, Remark 7.2(2)).
#include <gtest/gtest.h>

#include <thread>

#include "test_util.hpp"

namespace selin {
namespace {

class SnapshotTest : public ::testing::TestWithParam<SnapshotKind> {};

std::vector<uint64_t> scan_of(Snapshot<uint64_t>& s, ProcId i) {
  std::vector<uint64_t> v;
  s.scan(i, v);
  return v;
}

TEST_P(SnapshotTest, SequentialWriteScan) {
  auto s = make_snapshot<uint64_t>(GetParam(), 4, 0);
  EXPECT_EQ(s->size(), 4u);
  s->write(0, 10);
  s->write(2, 30);
  std::vector<uint64_t> v;
  s->scan(0, v);
  EXPECT_EQ(v, (std::vector<uint64_t>{10, 0, 30, 0}));
  s->write(0, 11);
  s->scan(1, v);  // into the same buffer
  EXPECT_EQ(v, (std::vector<uint64_t>{11, 0, 30, 0}));
}

TEST_P(SnapshotTest, OverwritesSameEntry) {
  auto s = make_snapshot<uint64_t>(GetParam(), 2, 0);
  for (uint64_t i = 1; i <= 100; ++i) s->write(1, i);
  EXPECT_EQ(scan_of(*s, 0)[1], 100u);
}

// Writers publish strictly increasing values; concurrent scanners must see
// (a) per-entry monotone values across their own scans and (b) any two scan
// vectors coordinatewise comparable — i.e. the scans form a chain, which is
// exactly linearizability of scans for grow-only data.
TEST_P(SnapshotTest, ConcurrentScansFormAChain) {
  constexpr size_t kWriters = 3;
  constexpr size_t kScanners = 3;
  constexpr uint64_t kWrites = 2000;
  auto s = make_snapshot<uint64_t>(GetParam(), kWriters, 0);

  std::vector<std::vector<std::vector<uint64_t>>> scans(kScanners);
  SpinBarrier barrier(kWriters + kScanners);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      barrier.arrive_and_wait();
      for (uint64_t i = 1; i <= kWrites; ++i) {
        s->write(static_cast<ProcId>(w), i);
      }
    });
  }
  for (size_t r = 0; r < kScanners; ++r) {
    threads.emplace_back([&, r] {
      barrier.arrive_and_wait();
      for (int i = 0; i < 300; ++i) {
        scans[r].push_back(scan_of(*s, static_cast<ProcId>(r % kWriters)));
      }
    });
  }
  for (auto& t : threads) t.join();

  // (a) per-scanner monotonicity.
  for (const auto& seq : scans) {
    for (size_t i = 1; i < seq.size(); ++i) {
      for (size_t k = 0; k < kWriters; ++k) {
        EXPECT_LE(seq[i - 1][k], seq[i][k]) << "entry regressed";
      }
    }
  }
  // (b) global chain: gather all scans, sort by sum, verify pairwise
  // coordinatewise comparability via adjacent dominance.
  std::vector<const std::vector<uint64_t>*> all;
  for (const auto& seq : scans) {
    for (const auto& v : seq) all.push_back(&v);
  }
  std::sort(all.begin(), all.end(),
            [](const std::vector<uint64_t>* a, const std::vector<uint64_t>* b) {
              uint64_t sa = 0, sb = 0;
              for (uint64_t x : *a) sa += x;
              for (uint64_t x : *b) sb += x;
              return sa < sb;
            });
  for (size_t i = 1; i < all.size(); ++i) {
    for (size_t k = 0; k < kWriters; ++k) {
      EXPECT_LE((*all[i - 1])[k], (*all[i])[k])
          << "concurrent scans are not comparable (not linearizable)";
    }
  }
}

// Writers also scan (the A* pattern: every operation writes then scans).
TEST_P(SnapshotTest, WriterScansSeeOwnWrites) {
  constexpr size_t kProcs = 4;
  auto s = make_snapshot<uint64_t>(GetParam(), kProcs, 0);
  SpinBarrier barrier(kProcs);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (size_t p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      barrier.arrive_and_wait();
      for (uint64_t i = 1; i <= 1000; ++i) {
        s->write(static_cast<ProcId>(p), i);
        const auto v = scan_of(*s, static_cast<ProcId>(p));
        if (v[p] < i) failed.store(true);  // must see own write
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SnapshotTest,
                         ::testing::Values(SnapshotKind::kMutex,
                                           SnapshotKind::kDoubleCollect,
                                           SnapshotKind::kAfek),
                         [](const auto& info) {
                           return std::string(snapshot_kind_name(info.param)) ==
                                          "double-collect"
                                      ? "double_collect"
                                      : snapshot_kind_name(info.param);
                         });

TEST(SnapshotSteps, AfekScanIsBoundedPerCall) {
  // Wait-freedom evidence: a solo Afek scan takes O(n^2) steps, not
  // unbounded retries.
  auto s = make_snapshot<uint64_t>(SnapshotKind::kAfek, 8, 0);
  StepCounter::reset_local();
  StepProbe probe;
  std::vector<uint64_t> v;
  s->scan(0, v);
  EXPECT_LE(probe.steps(), 8u * 8u * 4u);
}

}  // namespace
}  // namespace selin
