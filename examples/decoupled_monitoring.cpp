// Decoupled monitoring (Figure 12, Section 9.2): response production and
// verification split across thread pools.  Producers run at near-A* speed;
// a monitoring pool polls the shared λ-records and raises the alarm.
//
// The demo runs two phases over the same deployment shape:
//   phase 1 — correct queue: monitors stay quiet;
//   phase 2 — queue with duplicate deliveries: monitors detect, print the
//             witness, and measure the detection lag in producer operations.
//
//   $ ./decoupled_monitoring
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "selin/selin.hpp"

using namespace selin;

struct PhaseResult {
  long producer_ops = 0;
  uint64_t reports = 0;
  History witness;
};

static PhaseResult run_monitored(IConcurrent& impl, const GenLinObject& object,
                                 int ops_per_producer) {
  constexpr size_t kProducers = 3;
  constexpr size_t kVerifiers = 2;
  PhaseResult result;

  std::mutex wmu;
  Decoupled d(kProducers, kVerifiers, impl, object,
              [&](size_t, const History& w) {
                std::lock_guard<std::mutex> lock(wmu);
                if (result.witness.empty()) result.witness = w;
              });

  std::atomic<bool> stop{false};
  std::atomic<long> ops{0};
  std::vector<std::thread> verifiers;
  for (size_t v = 0; v < kVerifiers; ++v) {
    verifiers.emplace_back([&, v] {
      while (!stop.load(std::memory_order_acquire) && d.error_count() == 0) {
        d.verify_once(v);
      }
      d.verify_once(v);  // final sweep
    });
  }
  std::vector<std::thread> producers;
  for (ProcId p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(p * 31 + 2);
      for (int i = 0; i < ops_per_producer && d.error_count() == 0; ++i) {
        auto [m, arg] = random_op(ObjectKind::kQueue, rng);
        d.apply(p, m, arg);
        ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : verifiers) t.join();

  result.producer_ops = ops.load();
  result.reports = d.error_count();
  return result;
}

int main() {
  auto object = make_linearizable_object(make_queue_spec());

  std::cout << "decoupled monitoring — D_{O,A} with 3 producers + 2 verifiers\n\n";

  {
    auto good = make_ms_queue();
    PhaseResult r = run_monitored(*good, *object, 4000);
    std::cout << "phase 1 (correct Michael–Scott queue)\n"
              << "  producer ops : " << r.producer_ops << "\n"
              << "  ERROR reports: " << r.reports
              << (r.reports == 0 ? "  — monitors quiet, as expected\n\n"
                                 : "  — UNEXPECTED\n\n");
  }

  {
    auto bad = make_dup_queue(1, 6, /*seed=*/77);
    PhaseResult r = run_monitored(*bad, *object, 20000);
    std::cout << "phase 2 (queue that redelivers ~1/6 of dequeues)\n"
              << "  producer ops before detection: " << r.producer_ops << "\n"
              << "  ERROR reports                : " << r.reports << "\n";
    if (!r.witness.empty()) {
      std::cout << "  witness (" << r.witness.size()
                << " events), tail:\n";
      size_t from = r.witness.size() > 8 ? r.witness.size() - 8 : 0;
      for (size_t i = from; i < r.witness.size(); ++i) {
        std::cout << "    " << to_string(r.witness[i]) << "\n";
      }
      std::cout << "  witness ∈ O ? "
                << (object->contains(r.witness) ? "yes (?\?)" : "no — violation certified")
                << "\n";
    } else {
      std::cout << "  fault not triggered this run; rerun the demo\n";
    }
  }
  return 0;
}
