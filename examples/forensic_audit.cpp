// Forensic audit (Section 8.3): a buggy third-party queue is deployed behind
// the self-enforced wrapper.  The wrapper flags the first inconsistent
// response, every later operation keeps returning ERROR (Theorem 8.2(2)),
// and the certificate convicts the implementation offline: the auditor
// replays the witness history through the public membership test and pins
// down the exact failing prefix — no access to the implementation needed.
//
//   $ ./forensic_audit
#include <iostream>
#include <thread>
#include <vector>

#include "selin/selin.hpp"

int main() {
  using namespace selin;
  constexpr size_t kProcs = 3;

  // A vendor queue that silently drops ~1/8 of enqueues (returns true
  // anyway) — the classic lost-update bug.
  auto vendor_queue = make_lossy_queue(1, 8, /*seed=*/20230619);
  auto object = make_linearizable_object(make_queue_spec());
  SelfEnforced verified(kProcs, *vendor_queue, *object);

  std::atomic<bool> flagged{false};
  std::atomic<long> ops_before_detection{0};
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(p * 13 + 5);
      for (int i = 0; i < 5000 && !flagged.load(); ++i) {
        auto [m, arg] = random_op(ObjectKind::kQueue, rng);
        auto out = verified.apply(p, m, arg);
        if (out.error) {
          flagged.store(true);
        } else {
          ops_before_detection.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::cout << "forensic audit — lossy vendor queue behind V_{O,A}\n";
  if (!flagged.load()) {
    std::cout << "  fault not triggered in this run (drop rate 1/8); rerun\n";
    return 0;
  }
  std::cout << "  fault detected after ~" << ops_before_detection.load()
            << " verified operations\n";

  // --- The forensic stage -------------------------------------------------
  // The wrapper hands out a witness history; the auditor needs nothing else.
  History witness;
  for (ProcId p = 0; p < kProcs; ++p) {
    History c = verified.certificate(p);
    if (c.size() > witness.size()) witness = c;
  }
  std::cout << "  witness history  : " << witness.size() << " events\n";
  std::cout << "  witness verdict  : "
            << (object->contains(witness) ? "linearizable (?\?)"
                                          : "NOT linearizable — convicted")
            << "\n";

  // Minimal failing prefix: replay event by event.
  auto monitor = object->monitor();
  size_t fail_at = witness.size();
  for (size_t i = 0; i < witness.size(); ++i) {
    monitor->feed(witness[i]);
    if (!monitor->ok()) {
      fail_at = i;
      break;
    }
  }
  std::cout << "  first inconsistent event at index " << fail_at << ":\n";
  size_t from = fail_at > 6 ? fail_at - 6 : 0;
  for (size_t i = from; i <= fail_at && i < witness.size(); ++i) {
    std::cout << "    [" << i << "] " << to_string(witness[i]) << "\n";
  }

  // Accountability continues: every new operation is refused with ERROR.
  auto after = verified.apply(0, Method::kEnqueue, 424242);
  std::cout << "  post-detection op: "
            << (after.error ? "ERROR (service correctly fenced off)"
                            : "accepted (unexpected)")
            << "\n";
  return 0;
}
