#include "selin/msgpass/abd_cluster.hpp"

#include <chrono>
#include <string>

namespace selin {

AbdCluster::AbdCluster(const AbdClusterOptions& opts)
    : opts_(opts),
      net_(std::make_shared<AbdService>(AbdService::Options{
          opts.replicas, opts.seed, opts.max_delay_us, opts.drop_permille,
          opts.reorder, opts.retransmit_us})),
      svc_(service::ServiceOptions{opts.batch_limit, opts.observe,
                                   opts.trace}) {
  service::SessionOptions sopts;
  sopts.max_configs = opts.max_configs;
  sopts.inbox_capacity = opts.inbox_capacity;
  sids_.reserve(opts.keys);
  for (size_t k = 0; k < opts.keys; ++k) {
    sids_.push_back(svc_.open("abd.key" + std::to_string(k),
                              make_register_spec(0), sopts));
  }
}

AbdCluster::~AbdCluster() { stop_drainer(); }

void AbdCluster::start_drainer() {
  if (drainer_on_.exchange(true, std::memory_order_acq_rel)) return;
  drainer_stop_.store(false, std::memory_order_release);
  drainer_ = std::thread([this] {
    while (!drainer_stop_.load(std::memory_order_acquire)) {
      if (svc_.drain_round() == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });
}

void AbdCluster::stop_drainer() {
  if (!drainer_on_.load(std::memory_order_acquire)) return;
  drainer_stop_.store(true, std::memory_order_release);
  drainer_.join();
  drainer_on_.store(false, std::memory_order_release);
  svc_.drain();  // absorb whatever the drainer left in flight
}

void AbdCluster::publish_blocking(service::Session* s, const Event& e) {
  std::span<const Event> one(&e, 1);
  while (!s->try_publish(one)) {
    if (drainer_on_.load(std::memory_order_acquire)) {
      // A controller thread owns draining; backpressure resolves as soon as
      // it absorbs this session's inbox.
      std::this_thread::yield();
    } else {
      // Single-threaded deployment: the caller *is* the controller.
      svc_.drain_round();
    }
  }
}

Value AbdCluster::read(ProcId client, uint64_t key) {
  service::Session* s = svc_.find(sids_[key]);
  OpDesc op{OpId{client, next_seq_.fetch_add(1, std::memory_order_relaxed)},
            Method::kRead, kNoArg};
  // Publish the invocation before the quorum protocol starts: the observed
  // interval conservatively contains the true one (see header).
  publish_blocking(s, Event::inv(op));
  Value v = static_cast<Value>(net_->read(key).value);
  publish_blocking(s, Event::res(op, v));
  ops_.fetch_add(1, std::memory_order_relaxed);
  return v;
}

void AbdCluster::write(ProcId client, uint64_t key, Value value) {
  service::Session* s = svc_.find(sids_[key]);
  OpDesc op{OpId{client, next_seq_.fetch_add(1, std::memory_order_relaxed)},
            Method::kWrite, value};
  publish_blocking(s, Event::inv(op));
  net_->write(key, static_cast<uint64_t>(value), client + 1);
  publish_blocking(s, Event::res(op, kOk));
  ops_.fetch_add(1, std::memory_order_relaxed);
}

void AbdCluster::publish_raw(uint64_t key, std::span<const Event> events) {
  service::Session* s = svc_.find(sids_[key]);
  for (const Event& e : events) publish_blocking(s, e);
}

bool AbdCluster::all_ok() {
  for (service::SessionId sid : sids_) {
    if (!svc_.session(sid).ok()) return false;
  }
  return true;
}

engine::EngineStats AbdCluster::stats() {
  engine::EngineStats total;
  for (service::SessionId sid : sids_) {
    engine::accumulate(total, svc_.session(sid).stats());
  }
  return total;
}

}  // namespace selin
