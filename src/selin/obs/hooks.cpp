#include "selin/obs/hooks.hpp"

namespace selin::obs {

namespace {
Labels with(Labels base, std::string key, std::string value) {
  base.emplace_back(std::move(key), std::move(value));
  return base;
}
}  // namespace

EngineHooks make_engine_hooks(MetricsRegistry& reg, Labels labels,
                              TraceSink* trace, uint64_t session) {
  EngineHooks h;
  // The mode="seq" label keeps the series name scrapers already key on.
  h.round_ns = &reg.histogram("engine_round_ns", with(labels, "mode", "seq"));
  h.frontier_width = &reg.histogram("engine_frontier_width", labels);
  h.trace = trace;
  h.session = session;
  return h;
}

LeveledHooks make_leveled_hooks(MetricsRegistry& reg, Labels labels,
                                TraceSink* trace, uint64_t session,
                                const EngineHooks* engine) {
  LeveledHooks h;
  h.rollback_depth = &reg.histogram("leveled_rollback_depth", labels);
  h.resync_ns = &reg.histogram("leveled_resync_ns", labels);
  h.engine = engine;
  h.trace = trace;
  h.session = session;
  return h;
}

}  // namespace selin::obs
