// GenLinObject adapters: package a sequential or set-sequential
// specification as an abstract GenLin object (Remark 7.1: "for any sequential
// object O, the abstract object O' with every finite history linearizable
// with respect to O" — Lemma 7.1 proves O' ∈ GenLin).
#pragma once

#include <memory>

#include "selin/engine/stats.hpp"
#include "selin/spec/spec.hpp"

namespace selin::parallel {
class Executor;
}  // namespace selin::parallel

namespace selin {

/// The abstract object of all histories linearizable w.r.t. `spec`.
/// Owns the spec.  `threads > 1` makes monitor() hand out parallel
/// (fingerprint-sharded) membership monitors by default, and
/// `engine::kAutoThreads` adaptive ones (sequential↔sharded per feed round);
/// either way, monitor(threads) can override per deployment.  `executor`
/// (nullptr = private per-monitor pools) is the shared lane provider every
/// monitor this object hands out runs its parallel rounds on — a
/// multi-tenant deployment passes one executor to every object so total
/// threads stay bounded by its lane cap.
std::unique_ptr<GenLinObject> make_linearizable_object(
    std::unique_ptr<SeqSpec> spec, size_t max_configs = 1 << 18,
    size_t threads = 1, std::shared_ptr<parallel::Executor> executor = nullptr);

/// The abstract object of all histories set-linearizable w.r.t. `spec`.
std::unique_ptr<GenLinObject> make_set_linearizable_object(
    std::unique_ptr<SetSeqSpec> spec, size_t max_configs = 1 << 18,
    size_t threads = 1, std::shared_ptr<parallel::Executor> executor = nullptr);

}  // namespace selin
