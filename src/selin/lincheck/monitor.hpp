// GenLinObject adapters: package a sequential or set-sequential
// specification as an abstract GenLin object (Remark 7.1: "for any sequential
// object O, the abstract object O' with every finite history linearizable
// with respect to O" — Lemma 7.1 proves O' ∈ GenLin).
#pragma once

#include <memory>

#include "selin/spec/spec.hpp"

namespace selin {

/// The abstract object of all histories linearizable w.r.t. `spec`.
/// Owns the spec; every monitor it hands out has `max_configs` as its
/// exploration budget.
std::unique_ptr<GenLinObject> make_linearizable_object(
    std::unique_ptr<SeqSpec> spec, size_t max_configs = 1 << 18);

/// The abstract object of all histories set-linearizable w.r.t. `spec`.
std::unique_ptr<GenLinObject> make_set_linearizable_object(
    std::unique_ptr<SetSeqSpec> spec, size_t max_configs = 1 << 18);

}  // namespace selin
