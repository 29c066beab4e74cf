// Umbrella header for the selin library — self-enforced linearizability.
//
// selin is a from-scratch reproduction of Castañeda & Rodríguez,
// "Asynchronous Wait-Free Runtime Verification and Enforcement of
// Linearizability" (PODC 2023).  See README.md for the quickstart and
// DESIGN.md for the paper-to-module map.
#pragma once

#include "selin/core/astar.hpp"
#include "selin/core/decoupled.hpp"
#include "selin/core/monitor_core.hpp"
#include "selin/core/self_enforced.hpp"
#include "selin/core/verifier.hpp"
#include "selin/engine/frontier_engine.hpp"
#include "selin/engine/policies.hpp"
#include "selin/engine/stats.hpp"
#include "selin/history/event.hpp"
#include "selin/history/history.hpp"
#include "selin/history/similarity.hpp"
#include "selin/history/tight.hpp"
#include "selin/impls/concurrent.hpp"
#include "selin/lincheck/checker.hpp"
#include "selin/lincheck/intervallin.hpp"
#include "selin/lincheck/monitor.hpp"
#include "selin/lincheck/setlin_checker.hpp"
#include "selin/msgpass/abd.hpp"
#include "selin/msgpass/abd_cluster.hpp"
#include "selin/service/monitor_service.hpp"
#include "selin/sim/impossibility.hpp"
#include "selin/sim/recorder.hpp"
#include "selin/sim/workload.hpp"
#include "selin/snapshot/snapshot.hpp"
#include "selin/spec/spec.hpp"
#include "selin/util/rng.hpp"
#include "selin/util/spin_barrier.hpp"
#include "selin/util/step_counter.hpp"
#include "selin/util/types.hpp"
#include "selin/views/lambda.hpp"
#include "selin/views/leveled_history.hpp"
#include "selin/views/view.hpp"
