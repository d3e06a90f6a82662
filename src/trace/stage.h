// Stage taxonomy for trace spans.
//
// The first entries mirror comm::Phase one-to-one (same order, same
// indices) so instrumentation can book a span to the same stage it
// charges to PhaseStats; comm/trace_span.h static-asserts the alignment.
// The extra entries cover activity that PhaseStats has no bucket for:
// setup, fault recovery, and the attribution buckets the critical-path
// analyzer uses for cross-rank edges (network, collective) and
// uninstrumented time.
#pragma once

#include <cstddef>

namespace scd::trace {

enum class Stage : std::size_t {
  // -- mirrors comm::Phase ------------------------------------------------
  kDrawMinibatch = 0,  // master: sampling E_n and gathering adjacency
  kDeployMinibatch,    // scatter transfer + worker wait for its share
  kSampleNeighbors,    // worker: drawing V_n per minibatch vertex
  kLoadPi,             // worker: DKV reads of pi rows
  kUpdatePhi,          // worker: Eqns 5-6 compute
  kUpdatePi,           // worker: normalisation + DKV writeback
  kUpdateBetaTheta,    // grads, reduce, master update, bcast
  kPerplexity,         // held-out evaluation
  kBarrierWait,        // idle time at barriers beyond own arrival
  // -- trace-only stages -------------------------------------------------
  kSetup,       // initial state broadcast / workspace priming
  kRecovery,    // fault handling: death detection, re-homing, rollback
  kNetwork,     // critical-path bucket: message in flight
  kCollective,  // critical-path bucket: collective gather/skew cost
  kUntracked,   // critical-path bucket: time outside any span
  kCount
};

constexpr std::size_t kNumStages = static_cast<std::size_t>(Stage::kCount);

const char* stage_name(Stage s);

}  // namespace scd::trace
