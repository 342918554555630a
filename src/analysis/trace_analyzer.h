// Static liveness analysis over variant traces.
//
// AnalyzeTraces proves, before nxe::Engine::Run ever executes, that a
// (config, variants) input cannot hit either of the engine's fatal paths:
// the "malformed trace" InvalidArgument (a thread exits below a barrier its
// siblings are waiting at) and the "engine deadlock: no runnable variant
// thread" Internal error. The proof obligations, mirroring the engine's own
// round loop:
//
//   1. Input shape: >= 1 variant, at most 0xffff variants and threads,
//      equal thread counts, selective mode has a ring
//      (`liveness/no-variants`, `liveness/session-width`,
//      `liveness/variant-thread-count`, `liveness/ring-capacity` — the
//      engine rejects these up front).
//   2. Barrier participation: within each variant every thread crosses the
//      same number of barriers; otherwise some thread exits while the rest
//      park at a barrier and the engine raises the malformed-trace error
//      (`liveness/barrier-participation`).
//   3. Sync-skeleton equality: each follower thread's ordered sequence of
//      sync-relevant syscalls (S), barriers (B) and lock acquisitions (L)
//      must equal the leader thread's. Equality (plus 1-2) guarantees the
//      engine terminates with a completed report or an incident. One shape
//      short of equality is still provably safe: a follower skeleton that is
//      a proper prefix of the leader's where the dropped suffix is S-only —
//      the follower parks kDone where the leader parks at a syscall, which
//      is exactly the engine's sequence-divergence incident, not a deadlock
//      (`liveness/sequence-truncated`, warning). Every other mismatch is
//      conservatively an error (`liveness/skeleton-mismatch`).
//
// Two further rules do not gate deadlock_free():
//   * `liveness/lock-order-cycle` (warning): a cycle in some variant's
//     held-while-acquiring lock graph. The engine's weak-determinism replay
//     serializes acquisitions so the simulated run cannot deadlock, but the
//     same binary under a preemptive scheduler can — a deployment risk.
//   * `liveness/ring-backpressure` (note/warning): the selective-mode
//     run-ahead bound. When the ring capacity is at least the leader's whole
//     sync-relevant syscall budget, back-pressure never engages and the §5.3
//     detection-lag window is bounded only by trace length (warning).
//
// Predicted-outcome notes (`analysis/expected-detection`,
// `analysis/expected-divergence`) record statically visible incidents so the
// oracle suite can cross-check verdicts against real engine runs.
//
// Cost: one walk per (variant, thread) feeds every rule. The leader's
// skeletons are built once into one flat buffer; each follower thread is
// compared with its leader thread entry by entry while it is walked, and the
// same walk counts barriers, collects lock-order edges into a flat list and
// notes the first detection. Diagnostics are reported afterwards in the
// order above.
#ifndef BUNSHIN_SRC_ANALYSIS_TRACE_ANALYZER_H_
#define BUNSHIN_SRC_ANALYSIS_TRACE_ANALYZER_H_

#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/nxe/engine.h"
#include "src/nxe/trace.h"

namespace bunshin {
namespace analysis {

// Appends liveness diagnostics for running `variants` under `config` to
// `report`. Afterwards report->deadlock_free() is a *sound* verdict: if it
// holds, nxe::Engine(config).Run(variants) returns an ok Status (the report
// may still carry a divergence or detection incident).
void AnalyzeTraces(const nxe::EngineConfig& config,
                   const std::vector<nxe::VariantTrace>& variants,
                   AnalysisReport* report);

}  // namespace analysis
}  // namespace bunshin

#endif  // BUNSHIN_SRC_ANALYSIS_TRACE_ANALYZER_H_
