// Deterministic trace generation from benchmark specs.
//
// The *template* (benign syscall records, compute segmentation, lock/barrier
// structure) is a pure function of the workload seed, so every variant of a
// benchmark issues exactly the same sync-relevant syscall sequence — the
// N-version invariant. Per-variant differences are:
//   * compute_scale (the sanitizer slowdown the variant carries),
//   * scheduling jitter (a per-variant noise stream — clones of one binary
//     do not run in perfectly identical time): additive Gaussian noise with
//     sigma proportional to sqrt(segment cost), plus rare preemption bursts,
//   * sanitizer-introduced syscalls (pre-main, in-execution memory
//     management, post-exit) taken from the sanitizer catalog.
//
// Generation has three steps:
//   * tape: a variant's jitter stream is seeded from (jitter_seed,
//     jitter_salt) alone, never from the workload seed, so its draws are the
//     same for every program and request. They are drawn once per process
//     into a noise tape and memoized (at most kNoiseTapeStreams tapes of
//     kNoiseTapeDraws draws, least recently used evicted first);
//   * template: BuildTemplate makes every structural draw once per
//     (benchmark, workload seed);
//   * derive: DeriveTrace turns the template into one variant's trace,
//     scaling the tape's draws, with no sampling of its own. It reads the
//     tape the memo holds and never past its end: only a template that
//     draws more than that tape holds makes it count the template's draws
//     and fetch a longer one. The derived trace borrows the template's
//     per-thread record tables and owns only its actions and the
//     memory-management records it adds, so a session holds one record
//     table per template thread and one action array per variant. The
//     template itself is needed only while deriving: a session keeps the
//     record tables (LendTables, ReclaimTables) and builds the rest in
//     memory it shares with other runs.
#ifndef BUNSHIN_SRC_WORKLOAD_TRACEGEN_H_
#define BUNSHIN_SRC_WORKLOAD_TRACEGEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/nxe/trace.h"
#include "src/sanitizer/sanitizer.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace workload {

// Bounds of the process-wide noise-tape memo. A stream whose template needs
// more than kNoiseTapeDraws draws is filled into a tape of its own for the
// one derive (which reads the memo's tape first, as far as it goes).
constexpr size_t kNoiseTapeStreams = 64;
constexpr size_t kNoiseTapeDraws = 4096;

struct VariantSpec {
  std::string name = "v";
  double compute_scale = 1.0;
  // Seed of this variant's scheduling-noise stream. Different seeds model OS
  // jitter between clones; equal seeds give bit-identical timing.
  uint64_t jitter_seed = 1;
  // Sanitizers whose runtime syscalls this variant carries.
  std::vector<san::SanitizerId> sanitizers;
};

// The variant-independent part of a target's traces: every draw of the
// template streams (syscall records, lock ids, the shuffle, barrier slots,
// base segment costs), laid out per thread exactly as a derived trace is,
// minus the sanitizer memory-management syscalls. The builders put each
// thread's records in the table it borrows (nxe::ThreadTrace::borrowed),
// which every trace derived from the template then shares; a rebuild refills
// a table in place once no derived trace borrows it. A rebuild reuses every
// buffer's capacity, those of threads a build with fewer threads dropped
// included.
struct TraceTemplate {
  // Marks a template kCompute action (in `arg`) whose cost the variant's
  // jitter stream perturbs; the other compute actions (lock hold times) keep
  // their base cost. Derived traces carry arg 0 on every compute action.
  static constexpr uint32_t kJittered = 1;

  std::vector<nxe::ThreadTrace> threads;
  double noise_sigma = 0.0;   // jitter coefficient: sigma = coeff * sqrt(cost)
  uint64_t jitter_salt = 0;   // mixed with VariantSpec::jitter_seed into the jitter stream
  // Whether variants carry in-execution memory-management syscalls (the
  // benchmark generator sprinkles them; the server generator does not).
  bool sprinkle_memory_management = false;
  // BuildTemplate's scratch: one thread's ordered sync events. Kept with
  // the template so that a rebuild reuses its capacity.
  std::vector<nxe::ThreadAction> events;
  // Threads a build with fewer threads dropped, kept for their action
  // buffers; they borrow no table.
  std::vector<nxe::ThreadTrace> spare_threads;
};

// Gives `threads` `n` entries. An entry dropped from the end is parked in
// `spare`, borrowing no table, and an entry added takes a parked one first,
// so thread buffers that programs of different thread counts refill in turn
// keep their capacity.
void ResizeThreads(std::vector<nxe::ThreadTrace>* threads, size_t n,
                   std::vector<nxe::ThreadTrace>* spare);

// The record tables of a template's threads, in thread order.
using RecordTables = std::vector<std::shared_ptr<const nxe::RecordTable>>;

// A template's record tables outlive its build where its traces are kept:
// the traces borrow them, while the template's actions and scratch are
// needed only to derive. A session keeps its tables and lends them to a
// template for each rebuild, which refills each one that no trace borrows
// any more in place.
//
// LendTables gives `tmpl` one thread per table, thread t borrowing
// (*tables)[t], and leaves `tables` empty; it does nothing when `tables` is
// empty. ReclaimTables moves every table `tmpl`'s threads borrow into
// `tables`, in thread order, leaving the threads borrowing none.
void LendTables(RecordTables* tables, TraceTemplate* tmpl);
void ReclaimTables(TraceTemplate* tmpl, RecordTables* tables);

// Builds `bench`'s template for `workload_seed` into `out`, reusing its
// buffers' capacity.
void BuildTemplate(const BenchmarkSpec& bench, uint64_t workload_seed, TraceTemplate* out);

// The number of actions BuildTemplate(bench, ...) builds, summed over its
// threads, computed without building it. The count is a double so a hostile
// spec cannot overflow it: NaN, infinite or negative shape inputs yield NaN
// or infinity, which no bound accepts.
double TemplateActions(const BenchmarkSpec& bench);

// Derives one variant's trace from `tmpl` into `out`, reusing its buffers'
// capacity. Each derived thread borrows what the template thread borrows and
// copies what it owns (a hand-built template may own records), so `out`
// stays valid after `tmpl` is rebuilt or destroyed. Jittered segments read
// the variant's noise tape in action order, one entry per jittered segment
// whose cost is not <= 0 (NaN included). The derive starts from the tape the
// memo holds for the variant's stream and checks each read against its end;
// a template that draws past it has its draws counted once and continues on
// a tape holding them all. The memory-management insert positions (a stream
// forked off the jitter stream before its first draw) are drawn first; the
// template actions between them are copied in runs.
// The result depends only on (tmpl, variant), never on which other variants
// share the template or on what the memo holds: it is bit-identical to
// drawing the stream live.
void DeriveTrace(const TraceTemplate& tmpl, const VariantSpec& variant, nxe::VariantTrace* out);

// Builds the trace of one variant of `bench` (BuildTemplate + DeriveTrace).
// Two calls with the same workload_seed produce the same sync-relevant
// syscall sequence regardless of the VariantSpec.
nxe::VariantTrace BuildTrace(const BenchmarkSpec& bench, const VariantSpec& variant,
                             uint64_t workload_seed);

// Convenience: N clones of the benchmark (identical binary, distinct jitter),
// as used in the NXE-efficiency experiments (§5.1/§5.2).
std::vector<nxe::VariantTrace> BuildIdenticalVariants(const BenchmarkSpec& bench, size_t n,
                                                      uint64_t workload_seed);

// --- Servers (Table 2) -------------------------------------------------------

struct ServerSpec {
  std::string name = "lighttpd";
  size_t threads = 1;          // nginx runs 4 worker threads
  size_t requests = 64;        // requests simulated per run
  size_t file_kb = 1;          // 1 (1KB) or 1024 (1MB)
  size_t concurrency = 64;     // concurrent connections (64/512/1024)
  double noise_rel_sigma = 0.18;
};

// The server request-processing loop's template: each request is
// accept/open/read/write.../close with parse compute; 1MB responses issue 16
// chunked writes. Concurrency adds queueing jitter.
void BuildServerTemplate(const ServerSpec& server, uint64_t workload_seed, TraceTemplate* out);

// The number of actions BuildServerTemplate(server, ...) builds.
double TemplateActions(const ServerSpec& server);

}  // namespace workload
}  // namespace bunshin

#endif  // BUNSHIN_SRC_WORKLOAD_TRACEGEN_H_
