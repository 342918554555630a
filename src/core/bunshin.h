// Public entry point: the end-to-end Bunshin pipeline on the IR substrate.
//
// This is the paper's Figure 1 + Figure 2 flow in one object:
//
//   1. compile the target baseline (an ir::Module);
//   2. instrument with the requested sanitizer(s);
//   3. profile baseline vs instrumented on a representative workload;
//   4. run the overhead-distribution algorithm (balanced N-partition);
//   5. "variant compiling": de-instrument the checks each variant does not
//      keep (check distribution) or build each variant with its conflict-free
//      sanitizer group (sanitizer distribution);
//   6. execute all variants on the same input and synchronize their
//      observable behavior, reporting detection or divergence.
//
// Downstream code reaches it through api::NvxBuilder().Module(m), whose IR
// backend builds one IrNvxSystem per session and runs it through
// RunDetailed(). The calibrated trace-level experiments (the paper's figures)
// run on src/nxe + src/workload instead.
#ifndef BUNSHIN_SRC_CORE_BUNSHIN_H_
#define BUNSHIN_SRC_CORE_BUNSHIN_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/distribution/distribution.h"
#include "src/ir/interp.h"
#include "src/ir/ir.h"
#include "src/profile/profiler.h"
#include "src/sanitizer/sanitizer.h"
#include "src/support/status.h"

namespace bunshin {
namespace core {

enum class NvxOutcome {
  kOk,        // all variants agreed; program result is trustworthy
  kDetected,  // a distributed sanity check fired in some variant
  kDiverged,  // behavioral divergence (sequence/args/return mismatch or crash)
};

struct NvxResult {
  NvxOutcome outcome = NvxOutcome::kOk;
  int64_t return_value = 0;  // leader's result when kOk
  // kDetected:
  size_t detecting_variant = 0;
  std::string detector;
  // kDiverged:
  size_t diverging_variant = 0;
  std::string divergence_detail;
};

// Verdict plus the raw per-variant interpreter results (cost, events,
// per-function counters) — what the api layer's RunReport is built from.
struct DetailedNvxRun {
  NvxResult result;
  std::vector<ir::ExecResult> runs;
};

// Knobs for building an N-version system from a module.
struct Options {
  size_t n_variants = 2;
  // Profiling fuel per run.
  uint64_t interpreter_fuel = 50'000'000;
};

class IrNvxSystem {
 public:
  // Check distribution: instrument `baseline` with `sanitizer` (ASan, MSan or
  // UBSan), profile on `profiling_workload`, and split the checks across
  // options.n_variants variants.
  static StatusOr<IrNvxSystem> CreateCheckDistributed(
      const ir::Module& baseline, san::SanitizerId sanitizer,
      const std::vector<profile::WorkloadRun>& profiling_workload, const Options& options = {});

  // Sanitizer distribution: split `sanitizers` into conflict-free groups and
  // build one variant per group. Fails when the conflict graph does not fit.
  static StatusOr<IrNvxSystem> CreateSanitizerDistributed(
      const ir::Module& baseline, const std::vector<san::SanitizerId>& sanitizers,
      const Options& options = {});

  // UBSan sub-sanitizer distribution at the IR level: only the sub-sanitizers
  // with concrete IR passes participate.
  static StatusOr<IrNvxSystem> CreateUbsanDistributed(const ir::Module& baseline,
                                                      const Options& options = {});

  // Executes every variant on the same input and synchronizes their
  // observable behavior (external-call streams + return values), keeping the
  // per-variant interpreter results for report building.
  DetailedNvxRun RunDetailed(const std::string& entry, const std::vector<int64_t>& args) const;

  size_t n_variants() const { return variants_.size(); }
  const ir::Module& variant(size_t i) const { return *variants_[i]; }
  // Check-distribution plan (empty protected sets for sanitizer distribution).
  const distribution::CheckDistributionPlan& check_plan() const { return check_plan_; }
  // Sanitizer groups per variant, by name (empty for check distribution).
  const std::vector<std::vector<std::string>>& sanitizer_groups() const {
    return sanitizer_groups_;
  }

 private:
  IrNvxSystem() = default;

  std::vector<std::unique_ptr<ir::Module>> variants_;
  distribution::CheckDistributionPlan check_plan_;
  std::vector<std::vector<std::string>> sanitizer_groups_;
  uint64_t fuel_ = 50'000'000;
};

// Filters a raw event stream down to the externally observable syscall
// analogues: sanitizer-internal calls ("__..." helpers) are dropped, exactly
// like the NXE ignores sanitizer-introduced syscalls.
std::vector<ir::ExecEvent> FilterObservable(const std::vector<ir::ExecEvent>& events);

}  // namespace core
}  // namespace bunshin

#endif  // BUNSHIN_SRC_CORE_BUNSHIN_H_
