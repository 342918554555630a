// Synthesized per-function overhead profiles for check distribution.
//
// The paper profiles SPEC binaries with the `train` inputs to learn how much
// of a sanitizer's slowdown each function contributes. We regenerate that
// distribution synthetically: a benchmark's runtime is spread over its
// functions with a Zipf-like skew anchored at the calibrated hottest-function
// share (hmmer/lbm: 0.97 — the paper's outliers), and the sanitizer's
// distributable overhead is spread proportionally to function cost times a
// lognormal memory-intensity rate. The non-distributable remainder
// (O_residual: metadata creation, bookkeeping, reporting) stays whole-program.
#ifndef BUNSHIN_SRC_WORKLOAD_FUNCPROFILE_H_
#define BUNSHIN_SRC_WORKLOAD_FUNCPROFILE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/profile/profiler.h"
#include "src/sanitizer/sanitizer.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace workload {

// Fraction of a sanitizer's slowdown that cannot be split across variants.
double ResidualFraction(san::SanitizerId id);

// The profiled function names of `bench`, the one home of their rule: the
// synthesizer profiles ProfiledFunctionCount(bench) functions, max(1,
// n_functions), and names function i "<bench.name>::fn<i>", i in decimal.
size_t ProfiledFunctionCount(const BenchmarkSpec& bench);
std::string ProfiledFunctionName(const BenchmarkSpec& bench, size_t index);
// The index `name` names, or nullopt when it names no profiled function of
// `bench`: the exact "<bench.name>::fn" prefix, then a canonical decimal
// below the count (digits only: no sign, no leading zero, no overflow).
// Compares and parses in place, allocating nothing.
std::optional<size_t> ProfiledFunctionIndex(const BenchmarkSpec& bench, std::string_view name);

// Builds the per-function profile of `bench` instrumented with `sanitizer`.
// Deterministic in (bench.name, seed).
profile::OverheadProfile SynthesizeFunctionProfile(const BenchmarkSpec& bench,
                                                   san::SanitizerId sanitizer, uint64_t seed);

// Same, for an arbitrary whole-program overhead fraction and residual share.
profile::OverheadProfile SynthesizeFunctionProfileWithOverhead(const BenchmarkSpec& bench,
                                                               double total_overhead,
                                                               double residual_fraction,
                                                               uint64_t seed);

}  // namespace workload
}  // namespace bunshin

#endif  // BUNSHIN_SRC_WORKLOAD_FUNCPROFILE_H_
