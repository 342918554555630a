#include "src/workload/funcprofile.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>
#include <system_error>
#include <vector>

#include "src/support/rng.h"
#include "src/syscall/syscall.h"

namespace bunshin {
namespace workload {
namespace {

constexpr std::string_view kFunctionInfix = "::fn";

}  // namespace

size_t ProfiledFunctionCount(const BenchmarkSpec& bench) {
  return std::max<size_t>(1, bench.n_functions);
}

std::string ProfiledFunctionName(const BenchmarkSpec& bench, size_t index) {
  char digits[std::numeric_limits<size_t>::digits10 + 1];
  char* const digits_end = std::to_chars(digits, digits + sizeof(digits), index).ptr;
  std::string name;
  name.reserve(bench.name.size() + kFunctionInfix.size() +
               static_cast<size_t>(digits_end - digits));
  name.append(bench.name).append(kFunctionInfix).append(digits, digits_end);
  return name;
}

std::optional<size_t> ProfiledFunctionIndex(const BenchmarkSpec& bench, std::string_view name) {
  const size_t prefix = bench.name.size() + kFunctionInfix.size();
  if (name.size() <= prefix || !name.starts_with(bench.name) ||
      name.substr(bench.name.size(), kFunctionInfix.size()) != kFunctionInfix) {
    return std::nullopt;
  }
  const std::string_view digits = name.substr(prefix);
  if (digits.size() > 1 && digits.front() == '0') {
    return std::nullopt;  // not the synthesizer's spelling of any index
  }
  // from_chars into an unsigned type takes digits only (no sign, no
  // whitespace) and reports overflow.
  size_t index = 0;
  const auto [end, error] = std::from_chars(digits.data(), digits.data() + digits.size(), index);
  if (error != std::errc() || end != digits.data() + digits.size() ||
      index >= ProfiledFunctionCount(bench)) {
    return std::nullopt;
  }
  return index;
}

double ResidualFraction(san::SanitizerId id) {
  switch (id) {
    case san::SanitizerId::kASan:
      return 0.05;  // shadow setup + poisoning bookkeeping + reports
    case san::SanitizerId::kMSan:
      return 0.20;  // origin tracking bookkeeping
    case san::SanitizerId::kUBSan:
      return 0.02;  // almost everything is inline checks
    case san::SanitizerId::kSoftBound:
    case san::SanitizerId::kCETS:
    case san::SanitizerId::kSafeCode:
      return 0.25;  // fat metadata propagation
    case san::SanitizerId::kCPI:
      return 0.10;
    case san::SanitizerId::kStackCookie:
      return 0.0;
  }
  return 0.1;
}

profile::OverheadProfile SynthesizeFunctionProfileWithOverhead(const BenchmarkSpec& bench,
                                                               double total_overhead,
                                                               double residual_fraction,
                                                               uint64_t seed) {
  Rng rng(seed ^ sc::DigestString(bench.name));
  const size_t n = ProfiledFunctionCount(bench);

  // Baseline cost shares: the hottest function takes `hottest_share`, the
  // remainder follows a Zipf(1.1) tail.
  std::vector<double> share(n, 0.0);
  share[0] = bench.hottest_share;
  // The tail starts at rank 2 so its largest element stays below the
  // calibrated hottest share even for flat-profile programs like gcc.
  // share[i] holds rank i's tail weight until the norm is known.
  double tail_norm = 0.0;
  for (size_t i = 1; i < n; ++i) {
    share[i] = 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    tail_norm += share[i];
  }
  for (size_t i = 1; i < n; ++i) {
    share[i] = (1.0 - bench.hottest_share) * share[i] / (tail_norm > 0.0 ? tail_norm : 1.0);
  }

  // Memory-intensity rate per function: how check-heavy the function is per
  // unit of runtime (lognormal around 1).
  std::vector<double> rate(n, 1.0);
  double weighted_rate = 0.0;
  for (size_t i = 0; i < n; ++i) {
    rate[i] = std::exp(rng.NextGaussian(0.0, bench.func_rate_sigma));
    weighted_rate += share[i] * rate[i];
  }
  if (weighted_rate <= 0.0) {
    weighted_rate = 1.0;
  }

  const double baseline_total = bench.total_compute;
  const double distributable = total_overhead * (1.0 - residual_fraction) * baseline_total;
  const double residual = total_overhead * residual_fraction * baseline_total;

  profile::OverheadProfile out;
  out.baseline_total = static_cast<uint64_t>(baseline_total);
  out.functions.reserve(n);
  double delta_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    profile::FunctionOverhead fn;
    fn.function = ProfiledFunctionName(bench, i);
    fn.baseline_cost = static_cast<uint64_t>(share[i] * baseline_total);
    const double delta = distributable * share[i] * rate[i] / weighted_rate;
    fn.instrumented_cost = fn.baseline_cost + static_cast<uint64_t>(delta);
    delta_sum += delta;
    out.functions.push_back(std::move(fn));
  }
  out.instrumented_total =
      out.baseline_total + static_cast<uint64_t>(delta_sum + residual);
  return out;
}

profile::OverheadProfile SynthesizeFunctionProfile(const BenchmarkSpec& bench,
                                                   san::SanitizerId sanitizer, uint64_t seed) {
  double overhead = san::GetSanitizer(sanitizer).mean_overhead;
  switch (sanitizer) {
    case san::SanitizerId::kASan:
      overhead = bench.overheads.asan;
      break;
    case san::SanitizerId::kMSan:
      overhead = bench.overheads.msan;
      break;
    case san::SanitizerId::kUBSan:
      overhead = bench.overheads.ubsan;
      break;
    default:
      break;
  }
  return SynthesizeFunctionProfileWithOverhead(bench, overhead, ResidualFraction(sanitizer),
                                               seed);
}

}  // namespace workload
}  // namespace bunshin
