// The arithmetic mean the paper harnesses average their table columns with
// (bench/bench_util.h).
#ifndef BUNSHIN_SRC_SUPPORT_STATS_H_
#define BUNSHIN_SRC_SUPPORT_STATS_H_

#include <vector>

namespace bunshin {

// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

}  // namespace bunshin

#endif  // BUNSHIN_SRC_SUPPORT_STATS_H_
