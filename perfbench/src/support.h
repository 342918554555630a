// Measurement plumbing for the repo benchmark: clocks, a seeded RNG, the
// percentile helper, /proc readers, host-noise diagnostics, the executor
// daemon process handle, and the allocation counter.
#ifndef PERFBENCH_SRC_SUPPORT_H_
#define PERFBENCH_SRC_SUPPORT_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/support/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

// SplitMix64: a tiny, portable generator, so a seed draws the same inputs on
// every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// Mixes a seed with a stream tag, so independent draws never share a stream.
uint64_t MixSeed(uint64_t seed, uint64_t tag);

// --- Percentiles --------------------------------------------------------------

// Nearest-rank percentile summary of one sample set.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;  // size of the sample set
  size_t beyond = 0;   // samples strictly after the percentile's rank
};

// Nearest rank: the value at rank ceil(q * n) of the sorted samples
// (q in (0, 1]). `sorted` must be ascending and non-empty.
Percentile NearestRank(const std::vector<double>& sorted, double q);

// A percentile is reportable only with at least this many samples beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

double Median(std::vector<double> values);

// --- /proc ----------------------------------------------------------------------

struct ProcSnapshot {
  double cpu_s = 0.0;     // user + sys, all threads (exited ones included)
  double vm_hwm_mb = 0.0;  // peak resident set
  double vm_rss_mb = 0.0;
  double vm_size_mb = 0.0;
  size_t open_fds = 0;
};

// Reads /proc/<pid>/{stat,status,fd}; pid 0 means this process.
bunshin::StatusOr<ProcSnapshot> ReadProc(pid_t pid);

// User + sys CPU of this process (all threads), at microsecond resolution.
double SelfCpuSeconds();

// Host steal time so far, in seconds (the `cpu` line of /proc/stat).
double HostStealSeconds();

// CPU time of the calling thread, in seconds.
double ThreadCpuSeconds();

// One run of a fixed single-thread kernel shaped like the sessions' own
// work: node allocation, pointer chasing and random lookups over about
// 1 MB (a 20k-entry std::map). The guest's speed for such work drifts by up
// to 2x over minutes (memory contention from other tenants), and the kernel
// slows in step with the sessions, so cost metrics are also reported in
// units of it.
struct Calibration {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  // this thread's CPU time
};
Calibration Calibrate();

// Runs the kernel on one long-lived thread of its own, so that every run,
// during set-up and during the timed phase, meets the same allocator arena
// and thread state.
class Calibrator {
 public:
  Calibrator();
  ~Calibrator();
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  // Runs the kernel `runs` (> 0) times and waits: the median wall and CPU
  // times of the runs. One caller at a time.
  Calibration Run(int runs);

 private:
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  int runs_ = 0;
  bool stop_ = false;
  Calibration result_;
  std::thread thread_;
};

// What the kernel takes on the reference host (a quiet 4-vCPU KVM guest).
// Normalised metrics scale by kReferenceCalibrationMs / measured kernel
// time: they read as the cost on that host, whatever the current speed.
inline constexpr double kReferenceCalibrationMs = 5.0;

// --- The executor daemon ----------------------------------------------------------

// One nvx_executord child process. Start() forks it with its stdout on a
// pipe and reads the announced port from that pipe (no polling); the child
// also dies with this process (PR_SET_PDEATHSIG). Stop() (and the destructor)
// terminates and reaps it.
class Executord {
 public:
  Executord() = default;
  ~Executord() { Stop(); }
  Executord(const Executord&) = delete;
  Executord& operator=(const Executord&) = delete;

  bunshin::Status Start(const std::string& binary, const std::vector<std::string>& args);
  void Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

// --- Allocation counter -------------------------------------------------------------

// Incremented by the benchmark binary's replacement operator new (every
// thread of the process).
extern std::atomic<uint64_t> g_allocations;

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SUPPORT_H_
