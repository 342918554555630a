#include "perfbench/src/support.h"

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <thread>

namespace perfbench {

using bunshin::Status;
using bunshin::StatusOr;

std::atomic<uint64_t> g_allocations{0};

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  Rng rng(seed ^ (tag * 0xD6E8FEB86659FD93ull));
  rng.Next();
  return rng.Next();
}

// --- Percentiles -------------------------------------------------------------

Percentile NearestRank(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.samples = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// --- /proc -----------------------------------------------------------------------

namespace {

std::string ProcPath(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

// "VmHWM:    1234 kB" -> 1234 / 1024 MB.
double StatusFieldMb(const std::string& status, const char* field) {
  const size_t at = status.find(field);
  if (at == std::string::npos) {
    return 0.0;
  }
  return std::strtod(status.c_str() + at + std::strlen(field), nullptr) / 1024.0;
}

}  // namespace

StatusOr<ProcSnapshot> ReadProc(pid_t pid) {
  ProcSnapshot snap;
  std::ifstream stat_file(ProcPath(pid, "stat"));
  std::string stat((std::istreambuf_iterator<char>(stat_file)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3, utime 14,
  // stime 15 (1-based over the whole line).
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return bunshin::Unavailable("cannot read " + ProcPath(pid, "stat"));
  }
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) {
      ticks += std::strtod(field.c_str(), nullptr);
    }
  }
  snap.cpu_s = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));

  std::ifstream status_file(ProcPath(pid, "status"));
  std::string status((std::istreambuf_iterator<char>(status_file)),
                     std::istreambuf_iterator<char>());
  snap.vm_hwm_mb = StatusFieldMb(status, "VmHWM:");
  snap.vm_rss_mb = StatusFieldMb(status, "VmRSS:");
  snap.vm_size_mb = StatusFieldMb(status, "VmSize:");

  if (DIR* dir = opendir(ProcPath(pid, "fd").c_str())) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') {
        ++snap.open_fds;
      }
    }
    closedir(dir);
  }
  return snap;
}

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": user nice system idle iowait irq softirq steal
  double value = 0.0;
  for (int i = 0; i < 8 && stat >> value; ++i) {
  }
  return label == "cpu" ? value / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Calibration Calibrate() {
  const Clock::time_point start = Clock::now();
  const double cpu_start = ThreadCpuSeconds();
  uint64_t x = 0x2545F4914F6CDD1Dull;
  uint64_t acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<uint64_t, uint64_t> nodes;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = next();
    nodes[v % 1000003] = v;
  }
  for (int i = 0; i < 20000; ++i) {
    if (auto it = nodes.find(next() % 1000003); it != nodes.end()) {
      acc += it->second;
    }
  }
  // Keep the work observable.
  if (acc == 1) {
    std::fprintf(stderr, "%llu\n", static_cast<unsigned long long>(acc));
  }
  return Calibration{SecondsBetween(start, Clock::now()) * 1e3,
                     (ThreadCpuSeconds() - cpu_start) * 1e3};
}

Calibrator::Calibrator()
    : thread_([this] {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
          wake_.wait(lock, [this] { return stop_ || runs_ > 0; });
          if (stop_) {
            return;
          }
          std::vector<double> wall;
          std::vector<double> cpu;
          for (; runs_ > 0; --runs_) {
            const Calibration one = Calibrate();
            wall.push_back(one.wall_ms);
            cpu.push_back(one.cpu_ms);
          }
          result_ = Calibration{Median(wall), Median(cpu)};
          done_.notify_all();
        }
      }) {}

Calibrator::~Calibrator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

Calibration Calibrator::Run(int runs) {
  std::unique_lock<std::mutex> lock(mu_);
  runs_ = runs;
  wake_.notify_all();
  done_.wait(lock, [this] { return runs_ == 0; });
  return result_;
}

// --- The executor daemon ------------------------------------------------------------

Status Executord::Start(const std::string& binary, const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) {
    return bunshin::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return bunshin::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // The daemon must not outlive the benchmark, whatever way it exits.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(127);
    }
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  stdout_fd_ = fds[0];

  // The daemon prints "nvx_executord listening on port <p>" once bound.
  std::string line;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  while (line.find('\n') == std::string::npos) {
    const int left_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count());
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (left_ms <= 0 || poll(&pfd, 1, left_ms) <= 0) {
      Stop();
      return bunshin::DeadlineExceeded("nvx_executord did not announce its port");
    }
    char buf[128];
    const ssize_t got = read(stdout_fd_, buf, sizeof(buf));
    if (got <= 0) {
      Stop();
      return bunshin::Unavailable("nvx_executord exited before announcing its port");
    }
    line.append(buf, static_cast<size_t>(got));
  }
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "nvx_executord listening on port %u", &port) != 1 || port == 0 ||
      port > 65535) {
    Stop();
    return bunshin::Internal("unexpected nvx_executord banner: " + line);
  }
  port_ = static_cast<uint16_t>(port);
  return Status::Ok();
}

void Executord::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    // SIGTERM ends the daemon's sigwait; fall back to SIGKILL if it hangs.
    for (int i = 0; i < 200; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

}  // namespace perfbench

// Counting replacements for the global allocation functions (the
// session.allocs per-layer metric). Every other form forwards to these.
void* operator new(std::size_t size) {
  perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
