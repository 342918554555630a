// perfbench_driver: the repo benchmark's single-process driver.
//
//   perfbench_driver --workload fresh_local --seed 7 --seconds 10 --trace 0 \
//                    --executord .bench_build/tools/nvx_executord --out .bench_out
//   perfbench_driver --self-test
//
// One run: set up the workload (daemons, plans through one PlanCache,
// session builds, one warm-up run per session) several times and keep the
// last set-up; drive the seeded request stream for --seconds; cross-check a
// seeded sample against fresh unpooled, uncached sessions; print
// diagnostics and, as the last line, one JSON result. With --trace 1 the
// timed phase sends each request through ComposedPath (spans) and through
// the session, compares the two reports, and writes the span file that
// perfbench/spans.py turns into per-layer metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/composed.h"
#include "perfbench/src/support.h"
#include "perfbench/src/tracer.h"
#include "perfbench/src/workloads.h"
#include "src/analysis/plan_analyzer.h"
#include "src/api/nvx.h"

namespace perfbench {

int RunSelfTest();  // selftest.cc

namespace {

namespace api = bunshin::api;
namespace net = bunshin::net;
using bunshin::Status;
using bunshin::StatusOr;

const Clock::time_point kProcessStart = Clock::now();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string executord;
  std::string out_dir = ".bench_out";
  // > 0: a closed loop with this many client threads, whatever the
  // workload's own shape (how remote_tcp's capacity is measured).
  size_t clients = 0;
};

// One prepared config: its session and, in traced runs, its composed path.
struct Prepared {
  Config config;
  Overlay overlay;
  std::unique_ptr<api::NvxSession> session;
  std::unique_ptr<ComposedPath> composed;
};

// Everything one set-up builds. Daemons are declared first so they outlive
// the sessions that dial them.
struct Deployment {
  std::vector<std::unique_ptr<Executord>> daemons;
  std::vector<net::Endpoint> endpoints;
  std::vector<uint16_t> ports;
  std::shared_ptr<api::PlanCache> cache;
  std::vector<Prepared> prepared;
};

// A request kept for the post-run cross-check.
struct Sample {
  size_t config = 0;
  api::RunRequest request;
  api::RunReport report;
};

struct Tally {
  explicit Tally(Clock::time_point s) : start(s) {}

  const Clock::time_point start;  // of the timed phase
  std::mutex mu;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // (completion time since start in s, latency in ms) of each good session.
  std::vector<std::pair<double, double>> done;
  std::vector<double> lateness_ms;  // open loop
  double first_due_s = 0.0;         // open loop: due time of the first request
  std::vector<std::string> errors;  // the first few, for the log
  std::vector<Sample> samples;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) {
      errors.push_back(what);
    }
  }
};

constexpr size_t kMaxSamples = 96;
constexpr int kSetupReps = 9;  // set-ups per run; setup_s is a median over them
constexpr int kCalibrationRuns = 3;  // kernel runs per calibration outside the timed phase
constexpr double kWindowS = 0.5;  // timed-phase window length
// Bounds a traced run's span file (about 16 spans per sharded request).
constexpr uint64_t kMaxTracedRequests = 20000;

bool Sampled(uint64_t seed, uint64_t index) { return MixSeed(seed, 0x5A17 + index) % 40 == 0; }

double DaemonCpuSeconds(const Deployment& d) {
  double total = 0.0;
  for (const auto& daemon : d.daemons) {
    if (StatusOr<ProcSnapshot> snap = ReadProc(daemon->pid()); snap.ok()) {
      total += snap->cpu_s;
    }
  }
  return total;
}

Status SetUp(const WorkloadSpec& spec, const std::vector<Config>& configs, uint64_t seed,
             const Options& options, Tracer* tracer, Deployment* d) {
  for (size_t i = 0; i < spec.daemons; ++i) {
    auto daemon = std::make_unique<Executord>();
    Status started = daemon->Start(options.executord, {"--port", "0", "--workers", "2"});
    if (!started.ok()) {
      return started;
    }
    d->ports.push_back(daemon->port());
    d->endpoints.push_back(net::TcpEndpoint("127.0.0.1", daemon->port()));
    d->daemons.push_back(std::move(daemon));
  }
  d->cache = std::make_shared<api::PlanCache>(2 * configs.size());

  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& config = configs[i];
    api::NvxBuilder builder = BaseBuilder(config);
    builder.WithPlanCache(d->cache);
    const api::PlanCacheStats before = d->cache->stats();
    StatusOr<api::VariantPlan> base = [&] {
      SpanScope span(tracer, "setup.plan", 0, 0);
      return builder.PlanVariants();
    }();
    if (tracer != nullptr) {
      // The planning lookup only: a hit means an earlier config shared this
      // config's base plan.
      const api::PlanCacheStats after = d->cache->stats();
      tracer->Add("plan_cache.hits", static_cast<double>(after.hits - before.hits));
      tracer->Add("plan_cache.misses", static_cast<double>(after.misses - before.misses));
    }
    if (!base.ok()) {
      return Status(base.status().code(), "config " + std::to_string(i) + ": " +
                                              base.status().message());
    }
    if (tracer != nullptr) {
      SpanScope span(tracer, "setup.analyze", 0, 0);
      bunshin::analysis::AnalysisReport report = bunshin::analysis::AnalyzePlan(*base);
      if (!report.ok()) {
        return report.ToStatus("config " + std::to_string(i));
      }
    }
    Prepared prepared;
    prepared.config = config;
    prepared.overlay = ResolveOverlay(config, base->n_variants());
    ApplyOverlay(prepared.overlay, &builder);
    if (spec.remote) {
      builder.Remote(d->endpoints).Shards(spec.shards);
    } else if (spec.shards != 0) {
      builder.Shards(spec.shards);
    }
    StatusOr<api::NvxSession> session = [&] {
      SpanScope span(tracer, "setup.build", 0, 0);
      return builder.Build();
    }();
    if (!session.ok()) {
      return session.status();
    }
    prepared.session = std::make_unique<api::NvxSession>(std::move(*session));
    if (tracer != nullptr) {
      StatusOr<api::VariantPlan> plan = builder.PlanVariants();  // with the overlay
      if (!plan.ok()) {
        return plan.status();
      }
      prepared.composed = std::make_unique<ComposedPath>(
          std::make_shared<const api::VariantPlan>(std::move(*plan)), spec.shards, d->ports);
    }
    d->prepared.push_back(std::move(prepared));
  }

  // Warm-up: one run of every session (and of every composed path).
  for (size_t i = 0; i < d->prepared.size(); ++i) {
    Prepared& p = d->prepared[i];
    api::RunRequest request;
    request.workload_seed = spec.replay ? p.config.replay_seed : MixSeed(seed, 1000 + i);
    StatusOr<api::RunReport> report = p.session->Run(request);
    if (!report.ok()) {
      return Status(report.status().code(), "warm-up of config " + std::to_string(i) + ": " +
                                                report.status().message());
    }
    const std::string wrong = CheckVerdict(p.overlay, *report);
    if (!wrong.empty()) {
      return bunshin::Internal("warm-up of config " + std::to_string(i) + ": " + wrong);
    }
    if (p.composed != nullptr) {
      StatusOr<api::RunReport> composed = p.composed->Run(nullptr, 0, *request.workload_seed);
      if (!composed.ok()) {
        return composed.status();
      }
      if (Status ref = p.composed->RunReplicaReference(nullptr, 0, *request.workload_seed);
          !ref.ok()) {
        return ref;
      }
    }
  }
  return Status::Ok();
}

// Records one finished session: verdict check, latency, cross-check sample.
void Record(const Request& request, const Prepared& p, const api::RunRequest& run_request,
            const StatusOr<api::RunReport>& report, double latency_ms, uint64_t seed,
            Tally* tally) {
  const double done_s = SecondsBetween(tally->start, Clock::now());
  std::lock_guard<std::mutex> lock(tally->mu);
  ++tally->attempted;
  if (!report.ok()) {
    tally->Fail("request " + std::to_string(request.index) + ": " + report.status().ToString());
    return;
  }
  const std::string wrong = CheckVerdict(p.overlay, *report);
  if (!wrong.empty()) {
    tally->Fail("request " + std::to_string(request.index) + ": " + wrong);
    return;
  }
  tally->done.emplace_back(done_s, latency_ms);
  if (tally->samples.size() < kMaxSamples && Sampled(seed, request.index)) {
    tally->samples.push_back(Sample{request.config, run_request, *report});
  }
}

// CPU and host steal at fixed window boundaries of the timed phase, taken by
// a thread that sleeps between boundaries. With a calibrator, the kernel
// also runs once per window, right after the boundary, next to the traffic
// (for the open loop, which cannot pause).
class WindowMonitor {
 public:
  struct Mark {
    double self_cpu_s = 0.0;
    double daemon_cpu_s = 0.0;
    double steal_s = 0.0;
    double cpu_s() const { return self_cpu_s + daemon_cpu_s; }
  };

  WindowMonitor(const Deployment& d, Clock::time_point start, double window_s, size_t windows,
                Calibrator* calibrator, std::vector<Calibration>* calibrations)
      : thread_([this, &d, start, window_s, windows, calibrator, calibrations] {
          for (size_t k = 0; k <= windows; ++k) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(window_s * static_cast<double>(k))));
            marks_.push_back(Mark{SelfCpuSeconds(), DaemonCpuSeconds(d), HostStealSeconds()});
            if (calibrator != nullptr && k < windows) {
              (*calibrations)[k] = calibrator->Run(1);
            }
          }
        }) {}
  ~WindowMonitor() { Join(); }
  WindowMonitor(const WindowMonitor&) = delete;
  WindowMonitor& operator=(const WindowMonitor&) = delete;

  // Returns once the last boundary was sampled.
  const std::vector<Mark>& Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
    return marks_;
  }

 private:
  std::vector<Mark> marks_;
  std::thread thread_;
};

// Closed loop: each of `clients` threads sends its next request when the
// previous one returned. With a calibrator (one client only), the client
// pauses once per window, a tenth of a window after the boundary, for one
// kernel run: no session is in flight then, so the kernel meets the host as
// the set-up calibrations do.
void ClosedLoop(Deployment& d, RequestStream& stream, Clock::time_point start,
                Clock::time_point end, uint64_t seed, size_t clients, double window_s,
                Calibrator* calibrator, std::vector<Calibration>* calibrations, Tally* tally) {
  size_t next_window = 0;
  auto client = [&](bool calibrates) {
    while (Clock::now() < end) {
      if (calibrates) {
        const double at = SecondsBetween(start, Clock::now()) / window_s;  // in windows
        const size_t k = static_cast<size_t>(at);
        if (k >= next_window && k < calibrations->size() && at - static_cast<double>(k) >= 0.1) {
          (*calibrations)[k] = calibrator->Run(1);
          next_window = k + 1;
        }
      }
      const Request request = stream.Next();
      const Prepared& p = d.prepared[request.config];
      api::RunRequest run_request;
      run_request.workload_seed = request.workload_seed;
      const Clock::time_point called = Clock::now();
      StatusOr<api::RunReport> report = p.session->Run(run_request);
      const double latency_ms = SecondsBetween(called, Clock::now()) * 1e3;
      Record(request, p, run_request, report, latency_ms, seed, tally);
      if (report.ok()) {
        api::RecycleReport(std::move(*report));
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; t < clients; ++t) {
    threads.emplace_back(client, false);
  }
  client(clients == 1 && calibrator != nullptr);
  for (std::thread& thread : threads) {
    thread.join();
  }
}

// Open loop: requests are due on the seeded Poisson schedule whether or not
// earlier ones finished; latency runs from the due time to the return.
void OpenLoop(Deployment& d, RequestStream& stream, Clock::time_point start, double seconds,
              uint64_t seed, Tally* tally) {
  const size_t n_threads =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const Request request = stream.Next();
        if (request.due_s >= seconds) {
          return;
        }
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(request.due_s));
        std::this_thread::sleep_until(due);
        const double lateness_ms = SecondsBetween(due, Clock::now()) * 1e3;
        const Prepared& p = d.prepared[request.config];
        api::RunRequest run_request;
        run_request.workload_seed = request.workload_seed;
        StatusOr<api::RunReport> report = p.session->Run(run_request);
        const double latency_ms = SecondsBetween(due, Clock::now()) * 1e3;
        Record(request, p, run_request, report, latency_ms, seed, tally);
        std::lock_guard<std::mutex> lock(tally->mu);
        tally->lateness_ms.push_back(lateness_ms);
        if (request.index == 0) {
          tally->first_due_s = request.due_s;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

// Traced timed phase: one client thread; each request goes through the
// composed path (spans) and through the session, and the two reports must
// match bit for bit. Open-loop workloads keep their arrival schedule (late
// requests go at once). Spans cover the first kMaxTracedRequests requests;
// later ones are still run and compared, untraced.
void TracedLoop(const WorkloadSpec& spec, Deployment& d, RequestStream& stream,
                Clock::time_point start, Clock::time_point end, uint64_t seed, Tracer* all_spans,
                Tally* tally) {
  while (Clock::now() < end) {
    const Request request = stream.Next();
    if (spec.open_loop) {
      std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(request.due_s)));
    }
    Prepared& p = d.prepared[request.config];
    const uint64_t id = request.index + 1;
    Tracer* tracer = request.index < kMaxTracedRequests ? all_spans : nullptr;
    if (tracer != nullptr) {
      tracer->Add("sessions", 1.0);
    }
    auto run_composed = [&]() -> StatusOr<api::RunReport> {
      StatusOr<api::RunReport> composed = p.composed->Run(tracer, id, request.workload_seed);
      Status ref = p.composed->RunReplicaReference(tracer, id, request.workload_seed);
      return ref.ok() ? std::move(composed) : ref;
    };
    api::RunRequest run_request;
    run_request.workload_seed = request.workload_seed;
    double latency_ms = 0.0;
    auto run_session = [&]() -> StatusOr<api::RunReport> {
      const uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
      const Clock::time_point called = Clock::now();
      StatusOr<api::RunReport> report = [&] {
        SpanScope span(tracer, "session.run", 0, id);
        return p.session->Run(run_request);
      }();
      latency_ms = SecondsBetween(called, Clock::now()) * 1e3;
      if (tracer != nullptr) {
        tracer->Add("session.allocs",
                    static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                                        allocs_before));
      }
      return report;
    };
    // Alternate which of the two goes first, so neither always finds the
    // other's data in cache.
    StatusOr<api::RunReport> composed = Status(bunshin::StatusCode::kInternal, "not run");
    StatusOr<api::RunReport> report = Status(bunshin::StatusCode::kInternal, "not run");
    if (request.index % 2 == 0) {
      composed = run_composed();
      report = run_session();
    } else {
      report = run_session();
      composed = run_composed();
    }
    Record(request, p, run_request, report, latency_ms, seed, tally);
    if (!composed.ok()) {
      std::lock_guard<std::mutex> lock(tally->mu);
      tally->Fail("composed request " + std::to_string(request.index) + ": " +
                  composed.status().ToString());
    } else if (report.ok()) {
      const std::string diff = CompareReports(*composed, *report);
      if (!diff.empty()) {
        std::lock_guard<std::mutex> lock(tally->mu);
        tally->Fail("composed request " + std::to_string(request.index) + " differs in " + diff);
      }
    }
  }
}

// The oracle's second half: each sampled request again, through fresh
// sessions with PooledEngines(false) and no plan cache. Every field must
// match a fresh session of the same shard count, run in-process (Remote is
// bit-identical to local Shards(k)), and the shard-invariant fields must
// also match a fresh unsharded session.
void CrossCheck(const WorkloadSpec& spec, const std::vector<Config>& configs, Tally* tally) {
  auto fresh_run = [&](const Config& config, size_t shards,
                       const api::RunRequest& request) -> StatusOr<api::RunReport> {
    StatusOr<api::VariantPlan> base = BaseBuilder(config).PlanVariants();
    if (!base.ok()) {
      return base.status();
    }
    api::NvxBuilder builder = BaseBuilder(config);
    ApplyOverlay(ResolveOverlay(config, base->n_variants()), &builder);
    builder.PooledEngines(false);
    if (shards != 0) {
      builder.Shards(shards);
    }
    StatusOr<api::NvxSession> session = builder.Build();
    if (!session.ok()) {
      return session.status();
    }
    return session->Run(request);
  };
  for (const Sample& sample : tally->samples) {
    const Config& config = configs[sample.config];
    const std::string which = "cross-check of config " + std::to_string(sample.config);
    StatusOr<api::RunReport> unsharded = fresh_run(config, 0, sample.request);
    if (!unsharded.ok()) {
      tally->Fail(which + ": " + unsharded.status().ToString());
      continue;
    }
    std::string diff = CompareReports(*unsharded, sample.report,
                                      spec.shards == 0 ? Fields::kAll : Fields::kShardInvariant);
    if (diff.empty() && spec.shards != 0) {
      StatusOr<api::RunReport> same_shape = fresh_run(config, spec.shards, sample.request);
      if (!same_shape.ok()) {
        tally->Fail(which + ": " + same_shape.status().ToString());
        continue;
      }
      diff = CompareReports(*same_shape, sample.report);
    }
    if (!diff.empty()) {
      tally->Fail(which + " differs in " + diff);
    }
  }
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string Metric(const char* name, double value, const char* unit) {
  return std::string("\"") + name + "\": {\"value\": " + Num(value) + ", \"unit\": \"" + unit +
         "\"}";
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--executord") {
      options->executord = value;
    } else if (key == "--out") {
      options->out_dir = value;
    } else if (key == "--clients") {
      options->clients = std::strtoull(value, nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0.0;
}

int Run(const Options& options) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (spec->remote && options.executord.empty()) {
    std::fprintf(stderr, "perfbench: %s needs --executord\n", spec->name);
    return 2;
  }
  const std::vector<Config> configs = DrawConfigs(*spec, options.seed);
  std::unique_ptr<Tracer> tracer = options.trace ? std::make_unique<Tracer>() : nullptr;

  // Set up kSetupReps times and keep the last. A set-up is timed from the
  // end of the previous one's teardown (the first from process start) to
  // the end of its warm-up runs. The calibration kernel runs after each
  // set-up, and each time is also scaled to the reference host by the
  // kernel runs on either side of it; setup_s is the median scaled time.
  std::vector<double> setup_raw_s;
  std::vector<double> setup_s;
  std::vector<double> calib_ms;  // after each set-up
  std::unique_ptr<Deployment> deployment;
  Calibrator calibrator;
  const int reps = options.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    deployment.reset();  // stop the previous set-up's daemons, untimed
    const Clock::time_point began = rep == 0 ? kProcessStart : Clock::now();
    deployment = std::make_unique<Deployment>();
    Status ready = SetUp(*spec, configs, options.seed, options,
                         rep + 1 == reps ? tracer.get() : nullptr, deployment.get());
    if (!ready.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", ready.ToString().c_str());
      return 1;
    }
    setup_raw_s.push_back(SecondsBetween(began, Clock::now()));
    calib_ms.push_back(calibrator.Run(kCalibrationRuns).wall_ms);
    const double around_ms = rep == 0 ? calib_ms[0] : 0.5 * (calib_ms[rep - 1] + calib_ms[rep]);
    setup_s.push_back(setup_raw_s.back() * kReferenceCalibrationMs / around_ms);
  }
  Deployment& d = *deployment;

  // Timed phase, cut into windows of about kWindowS, so that a burst of
  // host steal can be left out of the result (below).
  RequestStream stream(*spec, configs, options.seed);
  const bool open_loop = spec->open_loop && options.clients == 0;
  const double calib_before_ms = calib_ms.back();
  const size_t n_windows =
      std::max<size_t>(1, static_cast<size_t>(std::lround(options.seconds / kWindowS)));
  const double window_s = options.seconds / static_cast<double>(n_windows);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  Tally tally(start);
  // One kernel run per window: paused closed loops run it themselves, the
  // open loop next to its traffic. None next to a traced run, whose
  // allocation counts would see the kernel's.
  std::vector<Calibration> calibrations(n_windows);
  Calibrator* timed_calibrator = options.trace || options.clients > 1 ? nullptr : &calibrator;
  WindowMonitor monitor(d, start, window_s, n_windows, open_loop ? timed_calibrator : nullptr,
                        &calibrations);
  if (options.trace) {
    TracedLoop(*spec, d, stream, start, end, options.seed, tracer.get(), &tally);
  } else if (open_loop) {
    OpenLoop(d, stream, start, options.seconds, options.seed, &tally);
  } else {
    ClosedLoop(d, stream, start, end, options.seed, std::max<size_t>(1, options.clients), window_s,
               timed_calibrator, &calibrations, &tally);
  }
  const std::vector<WindowMonitor::Mark>& marks = monitor.Join();
  const double calib_after_ms = calibrator.Run(kCalibrationRuns).wall_ms;

  // Outside-in memory and fd accounting, before the daemons stop.
  StatusOr<ProcSnapshot> self = ReadProc(0);
  double peak_rss_mb = self.ok() ? self->vm_hwm_mb : 0.0;
  ProcSnapshot daemons;
  for (const auto& daemon : d.daemons) {
    if (StatusOr<ProcSnapshot> snap = ReadProc(daemon->pid()); snap.ok()) {
      peak_rss_mb += snap->vm_hwm_mb;
      daemons.vm_rss_mb += snap->vm_rss_mb;
      daemons.vm_size_mb += snap->vm_size_mb;
      daemons.open_fds += snap->open_fds;
    }
  }
  deployment.reset();  // stop and reap the daemons

  CrossCheck(*spec, configs, &tally);

  // Per-window figures; sessions are binned by completion time.
  std::vector<std::vector<double>> window_latency(n_windows);
  std::vector<double> latency;
  for (const auto& [done_s, latency_ms] : tally.done) {
    latency.push_back(latency_ms);
    const size_t k = static_cast<size_t>(done_s / window_s);
    if (k < n_windows) {
      window_latency[k].push_back(latency_ms);
    }
  }
  // The kernel's CPU time per window, which leaves out host steal as the
  // sessions' CPU time does (its wall time does not, and next to open-loop
  // traffic it doubles whenever the scheduler puts the kernel on a busy
  // vCPU). Its own CPU is left out of the window's.
  std::vector<double> rates, p50s, cpu_ms, steal, window_calib_ms;
  for (size_t k = 0; k < n_windows && k + 1 < marks.size(); ++k) {
    const Calibration& kernel = calibrations[k];
    if (kernel.cpu_ms > 0.0) {
      window_calib_ms.push_back(kernel.cpu_ms);
    }
    const double n = static_cast<double>(window_latency[k].size());
    rates.push_back(n / window_s);
    steal.push_back(marks[k + 1].steal_s - marks[k].steal_s);
    p50s.push_back(n > 0 ? Median(window_latency[k]) : 0.0);
    const double window_cpu_ms = (marks[k + 1].cpu_s() - marks[k].cpu_s()) * 1e3 - kernel.cpu_ms;
    cpu_ms.push_back(n > 0 ? window_cpu_ms / n : 0.0);
  }
  // Only the quietest windows carry the wall-clock and CPU metrics: those
  // whose host steal is no more than that of the window a quarter of the
  // way up the steal order. Steal stalls whatever thread it lands on, and
  // on a shared KVM guest it comes in bursts; with no steal, every window
  // counts. The metrics are ratios of sums over the windows kept.
  std::vector<double> steal_order = steal;
  std::sort(steal_order.begin(), steal_order.end());
  const double steal_cap = steal_order.empty() ? 0.0 : steal_order[steal_order.size() / 4];
  std::vector<size_t> quiet;
  for (size_t k = 0; k < steal.size(); ++k) {
    if (steal[k] <= steal_cap) {
      quiet.push_back(k);
    }
  }
  double quiet_sessions = 0.0;
  double quiet_cpu_ms = 0.0;
  std::vector<double> quiet_p50s;
  for (size_t k : quiet) {
    quiet_sessions += rates[k] * window_s;
    quiet_cpu_ms += cpu_ms[k] * rates[k] * window_s;
    quiet_p50s.push_back(p50s[k]);
  }
  const double quiet_rate = quiet_sessions / (window_s * static_cast<double>(quiet.size()));
  const double quiet_cpu_ms_per_session = quiet_cpu_ms / std::max(1.0, quiet_sessions);
  // The host's speed over the timed phase, as the kernel saw it in every
  // window (one run is noisy, so all windows count); cost in reference-host
  // units is cost * kReferenceCalibrationMs / it.
  const double timed_calib_ms = Median(window_calib_ms);
  const double to_reference = timed_calib_ms > 0.0 ? kReferenceCalibrationMs / timed_calib_ms : 0.0;
  // An open loop's throughput is the offered rate unless it falls behind:
  // completions from the first due time to the last completion.
  double sessions_per_s = quiet_rate;
  if (open_loop && !options.trace && !tally.done.empty()) {
    double last_done_s = 0.0;
    for (const auto& entry : tally.done) {
      last_done_s = std::max(last_done_s, entry.first);
    }
    sessions_per_s = static_cast<double>(tally.done.size()) / (last_done_s - tally.first_due_s);
  }
  std::sort(latency.begin(), latency.end());
  const Percentile p50 = latency.empty() ? Percentile{} : NearestRank(latency, 0.50);
  const Percentile p99 = latency.empty() ? Percentile{} : NearestRank(latency, 0.99);
  std::vector<double> lateness = tally.lateness_ms;
  std::sort(lateness.begin(), lateness.end());

  for (const std::string& error : tally.errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", error.c_str());
  }

  // Diagnostics: not metrics, but what tells a noisy host from a regression.
  auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i == 0 ? "" : ", ") + Num(values[i]);
    }
    return out + "]";
  };
  const double steal_total = marks.empty() ? 0.0 : marks.back().steal_s - marks.front().steal_s;
  std::string diagnostics =
      "{\"workload\": \"" + std::string(spec->name) + "\", \"seed\": " +
      std::to_string(options.seed) + ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"host.steal_s\": " + Num(steal_total) + ", \"host.steal_s_per_window\": " +
      list(steal) + ", \"host.calib_ms_before\": " + Num(calib_before_ms) +
      ", \"host.calib_ms_after\": " + Num(calib_after_ms) +
      ", \"host.calib_ms_timed\": " + Num(timed_calib_ms) +
      ", \"host.calib_ms_per_window\": " + list(window_calib_ms) +
      ", \"cpu_ms_per_session\": " + Num(quiet_cpu_ms_per_session) +
      ", \"sessions_per_s\": " + Num(sessions_per_s) +
      ", \"latency_p50_ms\": " + Num(Median(quiet_p50s)) +
      ", \"quiet_windows\": " + std::to_string(quiet.size()) +
      ", \"latency_p99_ms\": " + (p99.beyond >= kMinSamplesBeyond ? Num(p99.value) : "null") +
      ", \"latency_samples\": " + std::to_string(p50.samples) +
      ", \"latency_p99_beyond\": " + std::to_string(p99.beyond) +
      ", \"sessions_per_s_per_window\": " + list(rates) +
      ", \"cpu_ms_per_session_per_window\": " + list(cpu_ms) +
      ", \"cross_checks\": " + std::to_string(tally.samples.size()) +
      ", \"cpu.self_s\": " + Num(marks.back().self_cpu_s - marks.front().self_cpu_s) +
      ", \"cpu.daemons_s\": " + Num(marks.back().daemon_cpu_s - marks.front().daemon_cpu_s) +
      ", \"setup_reps_s\": " + list(setup_raw_s) + ", \"setup_reps_norm_s\": " + list(setup_s) +
      ", \"setup_calib_ms\": " + list(calib_ms);
  if (open_loop && !options.trace && !lateness.empty()) {
    diagnostics += ", \"generator.lateness_ms_p50\": " + Num(NearestRank(lateness, 0.5).value) +
                   ", \"generator.lateness_ms_p99\": " + Num(NearestRank(lateness, 0.99).value) +
                   ", \"generator.lateness_ms_max\": " + Num(lateness.back());
  }
  diagnostics += "}";
  std::printf("diagnostics %s\n", diagnostics.c_str());

  std::string metrics;
  if (options.trace) {
    const double phase_cpu_s = marks.back().cpu_s() - marks.front().cpu_s();
    tracer->Set("tracegen.action_bytes", static_cast<double>(sizeof(bunshin::nxe::ThreadAction)));
    tracer->Set("cpu.phase_s", phase_cpu_s);
    tracer->Set("cpu.daemons_phase_s", marks.back().daemon_cpu_s - marks.front().daemon_cpu_s);
    tracer->Set("executor.open_fds", static_cast<double>(daemons.open_fds));
    tracer->Set("executor.vmsize_mb", daemons.vm_size_mb);
    tracer->Set("executor.rss_mb", daemons.vm_rss_mb);
    const std::string path = options.out_dir + "/spans-" + spec->name + "-" +
                             std::to_string(options.seed) + ".txt";
    if (Status written = tracer->Write(path); !written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("spans %s\n", path.c_str());
  } else {
    metrics = Metric("cpu_ms_per_session_norm", quiet_cpu_ms_per_session * to_reference, "ms") +
              ", " + Metric("peak_rss_mb", peak_rss_mb, "MB") + ", " +
              Metric("setup_s", Median(setup_s), "s");
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return perfbench::RunSelfTest();
  }
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options) || options.workload.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 [--executord PATH] "
                 "[--out DIR] [--clients K]\n       %s --self-test\n",
                 argv[0], argv[0]);
    return 2;
  }
  return perfbench::Run(options);
}
