#include "src/workload/tracegen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "src/support/rng.h"

namespace bunshin {
namespace workload {
namespace {

// Benign syscall record for slot `i` of the template, honoring the IO mix.
sc::SyscallRecord TemplateSyscall(size_t i, double io_write_frac, Rng* rng) {
  sc::SyscallRecord rec;
  if (rng->NextBool(io_write_frac)) {
    rec.no = sc::Sysno::kWrite;
    rec.args = {1, static_cast<int64_t>(64 + rng->NextBounded(4032)), 0, 0, 0, 0};
    rec.payload_digest = sc::DigestString("out#" + std::to_string(i));
  } else {
    switch (rng->NextBounded(4)) {
      case 0:
        rec.no = sc::Sysno::kRead;
        rec.args = {3, static_cast<int64_t>(rng->NextBounded(8192)), 0, 0, 0, 0};
        break;
      case 1:
        rec.no = sc::Sysno::kOpen;
        rec.payload_digest = sc::DigestString("file#" + std::to_string(rng->NextBounded(32)));
        break;
      case 2:
        rec.no = sc::Sysno::kFstat;
        rec.args = {3, 0, 0, 0, 0, 0};
        break;
      default:
        rec.no = sc::Sysno::kClose;
        rec.args = {3, 0, 0, 0, 0, 0};
        break;
    }
  }
  return rec;
}

// Applies the variant's scheduling jitter to a template compute cost. OS
// noise behaves like a random walk over the segment, so the absolute
// deviation grows with sqrt(cost): long compute bursts between syscalls
// absorb proportionally less jitter than dense syscall bursts.
// `scale` is the variant's sanitizer slowdown: the engine multiplies every
// compute cost by it, but OS jitter is a property of wall-clock time, not of
// the instrumentation, so the deviation is divided out here to be
// scale-invariant after the engine's multiplication.
double Jitter(double cost, double sigma_coeff, double scale, Rng* rng) {
  if (cost <= 0.0) {
    return cost;
  }
  const double sigma_abs = sigma_coeff * std::sqrt(cost) / std::max(1.0, scale);
  double jittered = std::max(0.05 * cost, cost + rng->NextGaussian(0.0, sigma_abs));
  // Occasionally the OS preempts the process for a scheduling quantum — a
  // heavy-tailed burst that lets the leader run several syscalls ahead of a
  // follower in selective mode (the §5.3 gap measurements).
  if (rng->NextBool(0.004)) {
    jittered += (60.0 + rng->NextExponential(50.0)) / std::max(1.0, scale);
  }
  return jittered;
}

// The runtime records a sanitizer adds around every run, parsed once from
// the catalog (the entries never change).
struct RuntimeRecords {
  std::vector<sc::SyscallRecord> pre_main;
  std::vector<sc::SyscallRecord> post_exit;
  size_t in_execution = 0;  // catalog in-execution entries
};

const RuntimeRecords& RuntimeRecordsOf(san::SanitizerId id) {
  static const std::vector<RuntimeRecords>* table = [] {
    auto* records = new std::vector<RuntimeRecords>();
    for (const auto& info : san::AllSanitizers()) {
      const size_t slot = static_cast<size_t>(info.id);
      if (records->size() <= slot) {
        records->resize(slot + 1);
      }
      RuntimeRecords& r = (*records)[slot];
      for (const auto& entry : info.introduced.pre_launch) {
        r.pre_main.push_back(sc::ParseIntroducedSyscall(entry));
      }
      for (const auto& entry : info.introduced.post_exit) {
        r.post_exit.push_back(sc::ParseIntroducedSyscall(entry));
      }
      r.in_execution = info.introduced.in_execution.size();
    }
    return records;
  }();
  return (*table)[static_cast<size_t>(id)];
}

void AddSanitizerRuntimeSyscalls(const VariantSpec& variant, nxe::VariantTrace* trace) {
  trace->pre_main.clear();
  trace->post_exit.clear();
  for (san::SanitizerId id : variant.sanitizers) {
    const RuntimeRecords& records = RuntimeRecordsOf(id);
    trace->pre_main.insert(trace->pre_main.end(), records.pre_main.begin(),
                           records.pre_main.end());
    trace->post_exit.insert(trace->post_exit.end(), records.post_exit.begin(),
                            records.post_exit.end());
  }
}

// A template compute segment that each variant's jitter stream perturbs.
nxe::ThreadAction JitteredSegment(double cost) {
  return {cost, TraceTemplate::kJittered, nxe::ActionKind::kCompute};
}

// One in-execution memory-management syscall: its final position in the
// derived thread and its index in the thread's syscall table.
struct MmInsert {
  uint32_t pos;
  uint32_t record;
};

// Draws the memory-management syscalls a sanitizer runtime issues, spread
// across the thread's timeline, and appends their records to `thread`'s
// syscall table. These are *not* in the template — each variant has
// different ones — which is exactly why the NXE must ignore them (§3.3).
// Each draw inserts into the growing action list at a position uniform over
// its current length; `inserts` receives the positions those inserts end up
// at in the final list, ascending.
void DrawMemoryManagement(size_t count, size_t template_len, Rng* rng, nxe::ThreadTrace* thread,
                          MmInsert* inserts) {
  for (size_t i = 0; i < count; ++i) {
    sc::SyscallRecord rec;
    rec.no = (rng->NextBounded(2) == 0) ? sc::Sysno::kMmap : sc::Sysno::kMadvise;
    rec.args = {static_cast<int64_t>(rng->NextBounded(1 << 20)), 4096, 0, 0, 0, 0};
    const auto pos = static_cast<uint32_t>(rng->NextBounded(template_len + i));
    // Earlier inserts at or after `pos` shift one slot right.
    for (size_t j = 0; j < i; ++j) {
      inserts[j].pos += inserts[j].pos >= pos ? 1 : 0;
    }
    inserts[i] = {pos, static_cast<uint32_t>(thread->syscalls.size())};
    thread->syscalls.push_back(rec);
  }
  std::sort(inserts, inserts + count,
            [](const MmInsert& a, const MmInsert& b) { return a.pos < b.pos; });
}

}  // namespace

void BuildTemplate(const BenchmarkSpec& bench, uint64_t workload_seed, TraceTemplate* out) {
  const size_t threads = std::max<size_t>(1, bench.threads);
  out->threads.resize(threads);
  out->noise_sigma = bench.noise_rel_sigma;
  out->jitter_salt = 17;
  out->sprinkle_memory_management = true;

  const double compute_per_thread = bench.total_compute / static_cast<double>(threads);
  const size_t syscalls_per_thread = std::max<size_t>(1, bench.n_syscalls / threads);
  const size_t locks_per_thread =
      static_cast<size_t>(bench.locks_per_kilo * compute_per_thread / 1000.0);
  const size_t barriers = bench.barriers;

  // Ordered sync events of one thread: a syscall (id indexes the thread's
  // record table), a lock (id is the lock) or a barrier (id is the episode).
  struct Ev {
    enum class Type : uint8_t { kSyscall, kLock, kBarrier } type;
    uint32_t id;
  };
  std::vector<Ev> events;
  events.reserve(syscalls_per_thread + locks_per_thread + barriers);

  // Segment layout per thread: syscalls, locks, and barriers interleaved with
  // compute. Both structure and records must match across variants, so all
  // structural draws come from a stream seeded identically per thread.
  for (size_t t = 0; t < threads; ++t) {
    Rng struct_rng = Rng(workload_seed ^ (0x5DEECE66DULL * (t + 1)));
    nxe::ThreadTrace& thread = out->threads[t];
    thread.actions.clear();
    thread.syscalls.clear();
    thread.detectors.clear();
    thread.syscalls.reserve(syscalls_per_thread);

    events.clear();
    for (size_t i = 0; i < syscalls_per_thread; ++i) {
      thread.syscalls.push_back(
          TemplateSyscall(t * 100000 + i, bench.io_write_frac, &struct_rng));
      events.push_back({Ev::Type::kSyscall, static_cast<uint32_t>(i)});
    }
    for (size_t i = 0; i < locks_per_thread; ++i) {
      events.push_back({Ev::Type::kLock, static_cast<uint32_t>(struct_rng.NextBounded(8))});
    }
    // Shuffle syscalls and locks deterministically (Fisher-Yates).
    for (size_t i = events.size(); i > 1; --i) {
      std::swap(events[i - 1], events[struct_rng.NextBounded(i)]);
    }
    // Barriers are global rendezvous: same positions (relative) in every
    // thread — append at evenly spaced indices.
    if (barriers > 0) {
      const size_t stride = events.size() / (barriers + 1) + 1;
      size_t inserted = 0;
      for (size_t b = 0; b < barriers; ++b) {
        const size_t pos = std::min(events.size(), (b + 1) * stride + inserted);
        events.insert(events.begin() + static_cast<long>(pos),
                      {Ev::Type::kBarrier, static_cast<uint32_t>(b)});
        ++inserted;
      }
    }

    const double mean_segment =
        compute_per_thread / static_cast<double>(events.size() + 1);
    thread.actions.reserve(2 * events.size() + 2 * locks_per_thread + 2);
    for (const auto& ev : events) {
      // Template segment cost; each variant jitters it (scheduling noise).
      const double base = mean_segment * (0.5 + struct_rng.NextDouble());
      thread.Append(JitteredSegment(base));
      switch (ev.type) {
        case Ev::Type::kSyscall:
          thread.Append({0.0, ev.id, nxe::ActionKind::kSyscall});
          break;
        case Ev::Type::kLock:
          thread.Append(nxe::ThreadAction::Lock(ev.id));
          thread.Append(nxe::ThreadAction::Compute(mean_segment * 0.05));
          thread.Append(nxe::ThreadAction::Unlock(ev.id));
          break;
        case Ev::Type::kBarrier:
          thread.Append(nxe::ThreadAction::Barrier(ev.id));
          break;
      }
    }
    thread.Append(JitteredSegment(mean_segment));
    thread.Append(nxe::ThreadAction::Exit());
  }
}

double TemplateActions(const BenchmarkSpec& bench) {
  // The same shape arithmetic as BuildTemplate, in double.
  const size_t threads = std::max<size_t>(1, bench.threads);
  const double syscalls = static_cast<double>(std::max<size_t>(1, bench.n_syscalls / threads));
  const double locks =
      std::trunc(bench.locks_per_kilo * (bench.total_compute / static_cast<double>(threads)) /
                 1000.0);
  if (locks < 0.0) {
    return std::numeric_limits<double>::quiet_NaN();  // no lock count is negative
  }
  // Per thread: a segment before each syscall, barrier and lock (which adds
  // the lock, its hold time and the unlock), then a closing segment and exit.
  return static_cast<double>(threads) *
         (2.0 * syscalls + 4.0 * locks + 2.0 * static_cast<double>(bench.barriers) + 2.0);
}

void DeriveTrace(const TraceTemplate& tmpl, const VariantSpec& variant, nxe::VariantTrace* out) {
  out->name = variant.name;
  out->compute_scale = variant.compute_scale;
  out->threads.resize(tmpl.threads.size());

  Rng jitter_rng(variant.jitter_seed * 0x9E3779B97F4A7C15ULL + tmpl.jitter_salt);
  size_t mm_count = 0;
  std::optional<Rng> mm_rng;
  if (tmpl.sprinkle_memory_management) {
    mm_rng.emplace(jitter_rng.Fork(0xABCD));
    for (san::SanitizerId id : variant.sanitizers) {
      mm_count += RuntimeRecordsOf(id).in_execution * 3;
    }
  }
  std::vector<MmInsert> inserts(mm_count);

  const double sigma = tmpl.noise_sigma;
  const double scale = variant.compute_scale;
  for (size_t t = 0; t < tmpl.threads.size(); ++t) {
    const nxe::ThreadTrace& src = tmpl.threads[t];
    nxe::ThreadTrace& dst = out->threads[t];
    const size_t len = src.actions.size();
    const size_t inserted = len == 0 ? 0 : mm_count;

    dst.syscalls.clear();
    dst.syscalls.reserve(src.syscalls.size() + inserted);
    dst.syscalls.insert(dst.syscalls.end(), src.syscalls.begin(), src.syscalls.end());
    dst.detectors.clear();
    if (inserted > 0) {
      DrawMemoryManagement(inserted, len, &*mm_rng, &dst, inserts.data());
    }

    dst.actions.clear();
    dst.actions.reserve(len + inserted);
    size_t next = 0;
    for (const nxe::ThreadAction& a : src.actions) {
      while (next < inserted && inserts[next].pos == dst.actions.size()) {
        dst.Append({0.0, inserts[next++].record, nxe::ActionKind::kSyscall});
      }
      if (a.kind == nxe::ActionKind::kCompute) {
        const double cost =
            a.arg == TraceTemplate::kJittered ? Jitter(a.cost, sigma, scale, &jitter_rng) : a.cost;
        dst.Append(nxe::ThreadAction::Compute(cost));
      } else {
        dst.Append(a);
      }
    }
    while (next < inserted) {
      dst.Append({0.0, inserts[next++].record, nxe::ActionKind::kSyscall});
    }
  }

  AddSanitizerRuntimeSyscalls(variant, out);
}

nxe::VariantTrace BuildTrace(const BenchmarkSpec& bench, const VariantSpec& variant,
                             uint64_t workload_seed) {
  TraceTemplate tmpl;
  BuildTemplate(bench, workload_seed, &tmpl);
  nxe::VariantTrace trace;
  DeriveTrace(tmpl, variant, &trace);
  return trace;
}

std::vector<nxe::VariantTrace> BuildIdenticalVariants(const BenchmarkSpec& bench, size_t n,
                                                      uint64_t workload_seed) {
  TraceTemplate tmpl;
  BuildTemplate(bench, workload_seed, &tmpl);
  std::vector<nxe::VariantTrace> variants(n);
  for (size_t v = 0; v < n; ++v) {
    VariantSpec spec;
    spec.name = "v" + std::to_string(v);
    spec.jitter_seed = 1000 + v;
    DeriveTrace(tmpl, spec, &variants[v]);
  }
  return variants;
}

void BuildServerTemplate(const ServerSpec& server, uint64_t workload_seed, TraceTemplate* out) {
  out->threads.resize(std::max<size_t>(1, server.threads));
  // Queueing pressure from concurrent connections: more in-flight requests
  // means noisier scheduling around each request.
  out->noise_sigma =
      server.noise_rel_sigma * (1.0 + static_cast<double>(server.concurrency) / 2048.0);
  out->jitter_salt = 29;
  out->sprinkle_memory_management = false;

  const bool large = server.file_kb >= 1024;
  const size_t chunks = large ? 16 : 1;
  // Calibrated so baseline per-request times land near Table 2's
  // microsecond figures (1KB ~10us, 1MB ~960us at 0.1us/cycle).
  const double parse_compute = large ? 160.0 : 55.0;
  const double read_compute = large ? 9200.0 : 18.0;

  for (size_t t = 0; t < out->threads.size(); ++t) {
    Rng struct_rng = Rng(workload_seed ^ (0xC0FFEEULL * (t + 1)));
    nxe::ThreadTrace& thread = out->threads[t];
    thread.actions.clear();
    thread.syscalls.clear();
    thread.detectors.clear();
    const size_t reqs = server.requests / out->threads.size();
    for (size_t r = 0; r < reqs; ++r) {
      const std::string req_tag =
          "req#" + std::to_string(t) + "/" + std::to_string(r);

      sc::SyscallRecord accept;
      accept.no = sc::Sysno::kAccept;
      accept.args = {4, 0, 0, 0, 0, 0};
      thread.AppendSyscall(accept);

      thread.Append(JitteredSegment(parse_compute));

      sc::SyscallRecord open;
      open.no = sc::Sysno::kOpen;
      open.payload_digest = sc::DigestString("www/file" + std::to_string(struct_rng.NextBounded(8)));
      thread.AppendSyscall(open);

      sc::SyscallRecord read;
      read.no = sc::Sysno::kRead;
      read.args = {5, static_cast<int64_t>(server.file_kb * 1024), 0, 0, 0, 0};
      thread.AppendSyscall(read);
      thread.Append(JitteredSegment(read_compute));

      for (size_t c = 0; c < chunks; ++c) {
        sc::SyscallRecord write;
        write.no = sc::Sysno::kWrite;
        write.args = {6, static_cast<int64_t>(server.file_kb * 1024 / chunks), 0, 0, 0, 0};
        write.payload_digest = sc::DigestString(req_tag + "#chunk" + std::to_string(c));
        thread.AppendSyscall(write);
        if (large) {
          thread.Append(JitteredSegment(34.0));
        }
      }

      sc::SyscallRecord close;
      close.no = sc::Sysno::kClose;
      close.args = {6, 0, 0, 0, 0, 0};
      thread.AppendSyscall(close);
    }
    thread.Append(nxe::ThreadAction::Exit());
  }
}

double TemplateActions(const ServerSpec& server) {
  const size_t threads = std::max<size_t>(1, server.threads);
  const double requests = static_cast<double>(server.requests / threads);
  // accept, parse, open, read, read compute and close, plus each chunk's
  // write and, for 1MB responses, its send segment; one exit per thread.
  const double per_request = server.file_kb >= 1024 ? 6.0 + 16.0 * 2.0 : 6.0 + 1.0;
  return static_cast<double>(threads) * (requests * per_request + 1.0);
}

nxe::VariantTrace BuildServerTrace(const ServerSpec& server, const VariantSpec& variant,
                                   uint64_t workload_seed) {
  TraceTemplate tmpl;
  BuildServerTemplate(server, workload_seed, &tmpl);
  nxe::VariantTrace trace;
  DeriveTrace(tmpl, variant, &trace);
  return trace;
}

std::vector<nxe::VariantTrace> BuildIdenticalServerVariants(const ServerSpec& server, size_t n,
                                                            uint64_t workload_seed) {
  TraceTemplate tmpl;
  BuildServerTemplate(server, workload_seed, &tmpl);
  std::vector<nxe::VariantTrace> variants(n);
  for (size_t v = 0; v < n; ++v) {
    VariantSpec spec;
    spec.name = "v" + std::to_string(v);
    spec.jitter_seed = 2000 + v;
    DeriveTrace(tmpl, spec, &variants[v]);
  }
  return variants;
}

}  // namespace workload
}  // namespace bunshin
