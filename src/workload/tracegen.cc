#include "src/workload/tracegen.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
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

// --- Noise tapes ---------------------------------------------------------------
//
// A variant's jitter stream is seeded from (jitter_seed, jitter_salt) alone and
// read in a fixed order, so what it yields is the same for every workload seed
// and every program. A noise tape holds those values; the process keeps a
// bounded memo of them, and DeriveTrace reads the tape instead of drawing.

// A preemption burst (60 + Exp(50) cycles, before scaling) and the tape entry
// it follows.
struct Burst {
  size_t draw;
  double cycles;
};

// The ordered draws of one jitter stream: per jittered segment the factors of
// its Gaussian, and, when the 0.4% preemption draw fires, a burst.
struct NoiseTape {
  std::vector<Rng::GaussianFactors> gaussians;
  // Ascending by draw, then a sentinel no draw reaches.
  std::vector<Burst> bursts;
};

struct TapeKey {
  uint64_t jitter_seed;
  uint64_t jitter_salt;
  bool sprinkle_memory_management;
  bool operator==(const TapeKey&) const = default;
};

constexpr uint64_t kMemoryManagementSalt = 0xABCD;

Rng JitterStream(uint64_t jitter_seed, uint64_t jitter_salt) {
  return Rng(jitter_seed * 0x9E3779B97F4A7C15ULL + jitter_salt);
}

// The only code that draws jitter: the first `draws` entries of `key`'s
// stream. The memory-management stream forks off it before the first draw.
std::shared_ptr<const NoiseTape> FillTape(const TapeKey& key, size_t draws) {
  Rng rng = JitterStream(key.jitter_seed, key.jitter_salt);
  if (key.sprinkle_memory_management) {
    rng.Fork(kMemoryManagementSalt);
  }
  auto tape = std::make_shared<NoiseTape>();
  tape->gaussians.reserve(draws);
  for (size_t d = 0; d < draws; ++d) {
    tape->gaussians.push_back(rng.NextGaussianFactors());
    if (rng.NextBool(0.004)) {
      tape->bursts.push_back({d, 60.0 + rng.NextExponential(50.0)});
    }
  }
  tape->bursts.push_back({std::numeric_limits<size_t>::max(), 0.0});
  return tape;
}

// The process-wide memo: at most kNoiseTapeStreams tapes of at most
// kNoiseTapeDraws draws, least recently used evicted first, so junk jitter
// seeds from the wire cannot pin it. Each tape is as long as the longest
// template that asked for it. Readers hold their tape by shared_ptr, so a
// tape replaced or evicted under them stays valid.
class TapeMemo {
 public:
  // The kept tape of `key`, or null.
  std::shared_ptr<const NoiseTape> Find(const TapeKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry* e = Lookup(key);
    if (e == nullptr) {
      return nullptr;
    }
    e->last_use = ++clock_;
    return e->tape;
  }

  // A tape of `key` holding at least `draws` draws: the kept one if it is
  // long enough, else a new fill, kept when it fits the bound.
  std::shared_ptr<const NoiseTape> Get(const TapeKey& key, size_t draws) {
    if (draws > kNoiseTapeDraws) {
      return FillTape(key, draws);
    }
    if (auto kept = Find(key); kept != nullptr && kept->gaussians.size() >= draws) {
      return kept;
    }
    std::shared_ptr<const NoiseTape> tape = FillTape(key, draws);  // outside the lock
    std::lock_guard<std::mutex> lock(mu_);
    Entry* e = Lookup(key);
    if (e == nullptr) {
      e = std::min_element(std::begin(entries_), std::end(entries_),
                           [](const Entry& a, const Entry& b) { return a.last_use < b.last_use; });
      *e = {key, std::move(tape), 0};
    } else if (e->tape->gaussians.size() < draws) {
      e->tape = std::move(tape);
    }
    e->last_use = ++clock_;
    return e->tape;
  }

 private:
  struct Entry {
    TapeKey key{};
    std::shared_ptr<const NoiseTape> tape;
    uint64_t last_use = 0;
  };

  Entry* Lookup(const TapeKey& key) {
    for (Entry& e : entries_) {
      if (e.tape != nullptr && e.key == key) {
        return &e;
      }
    }
    return nullptr;
  }

  std::mutex mu_;
  uint64_t clock_ = 0;
  Entry entries_[kNoiseTapeStreams];
};

TapeMemo& Tapes() {
  static TapeMemo* memo = new TapeMemo();
  return *memo;
}

// Whether `a` reads the jitter stream: a jittered segment whose cost is not
// <= 0 (NaN reads it too).
bool DrawsJitter(const nxe::ThreadAction& a) {
  return a.kind == nxe::ActionKind::kCompute && a.arg == TraceTemplate::kJittered &&
         !(a.cost <= 0.0);
}

// The jitter draws a derive from `tmpl` makes, counted on every derive: a
// hand-built template carries no count to trust.
size_t JitterDraws(const TraceTemplate& tmpl) {
  size_t draws = 0;
  for (const nxe::ThreadTrace& thread : tmpl.threads) {
    for (const nxe::ThreadAction& a : thread.actions) {
      draws += DrawsJitter(a) ? 1 : 0;
    }
  }
  return draws;
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
// derived thread and the index its action names its record by.
struct MmInsert {
  uint32_t pos;
  uint32_t record;
};

// Draws the memory-management syscalls a sanitizer runtime issues, spread
// across the thread's timeline, and adds their records to `thread`'s own
// table. These are *not* in the template — each variant has different ones —
// which is exactly why the NXE must ignore them (§3.3). Each draw inserts
// into the growing action list at a position uniform over its current
// length; `inserts` receives the positions those inserts end up at in the
// final list, ascending.
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
    inserts[i] = {pos, thread->AddRecord(rec)};
  }
  std::sort(inserts, inserts + count,
            [](const MmInsert& a, const MmInsert& b) { return a.pos < b.pos; });
}

// Where a derive stands in its variant's noise tape, which holds at least
// every draw the template makes.
struct TapeCursor {
  const Rng::GaussianFactors* gaussian;  // the next draw's factors
  const Burst* burst;                    // the next burst (or the sentinel)
  size_t draw;                           // the next draw's index
};

// The derive kernel: writes the derived form of the template actions
// [in, end) to `out` and returns the end of what it wrote. Every action is
// copied as a whole 16-byte record; a compute action then gets arg 0 and, if
// it draws, its jittered cost. The cursor is read into locals so the loop
// state stays in registers, and the tape's length is never checked.
nxe::ThreadAction* DeriveRun(const nxe::ThreadAction* in, const nxe::ThreadAction* end,
                             nxe::ThreadAction* out, double sigma, double scale_div,
                             TapeCursor* cursor) {
  const Rng::GaussianFactors* g = cursor->gaussian;
  const Burst* burst = cursor->burst;
  size_t draw = cursor->draw;
  for (; in != end; ++in, ++out) {
    std::memcpy(out, in, sizeof(nxe::ThreadAction));
    if (in->kind != nxe::ActionKind::kCompute) {
      continue;
    }
    out->arg = 0;
    if (!DrawsJitter(*in)) {
      continue;
    }
    // OS noise behaves like a random walk over the segment, so the absolute
    // deviation grows with sqrt(cost): long compute bursts between syscalls
    // absorb proportionally less jitter than dense syscall bursts.
    // `scale_div` is max(1, the variant's sanitizer slowdown): the engine
    // multiplies every compute cost by the slowdown, but OS jitter is a
    // property of wall-clock time, not of the instrumentation, so the
    // deviation is divided out here to be scale-invariant after the engine's
    // multiplication. The `0.0 +` is NextGaussian's mean: the arithmetic is
    // the live draw's, operation for operation.
    const double cost = in->cost;
    const double sigma_abs = sigma * std::sqrt(cost) / scale_div;
    double jittered = std::max(0.05 * cost, cost + (0.0 + sigma_abs * g->a * g->b));
    // Occasionally the OS preempts the process for a scheduling quantum — a
    // heavy-tailed burst that lets the leader run several syscalls ahead of
    // a follower in selective mode (the §5.3 gap measurements).
    if (burst->draw == draw) {
      jittered += burst->cycles / scale_div;
      ++burst;
    }
    ++g;
    ++draw;
    out->cost = jittered;
  }
  *cursor = {g, burst, draw};
  return out;
}

// Empties template thread `thread` for a rebuild and returns the record
// table it borrows, to be filled. A table no derived trace borrows any more
// (the template holds the only reference) is refilled in place, so its
// capacity carries over from seed to seed; one still borrowed stays with its
// borrowers. use_count() is a relaxed read, so a borrower on another thread
// must have dropped its reference before the rebuild starts, as the session
// scratch's checkout mutex orders it.
nxe::RecordTable* ResetTemplateThread(nxe::ThreadTrace* thread) {
  thread->actions.clear();
  thread->syscalls.clear();
  thread->detectors.clear();
  if (thread->borrowed.use_count() != 1) {
    thread->borrowed = std::make_shared<nxe::RecordTable>();
  }
  // Every table a template borrows was made non-const just above.
  auto* table = const_cast<nxe::RecordTable*>(thread->borrowed.get());
  table->clear();
  return table;
}

// Appends a syscall action naming `record`, added to the template table
// `table` that `thread` borrows.
void AppendTemplateSyscall(const sc::SyscallRecord& record, nxe::RecordTable* table,
                           nxe::ThreadTrace* thread) {
  thread->Append({0.0, static_cast<uint32_t>(table->size()), nxe::ActionKind::kSyscall});
  table->push_back(record);
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
    nxe::RecordTable* records = ResetTemplateThread(&thread);
    records->reserve(syscalls_per_thread);

    events.clear();
    for (size_t i = 0; i < syscalls_per_thread; ++i) {
      records->push_back(TemplateSyscall(t * 100000 + i, bench.io_write_frac, &struct_rng));
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

  const TapeKey key{variant.jitter_seed, tmpl.jitter_salt, tmpl.sprinkle_memory_management};
  size_t mm_count = 0;
  std::optional<Rng> mm_rng;
  if (tmpl.sprinkle_memory_management) {
    mm_rng.emplace(JitterStream(key.jitter_seed, key.jitter_salt).Fork(kMemoryManagementSalt));
    for (san::SanitizerId id : variant.sanitizers) {
      mm_count += RuntimeRecordsOf(id).in_execution * 3;
    }
  }
  std::vector<MmInsert> inserts(mm_count);

  // One tape fetch per derive, long enough for every draw.
  const size_t draws = JitterDraws(tmpl);
  const std::shared_ptr<const NoiseTape> tape = draws == 0 ? nullptr : Tapes().Get(key, draws);
  TapeCursor cursor{tape == nullptr ? nullptr : tape->gaussians.data(),
                    tape == nullptr ? nullptr : tape->bursts.data(), 0};

  const double sigma = tmpl.noise_sigma;
  const double scale_div = std::max(1.0, variant.compute_scale);
  for (size_t t = 0; t < tmpl.threads.size(); ++t) {
    const nxe::ThreadTrace& src = tmpl.threads[t];
    nxe::ThreadTrace& dst = out->threads[t];
    const size_t len = src.actions.size();
    const size_t inserted = len == 0 ? 0 : mm_count;

    // The template's records are borrowed, not copied: the derived thread
    // resolves every index the template does, and owns only what it adds.
    dst.borrowed = src.borrowed;
    dst.syscalls.clear();
    dst.syscalls.reserve(src.syscalls.size() + inserted);
    dst.syscalls.insert(dst.syscalls.end(), src.syscalls.begin(), src.syscalls.end());
    dst.detectors = src.detectors;
    if (inserted > 0) {
      DrawMemoryManagement(inserted, len, &*mm_rng, &dst, inserts.data());
    }

    // Runs of template actions between the inserts, written into a buffer
    // presized to the derived length. Insert k ends at position pos, after
    // pos - k template actions.
    dst.actions.resize(len + inserted);
    const nxe::ThreadAction* in = src.actions.data();
    nxe::ThreadAction* next = dst.actions.data();
    size_t done = 0;
    for (size_t k = 0; k < inserted; ++k) {
      const size_t upto = inserts[k].pos - k;
      next = DeriveRun(in + done, in + upto, next, sigma, scale_div, &cursor);
      *next++ = {0.0, inserts[k].record, nxe::ActionKind::kSyscall};
      done = upto;
    }
    DeriveRun(in + done, in + len, next, sigma, scale_div, &cursor);
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
    nxe::RecordTable* records = ResetTemplateThread(&thread);
    const size_t reqs = server.requests / out->threads.size();
    for (size_t r = 0; r < reqs; ++r) {
      const std::string req_tag =
          "req#" + std::to_string(t) + "/" + std::to_string(r);

      sc::SyscallRecord accept;
      accept.no = sc::Sysno::kAccept;
      accept.args = {4, 0, 0, 0, 0, 0};
      AppendTemplateSyscall(accept, records, &thread);

      thread.Append(JitteredSegment(parse_compute));

      sc::SyscallRecord open;
      open.no = sc::Sysno::kOpen;
      open.payload_digest = sc::DigestString("www/file" + std::to_string(struct_rng.NextBounded(8)));
      AppendTemplateSyscall(open, records, &thread);

      sc::SyscallRecord read;
      read.no = sc::Sysno::kRead;
      read.args = {5, static_cast<int64_t>(server.file_kb * 1024), 0, 0, 0, 0};
      AppendTemplateSyscall(read, records, &thread);
      thread.Append(JitteredSegment(read_compute));

      for (size_t c = 0; c < chunks; ++c) {
        sc::SyscallRecord write;
        write.no = sc::Sysno::kWrite;
        write.args = {6, static_cast<int64_t>(server.file_kb * 1024 / chunks), 0, 0, 0, 0};
        write.payload_digest = sc::DigestString(req_tag + "#chunk" + std::to_string(c));
        AppendTemplateSyscall(write, records, &thread);
        if (large) {
          thread.Append(JitteredSegment(34.0));
        }
      }

      sc::SyscallRecord close;
      close.no = sc::Sysno::kClose;
      close.args = {6, 0, 0, 0, 0, 0};
      AppendTemplateSyscall(close, records, &thread);
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

}  // namespace workload
}  // namespace bunshin
