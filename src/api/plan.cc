#include "src/api/plan.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <string_view>
#include <type_traits>

#include "src/support/enum_name.h"
#include "src/syscall/syscall.h"

namespace bunshin {
namespace api {
namespace {

// Local slot of global variant `global`, if this member subset runs it.
std::optional<size_t> LocalSlot(const std::vector<size_t>& members, size_t global) {
  for (size_t local = 0; local < members.size(); ++local) {
    if (members[local] == global) {
      return local;
    }
  }
  return std::nullopt;
}

// Room for a catalog plan's whole key, about 360 characters.
constexpr size_t kCacheKeyReserve = 512;

// Appends `value` as CacheKeyDouble renders it.
void AppendKeyDouble(std::string* key, double value) {
  // The longest rendering, "-2.2250738585072014e-308", takes 24 characters.
  char buf[32];
  const std::to_chars_result end =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  key->append(buf, end.ptr);
}

// Appends each part of a key in turn: doubles as CacheKeyDouble renders
// them, integers in decimal, strings as they are.
template <typename... Parts>
void AppendKey(std::string* key, const Parts&... parts) {
  const auto append = [key](const auto& part) {
    using Part = std::decay_t<decltype(part)>;
    if constexpr (std::is_same_v<Part, double>) {
      AppendKeyDouble(key, part);
    } else if constexpr (std::is_integral_v<Part>) {
      static_assert(!std::is_same_v<Part, bool> && !std::is_same_v<Part, char>);
      char buf[24];
      key->append(buf, std::to_chars(buf, buf + sizeof(buf), part).ptr);
    } else {
      key->append(std::string_view(part));
    }
  };
  (append(parts), ...);
}

// Strategy-parameter fragments of CacheKey().
void AppendPartitionOptionsKey(std::string* key, const partition::PartitionOptions& options) {
  AppendKey(key, "|part=", partition::AlgorithmName(options.algorithm), "/", options.max_nodes,
            "/", options.epsilon);
}

void AppendSanitizerListKey(std::string* key, const std::vector<san::SanitizerId>& sanitizers) {
  AppendKey(key, "|sans=", sanitizers.size());
  for (san::SanitizerId id : sanitizers) {
    AppendKey(key, ",", san::SanitizerName(id));
  }
}

}  // namespace

const char* DistributionStrategyName(DistributionStrategy strategy) {
  static constexpr support::EnumNameEntry kNames[] = {
      {static_cast<int>(DistributionStrategy::kNone), "identical"},
      {static_cast<int>(DistributionStrategy::kCheck), "check-distribution"},
      {static_cast<int>(DistributionStrategy::kSanitizer), "sanitizer-distribution"},
      {static_cast<int>(DistributionStrategy::kUbsanSub), "ubsan-sub-distribution"},
  };
  return support::EnumName(kNames, strategy);
}

std::string CacheKeyDouble(double value) {
  std::string out;
  AppendKeyDouble(&out, value);
  return out;
}

void AppendCacheKeyComponent(std::string* key, const std::string& component) {
  AppendKey(key, component.size(), ":", component);
}

std::string VariantPlan::CacheKey() const {
  // Target identity: the name (length-prefixed — names are free-form) plus
  // every knob that drives trace generation or planning. The sanitizer
  // overhead table and the profile-shape fields matter too: a custom spec
  // may reuse a catalog name with different calibration, and those values
  // feed straight into per-variant compute scales. Every part is appended
  // into one string, reserved for a catalog key with room to spare.
  std::string key;
  key.reserve(kCacheKeyReserve);
  if (benchmark.has_value()) {
    const workload::BenchmarkSpec& b = *benchmark;
    key += "bench:";
    AppendCacheKeyComponent(&key, b.name);
    AppendKey(&key, "/", b.n_functions, "/", b.hottest_share, "/", b.func_rate_sigma, "/",
              b.total_compute, "/", b.n_syscalls, "/", b.io_write_frac, "/", b.noise_rel_sigma,
              "/", b.threads, "/", b.locks_per_kilo, "/", b.barriers);
    AppendKey(&key, "/ovh=", b.overheads.asan, "/", b.overheads.msan, "/", b.overheads.ubsan,
              "/", b.overheads.msan_supported ? "1" : "0");
  } else if (server.has_value()) {
    key += "server:";
    AppendCacheKeyComponent(&key, server->name);
    AppendKey(&key, "/", server->threads, "/", server->requests, "/", server->file_kb, "/",
              server->concurrency, "/", server->noise_rel_sigma);
  } else {
    key += "none";
  }
  AppendKey(&key, "|", DistributionStrategyName(strategy));
  // Strategy parameters (only the ones the active strategy consumes, so a
  // stale knob left over from builder reuse cannot split the key).
  if (strategy == DistributionStrategy::kCheck) {
    AppendKey(&key, "|san=", san::SanitizerName(check_sanitizer));
    AppendPartitionOptionsKey(&key, partition_options);
  } else if (strategy == DistributionStrategy::kSanitizer) {
    AppendSanitizerListKey(&key, sanitizers);
  }
  AppendKey(&key, "|n=", requested_variants != 0 ? requested_variants : specs.size(),
            "|seed=", seed, "|mode=", nxe::LockstepModeName(engine_config.mode),
            "|ring=", engine_config.ring_capacity);
  // Everything the reports' timing depends on: LLC sensitivity and the full
  // cost/hardware model.
  const nxe::CostModel& cost = engine_config.cost;
  AppendKey(&key, "|llc=", engine_config.cache_sensitivity, "|cost=", cost.kernel_syscall, "/",
            cost.trap_hook, "/", cost.sync_slot, "/", cost.result_fetch, "/", cost.wait_wakeup,
            "/", cost.synccall, "/", cost.lock_primitive, "/", cost.cores, "/", cost.llc_alpha,
            "/", cost.llc_exponent, "/", cost.background_load, "/", cost.load_wait_coeff);
  if (measure_standalone) {
    key += "|standalone";
  }
  // Attack overlays last: the cacheable base plan has none, so its key is
  // the shared prefix every injected session looks up the cache under.
  for (const auto& injection : detect_injections) {
    AppendKey(&key, "|det", injection.variant, ":");
    AppendCacheKeyComponent(&key, injection.detector);
  }
  for (const auto& injection : diverge_injections) {
    AppendKey(&key, "|div", injection.variant, ":");
    AppendCacheKeyComponent(&key, injection.payload);
  }
  return key;
}

StatusOr<std::vector<nxe::VariantTrace>> BuildPlanTraces(const VariantPlan& plan,
                                                         const std::vector<size_t>& members,
                                                         uint64_t seed) {
  std::vector<nxe::VariantTrace> traces;
  Status status = BuildPlanTraces(plan, members, seed, &traces);
  if (!status.ok()) {
    return status;
  }
  return traces;
}

Status BuildPlanTraces(const VariantPlan& plan, const std::vector<size_t>& members,
                       uint64_t seed, std::vector<nxe::VariantTrace>* out) {
  workload::TraceTemplate tmpl;
  BuildPlanTemplate(plan, seed, &tmpl);
  return DerivePlanTraces(plan, members, tmpl, out);
}

void BuildPlanTemplate(const VariantPlan& plan, uint64_t seed, workload::TraceTemplate* out) {
  if (plan.server.has_value()) {
    workload::BuildServerTemplate(*plan.server, seed, out);
  } else {
    workload::BuildTemplate(*plan.benchmark, seed, out);
  }
}

Status DerivePlanTraces(const VariantPlan& plan, const std::vector<size_t>& members,
                        const workload::TraceTemplate& tmpl, std::vector<nxe::VariantTrace>* out) {
  std::vector<nxe::VariantTrace>& traces = *out;
  traces.resize(members.size());
  for (size_t local = 0; local < members.size(); ++local) {
    workload::DeriveTrace(tmpl, plan.specs[members[local]], &traces[local]);
  }
  for (const auto& injection : plan.detect_injections) {
    const std::optional<size_t> local = LocalSlot(members, injection.variant);
    if (!local.has_value()) {
      continue;  // that variant runs in another shard
    }
    // Splice the firing check mid-run into the variant's first thread (the
    // attack reaches the vulnerable function partway through execution).
    nxe::ThreadTrace& thread = traces[*local].threads.front();
    thread.InsertDetect(thread.actions.size() / 2, injection.detector);
  }
  for (const auto& injection : plan.diverge_injections) {
    const std::optional<size_t> local = LocalSlot(members, injection.variant);
    if (!local.has_value()) {
      continue;
    }
    // The compromised variant tries to push a different payload through a
    // mid-run observable syscall; the monitor must flag the mismatch.
    nxe::ThreadTrace& thread = traces[*local].threads.front();
    auto is_site = [](const nxe::ThreadAction& a) {
      return a.kind == nxe::ActionKind::kSyscall && a.sync != sc::SyncClass::kIgnored;
    };
    const auto sites =
        static_cast<size_t>(std::count_if(thread.actions.begin(), thread.actions.end(), is_site));
    if (sites == 0) {
      traces.clear();
      return FailedPrecondition("InjectDivergence(): variant " +
                                std::to_string(injection.variant) +
                                " has no sync-relevant syscall to diverge at");
    }
    // The middle site. Its record may be the template's, shared by every
    // variant: the overlay is a modified copy that only this variant's
    // action names.
    size_t site = 0;
    for (size_t seen = 0;; ++site) {
      if (is_site(thread.actions[site]) && seen++ == sites / 2) {
        break;
      }
    }
    sc::SyscallRecord rec = thread.RecordOf(thread.actions[site]);
    rec.payload_digest = sc::DigestString(injection.payload);
    rec.args[1] = static_cast<int64_t>(injection.payload.size());
    thread.ReplaceRecord(site, rec);
  }
  return Status::Ok();
}

std::vector<std::vector<size_t>> ShardMemberGroups(size_t n_variants, size_t k) {
  std::vector<std::vector<size_t>> groups;
  if (k == 0) {
    return groups;
  }
  for (size_t j = 0; j < k; ++j) {
    std::vector<size_t> members = {0};
    for (size_t global = 1; global < n_variants; ++global) {
      if ((global - 1) % k == j) {
        members.push_back(global);
      }
    }
    if (j > 0 && members.size() == 1) {
      continue;  // empty group: more shards requested than followers exist
    }
    groups.push_back(std::move(members));
  }
  return groups;
}

}  // namespace api
}  // namespace bunshin
