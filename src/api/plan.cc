#include "src/api/plan.h"

#include <cstdio>
#include <optional>

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

// Strategy-parameter fragments of CacheKey().
void AppendPartitionOptionsKey(std::string* key, const partition::PartitionOptions& options) {
  *key += "|part=";
  *key += partition::AlgorithmName(options.algorithm);
  *key += "/";
  *key += std::to_string(options.max_nodes);
  *key += "/";
  *key += CacheKeyDouble(options.epsilon);
}

void AppendSanitizerListKey(std::string* key, const std::vector<san::SanitizerId>& sanitizers) {
  *key += "|sans=" + std::to_string(sanitizers.size());
  for (san::SanitizerId id : sanitizers) {
    *key += ",";
    *key += san::SanitizerName(id);
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
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void AppendCacheKeyComponent(std::string* key, const std::string& component) {
  *key += std::to_string(component.size());
  *key += ':';
  *key += component;
}

std::string VariantPlan::CacheKey() const {
  // Target identity: the name (length-prefixed — names are free-form) plus
  // every knob that drives trace generation or planning. The sanitizer
  // overhead table and the profile-shape fields matter too: a custom spec
  // may reuse a catalog name with different calibration, and those values
  // feed straight into per-variant compute scales.
  std::string key;
  if (benchmark.has_value()) {
    key = "bench:";
    AppendCacheKeyComponent(&key, benchmark->name);
    key += "/" + std::to_string(benchmark->n_functions) + "/" +
           CacheKeyDouble(benchmark->hottest_share) + "/" +
           CacheKeyDouble(benchmark->func_rate_sigma) + "/" +
           CacheKeyDouble(benchmark->total_compute) + "/" +
           std::to_string(benchmark->n_syscalls) + "/" +
           CacheKeyDouble(benchmark->io_write_frac) + "/" +
           CacheKeyDouble(benchmark->noise_rel_sigma) + "/" +
           std::to_string(benchmark->threads) + "/" +
           CacheKeyDouble(benchmark->locks_per_kilo) + "/" +
           std::to_string(benchmark->barriers);
    key += "/ovh=" + CacheKeyDouble(benchmark->overheads.asan) + "/" +
           CacheKeyDouble(benchmark->overheads.msan) + "/" +
           CacheKeyDouble(benchmark->overheads.ubsan) + "/" +
           (benchmark->overheads.msan_supported ? "1" : "0");
  } else if (server.has_value()) {
    key = "server:";
    AppendCacheKeyComponent(&key, server->name);
    key += "/" + std::to_string(server->threads) + "/" + std::to_string(server->requests) +
           "/" + std::to_string(server->file_kb) + "/" + std::to_string(server->concurrency) +
           "/" + CacheKeyDouble(server->noise_rel_sigma);
  } else {
    key = "none";
  }
  key += "|";
  key += DistributionStrategyName(strategy);
  // Strategy parameters (only the ones the active strategy consumes, so a
  // stale knob left over from builder reuse cannot split the key).
  if (strategy == DistributionStrategy::kCheck) {
    key += "|san=";
    key += san::SanitizerName(check_sanitizer);
    AppendPartitionOptionsKey(&key, partition_options);
  } else if (strategy == DistributionStrategy::kSanitizer) {
    AppendSanitizerListKey(&key, sanitizers);
  }
  key += "|n=" + std::to_string(requested_variants != 0 ? requested_variants : specs.size());
  key += "|seed=" + std::to_string(seed);
  key += "|mode=";
  key += nxe::LockstepModeName(engine_config.mode);
  key += "|ring=" + std::to_string(engine_config.ring_capacity);
  // Everything the reports' timing depends on: LLC sensitivity and the full
  // cost/hardware model.
  key += "|llc=" + CacheKeyDouble(engine_config.cache_sensitivity);
  const nxe::CostModel& cost = engine_config.cost;
  key += "|cost=" + CacheKeyDouble(cost.kernel_syscall) + "/" + CacheKeyDouble(cost.trap_hook) +
         "/" + CacheKeyDouble(cost.sync_slot) + "/" + CacheKeyDouble(cost.result_fetch) + "/" +
         CacheKeyDouble(cost.wait_wakeup) + "/" + CacheKeyDouble(cost.synccall) + "/" +
         CacheKeyDouble(cost.lock_primitive) + "/" + std::to_string(cost.cores) + "/" +
         CacheKeyDouble(cost.llc_alpha) + "/" + CacheKeyDouble(cost.llc_exponent) + "/" +
         CacheKeyDouble(cost.background_load) + "/" + CacheKeyDouble(cost.load_wait_coeff);
  if (measure_standalone) {
    key += "|standalone";
  }
  // Attack overlays last: the cacheable base plan has none, so its key is
  // the shared prefix every injected session looks up the cache under.
  for (const auto& injection : detect_injections) {
    key += "|det" + std::to_string(injection.variant) + ":";
    AppendCacheKeyComponent(&key, injection.detector);
  }
  for (const auto& injection : diverge_injections) {
    key += "|div" + std::to_string(injection.variant) + ":";
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
    std::vector<size_t> sites;
    for (size_t i = 0; i < thread.actions.size(); ++i) {
      if (thread.actions[i].kind == nxe::ActionKind::kSyscall &&
          sc::IsSyncRelevant(thread.RecordOf(thread.actions[i]).no)) {
        sites.push_back(i);
      }
    }
    if (sites.empty()) {
      traces.clear();
      return FailedPrecondition("InjectDivergence(): variant " +
                                std::to_string(injection.variant) +
                                " has no sync-relevant syscall to diverge at");
    }
    // The record may be the template's, shared by every variant: the
    // overlay is a modified copy that only this variant's action names.
    const size_t site = sites[sites.size() / 2];
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
