#include "src/attack/cve.h"

#include <algorithm>

#include "src/distribution/distribution.h"
#include "src/nxe/engine.h"
#include "src/syscall/syscall.h"
#include "src/workload/funcprofile.h"

namespace bunshin {
namespace attack {

const std::vector<CveCase>& CveCases() {
  static const auto* cases = new std::vector<CveCase>{
      {"nginx-1.4.0", "CVE-2013-2028", "blind ROP", san::SanitizerId::kASan,
       "ngx_http_parse_chunked", 2000,
       {"scs.stanford.edu/brop", "exploit-db/25499", "exploit-db/26737"}},
      {"cpython-2.7.10", "CVE-2016-5636", "int. overflow", san::SanitizerId::kASan,
       "zipimporter_read_data", 3200, {"poc/int-overflow-heap-write"}},
      {"php-5.6.6", "CVE-2015-4602", "type confusion", san::SanitizerId::kASan,
       "zend_incomplete_class_get", 4100, {"poc/unserialize-type-confusion"}},
      {"openssl-1.0.1a", "CVE-2014-0160", "heartbleed", san::SanitizerId::kASan,
       "tls1_process_heartbeat", 1600, {"poc/heartbeat-overread"}},
      {"httpd-2.4.10", "CVE-2014-3581", "null deref.", san::SanitizerId::kUBSan,
       "cache_merge_headers_out", 2600, {"poc/null-cache-request"}},
  };
  return *cases;
}

namespace {

const char* DetectorFor(const CveCase& cve_case) {
  if (cve_case.sanitizer == san::SanitizerId::kUBSan) {
    return "__ubsan_report_null_pointer_use";
  }
  // Heartbleed is an over-read; the others corrupt memory via stores.
  return cve_case.cve == "CVE-2014-0160" ? "__asan_report_load" : "__asan_report_store";
}

// Which variant carries the check for the vulnerable function?
StatusOr<size_t> PlanProtectingVariant(const CveCase& cve_case, uint64_t seed,
                                       bool* protected_found) {
  *protected_found = false;

  if (cve_case.sanitizer == san::SanitizerId::kUBSan) {
    // Sanitizer distribution over UBSan's sub-sanitizers: find the group
    // holding "null" (the sub-sanitizer that catches CVE-2014-3581).
    auto plan = distribution::PlanUbsanDistribution(2);
    if (!plan.ok()) {
      return plan.status();
    }
    const auto& subs = san::UBSanSubSanitizers();
    for (size_t g = 0; g < plan->groups.size(); ++g) {
      for (size_t item : plan->groups[g]) {
        if (subs[item].name == "null") {
          *protected_found = true;
          return g;
        }
      }
    }
    return Internal("'null' sub-sanitizer missing from every group");
  }

  // Check distribution: synthesize the program's function profile, rename one
  // function to the vulnerable one, plan, and look it up.
  workload::BenchmarkSpec pseudo;
  pseudo.name = cve_case.program;
  pseudo.n_functions = cve_case.n_functions;
  pseudo.hottest_share = 0.10;
  pseudo.total_compute = 30000;
  profile::OverheadProfile prof =
      workload::SynthesizeFunctionProfile(pseudo, cve_case.sanitizer, seed);
  // Give the vulnerable function its real name (a mid-weight function).
  prof.functions[prof.functions.size() / 3].function = cve_case.vulnerable_function;

  auto plan = distribution::PlanCheckDistribution(prof, 2);
  if (!plan.ok()) {
    return plan.status();
  }
  for (size_t v = 0; v < plan->protected_functions.size(); ++v) {
    const auto& fns = plan->protected_functions[v];
    if (std::find(fns.begin(), fns.end(), cve_case.vulnerable_function) != fns.end()) {
      *protected_found = true;
      return v;
    }
  }
  return Internal("vulnerable function missing from every variant's protected set");
}

}  // namespace

StatusOr<CveRunResult> RunCve(const CveCase& cve_case, uint64_t seed) {
  bool protected_found = false;
  auto protecting = PlanProtectingVariant(cve_case, seed, &protected_found);
  if (!protecting.ok()) {
    return protecting.status();
  }
  const size_t protected_variant = *protecting;

  // Build the exploit run: both variants serve the same benign requests, then
  // the exploit input reaches the vulnerable function.
  std::vector<nxe::VariantTrace> variants(2);
  for (size_t v = 0; v < 2; ++v) {
    nxe::VariantTrace& trace = variants[v];
    trace.name = v == 0 ? "A" : "B";
    trace.threads.resize(1);
    nxe::ThreadTrace& thread = trace.threads[0];

    for (int i = 0; i < 3; ++i) {
      sc::SyscallRecord benign;
      benign.no = sc::Sysno::kRecv;
      benign.args = {4, 512, 0, 0, 0, 0};
      benign.payload_digest = sc::DigestString(cve_case.cve + "/benign#" + std::to_string(i));
      thread.Append(nxe::ThreadAction::Compute(40.0));
      thread.AppendSyscall(benign);
    }

    sc::SyscallRecord exploit_input;
    exploit_input.no = sc::Sysno::kRecv;
    exploit_input.args = {4, 4096, 0, 0, 0, 0};
    exploit_input.payload_digest = sc::DigestString(cve_case.exploit_sources.front());
    thread.AppendSyscall(exploit_input);
    thread.Append(nxe::ThreadAction::Compute(25.0));

    if (v == protected_variant) {
      // The check in this variant fires inside the vulnerable function. Its
      // runtime writes the report (the extra write syscall the paper observes
      // from variant A) and aborts.
      thread.AppendDetect(DetectorFor(cve_case));
    } else {
      // The unprotected variant is corrupted; its post-exploit behavior
      // (payload stage 2) diverges from the protected sibling.
      sc::SyscallRecord damage;
      damage.no = sc::Sysno::kWrite;
      damage.args = {4, 64, 0, 0, 0, 0};
      damage.payload_digest = sc::DigestString("leaked-secret");
      thread.AppendSyscall(damage);
    }
    thread.Append(nxe::ThreadAction::Exit());
  }

  nxe::EngineConfig config;
  config.mode = nxe::LockstepMode::kStrict;
  nxe::Engine engine(config);
  auto report = engine.Run(variants);
  if (!report.ok()) {
    return report.status();
  }

  CveRunResult result;
  result.protected_by_plan = protected_found;
  result.detected = report->detection.has_value();
  result.stopped = result.detected || report->divergence.has_value();
  if (report->detection.has_value()) {
    result.detecting_variant = report->detection->variant;
    result.detector = report->detection->detector;
  }
  return result;
}

}  // namespace attack
}  // namespace bunshin
