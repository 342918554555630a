// The benchmark's inputs: the config space, the three named workloads, and
// everything a seed draws (config set, request sequence, arrival schedule).
// Also the correctness oracle's two checks: the verdict a config must
// produce, and bit-for-bit report equality.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/support.h"
#include "src/api/nvx.h"

namespace perfbench {

// The 38 runnable programs: 19 SPEC2006, 13 SPLASH-2x, 6 PARSEC.
const std::vector<bunshin::workload::BenchmarkSpec>& Programs();

enum class Strategy { kClones, kCheckAsan, kSanitizers, kUbsanSub };
enum class Attack { kNone, kDetect, kDiverge };

const char* AttackName(Attack attack);

struct Config {
  size_t program = 0;  // index into Programs()
  Strategy strategy = Strategy::kClones;
  size_t n = 2;
  bunshin::nxe::LockstepMode lockstep = bunshin::nxe::LockstepMode::kStrict;
  Attack attack = Attack::kNone;
  // Picks the attacked variant once planning fixed the variant count
  // (sanitizer distribution may plan fewer variants than n).
  uint64_t attack_draw = 0;
  // Replay workloads: the workload seed every request of this config uses.
  uint64_t replay_seed = 0;
};

// What an attack overlay looks like once the plan's width is known.
struct Overlay {
  Attack attack = Attack::kNone;
  size_t variant = 0;
  std::string text;  // detector name or divergent payload
};

Overlay ResolveOverlay(const Config& config, size_t plan_width);

// The builder for `config`: target, strategy, width and lockstep only —
// callers add the cache, sharding, remoting and the overlay.
bunshin::api::NvxBuilder BaseBuilder(const Config& config);
void ApplyOverlay(const Overlay& overlay, bunshin::api::NvxBuilder* builder);

struct WorkloadSpec {
  const char* name = "";
  bool open_loop = false;
  size_t n_configs = 0;
  size_t fixed_n = 0;  // 0: n drawn from {2, 4, 8}
  size_t shards = 0;   // 0: unsharded
  bool remote = false;
  bool replay = false;       // requests replay their config's fixed seed
  double zipf_s = 0.0;       // popularity exponent; 0 = uniform picks
  double rate_per_s = 0.0;   // open loop: mean arrival rate (Poisson)
  size_t daemons = 0;        // remote: nvx_executord processes to start
};

const std::vector<WorkloadSpec>& WorkloadSpecs();
const WorkloadSpec* FindWorkload(const std::string& name);

// The config set a seed draws: stratified, so every seed's set has the same
// balance of programs, strategies, widths, lockstep modes and attacks —
// seeds differ in which program meets which strategy, not in the mix.
std::vector<Config> DrawConfigs(const WorkloadSpec& spec, uint64_t seed);

struct Request {
  uint64_t index = 0;
  size_t config = 0;
  uint64_t workload_seed = 0;
  double due_s = 0.0;  // open loop: offset from the start of the timed phase
};

// The request sequence and arrival schedule a seed draws, generated lazily
// (thread-safe Next()).
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, const std::vector<Config>& configs, uint64_t seed);
  Request Next();

 private:
  size_t PickConfig();

  const WorkloadSpec& spec_;
  const std::vector<Config>& configs_;
  std::mutex mu_;
  Rng rng_;
  uint64_t next_index_ = 0;
  double clock_s_ = 0.0;
  std::vector<double> zipf_cdf_;      // by popularity rank
  std::vector<size_t> rank_to_config_;
};

// The verdict a run of `overlay` must produce: clean -> ok; detection ->
// detected in the injected variant by the injected detector; divergence ->
// diverged. Empty when `report` matches, else what is wrong.
std::string CheckVerdict(const Overlay& overlay, const bunshin::api::RunReport& report);

// Which report fields a comparison covers.
enum class Fields {
  // Every outcome, attribution, virtual-time and telemetry field.
  kAll,
  // What sharding must not change (tests/shard_test.cc): outcome,
  // attribution, baseline time and per-variant compute scales. Total and
  // finish times and the monitor counters are per shard by design
  // (RunReport::Merge), so a sharded run differs from the unsharded one there.
  kShardInvariant,
};

// Empty when the covered fields of the two reports are identical (doubles
// compared bit for bit); otherwise the first field that differs. Cache
// telemetry is never compared.
std::string CompareReports(const bunshin::api::RunReport& a, const bunshin::api::RunReport& b,
                           Fields fields = Fields::kAll);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
