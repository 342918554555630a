// The traced run's stand-in for NvxSession::Run: one request sent through
// the layers' public calls, each call timed as a span from here, so the
// library itself carries no instrumentation.
//
//   unsharded:  tracegen.plan_traces  (api::BuildPlanTraces)
//               tracegen.baseline_trace (workload::BuildTrace)
//               baseline.run          (nxe::Engine::RunBaseline)
//               engine.run            (nxe::Engine::Run)
//   sharded:    shard.group per api::ShardMemberGroups group, each holding
//               the unsharded spans above, then shard.merge (RunReport::Merge)
//   remote:     shard.group per group, each holding net.dial
//               (support::TcpConnect), wire.encode (net::EncodeRunRequestMsg),
//               net.round_trip (net::WriteFrame + net::ReadFrame) and
//               wire.decode (net::DecodeRunReplyMsg), then shard.merge
//
// Traces and baseline time are memoized per (config, group, seed), exactly
// as the session's own per-seed memo does, so replayed seeds skip trace
// generation here too. Reports are assembled the way the trace backend
// assembles them; the traced run checks them against the session's.
#ifndef PERFBENCH_SRC_COMPOSED_H_
#define PERFBENCH_SRC_COMPOSED_H_

#include <memory>
#include <vector>

#include "perfbench/src/tracer.h"
#include "src/api/nvx.h"
#include "src/net/wire.h"

namespace perfbench {

class ComposedPath {
 public:
  // `shards` 0 = unsharded; `ports` non-empty = remote over those daemons.
  ComposedPath(std::shared_ptr<const bunshin::api::VariantPlan> plan, size_t shards,
               std::vector<uint16_t> ports);
  ~ComposedPath();

  // Runs one request under a root "request" span.
  bunshin::StatusOr<bunshin::api::RunReport> Run(Tracer* tracer, uint64_t request_id,
                                                 uint64_t seed);

  // Sharded local paths: one engine run of every variant together (the
  // unsharded reference), timed as "shard.replica_ref", so the reader can
  // tell how much engine time the leader replicas add.
  bunshin::Status RunReplicaReference(Tracer* tracer, uint64_t request_id, uint64_t seed);

 private:
  struct LocalGroup;

  bunshin::StatusOr<bunshin::api::PartialReport> RunLocal(Tracer* tracer, uint32_t parent,
                                                          uint64_t request_id, LocalGroup& group,
                                                          uint64_t seed);
  bunshin::StatusOr<bunshin::api::PartialReport> RunRemote(Tracer* tracer, uint32_t parent,
                                                           uint64_t request_id, size_t group,
                                                           uint64_t seed);

  std::shared_ptr<const bunshin::api::VariantPlan> plan_;
  std::vector<std::unique_ptr<LocalGroup>> local_;  // local paths: one per group
  std::unique_ptr<LocalGroup> whole_;               // sharded local: replica reference
  // Remote paths.
  std::vector<uint16_t> ports_;
  std::vector<std::vector<size_t>> remote_groups_;
  std::string cache_key_;
  std::string plan_bytes_;
  uint64_t affinity_ = 0;
  uint64_t next_wire_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMPOSED_H_
