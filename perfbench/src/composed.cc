#include "perfbench/src/composed.h"

#include <numeric>
#include <optional>

#include "src/net/remote.h"
#include "src/support/socket.h"
#include "src/workload/tracegen.h"

namespace perfbench {

namespace api = bunshin::api;
namespace net = bunshin::net;
namespace nxe = bunshin::nxe;
using bunshin::Status;
using bunshin::StatusOr;

namespace {

size_t CountActions(const std::vector<nxe::VariantTrace>& traces) {
  size_t n = 0;
  for (const nxe::VariantTrace& trace : traces) {
    n += trace.TotalActions();
  }
  return n;
}

nxe::EngineConfig SessionWideConfig(const api::VariantPlan& plan) {
  // A group runs a variant subset, but contention is modeled session-wide.
  nxe::EngineConfig config = plan.engine_config;
  config.contention_variants = plan.n_variants();
  return config;
}

}  // namespace

struct ComposedPath::LocalGroup {
  LocalGroup(std::vector<size_t> m, bool owns, const nxe::EngineConfig& config)
      : members(std::move(m)), owns_baseline(owns), engine(config) {}

  std::vector<size_t> members;
  bool owns_baseline;
  nxe::Engine engine;
  nxe::EngineWorkspace workspace;
  // Per-seed memo.
  bool memo_valid = false;
  uint64_t memo_seed = 0;
  std::vector<nxe::VariantTrace> traces;
  double baseline_time = 0.0;
};

ComposedPath::ComposedPath(std::shared_ptr<const api::VariantPlan> plan, size_t shards,
                           std::vector<uint16_t> ports)
    : plan_(std::move(plan)), ports_(std::move(ports)) {
  const size_t n = plan_->n_variants();
  std::vector<std::vector<size_t>> groups;
  if (shards == 0) {
    groups.emplace_back(n);
    std::iota(groups[0].begin(), groups[0].end(), 0);
  } else {
    groups = api::ShardMemberGroups(n, shards);
  }
  if (!ports_.empty()) {
    remote_groups_ = std::move(groups);
    cache_key_ = plan_->CacheKey();
    plan_bytes_ = net::EncodeVariantPlan(*plan_);
    affinity_ = net::AffinityHash(cache_key_);
    return;
  }
  const nxe::EngineConfig config = SessionWideConfig(*plan_);
  for (size_t g = 0; g < groups.size(); ++g) {
    local_.push_back(std::make_unique<LocalGroup>(std::move(groups[g]), g == 0, config));
  }
  if (shards != 0) {
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    whole_ = std::make_unique<LocalGroup>(std::move(all), true, config);
  }
}

ComposedPath::~ComposedPath() = default;

StatusOr<api::RunReport> ComposedPath::Run(Tracer* tracer, uint64_t request_id, uint64_t seed) {
  SpanScope request(tracer, "request", 0, request_id);
  const bool remote = !ports_.empty();
  if (!remote && local_.size() == 1) {
    StatusOr<api::PartialReport> partial =
        RunLocal(tracer, request.id(), request_id, *local_[0], seed);
    if (!partial.ok()) {
      return partial.status();
    }
    return std::move(partial->report);
  }
  const size_t n_groups = remote ? remote_groups_.size() : local_.size();
  std::vector<api::PartialReport> partials;
  partials.reserve(n_groups);
  for (size_t g = 0; g < n_groups; ++g) {
    SpanScope group(tracer, "shard.group", request.id(), request_id);
    StatusOr<api::PartialReport> partial =
        remote ? RunRemote(tracer, group.id(), request_id, g, seed)
               : RunLocal(tracer, group.id(), request_id, *local_[g], seed);
    if (!partial.ok()) {
      return partial.status();
    }
    partials.push_back(std::move(*partial));
  }
  SpanScope merge(tracer, "shard.merge", request.id(), request_id);
  return api::RunReport::Merge(plan_->n_variants(), partials);
}

Status ComposedPath::RunReplicaReference(Tracer* tracer, uint64_t request_id, uint64_t seed) {
  if (whole_ == nullptr) {
    return Status::Ok();
  }
  LocalGroup& whole = *whole_;
  if (!whole.memo_valid || whole.memo_seed != seed) {
    Status built = api::BuildPlanTraces(*plan_, whole.members, seed, &whole.traces);
    if (!built.ok()) {
      return built;
    }
    whole.memo_seed = seed;
    whole.memo_valid = true;
  }
  SpanScope span(tracer, "shard.replica_ref", 0, request_id);
  return whole.engine.Run(whole.traces, &whole.workspace).status();
}

StatusOr<api::PartialReport> ComposedPath::RunLocal(Tracer* tracer, uint32_t parent,
                                                    uint64_t request_id, LocalGroup& group,
                                                    uint64_t seed) {
  const api::VariantPlan& plan = *plan_;
  if (!group.memo_valid || group.memo_seed != seed) {
    group.memo_valid = false;
    {
      SpanScope span(tracer, "tracegen.plan_traces", parent, request_id);
      Status built = api::BuildPlanTraces(plan, group.members, seed, &group.traces);
      if (!built.ok()) {
        return built;
      }
    }
    size_t actions = CountActions(group.traces);
    if (group.owns_baseline) {
      std::optional<nxe::VariantTrace> baseline_trace;
      {
        SpanScope span(tracer, "tracegen.baseline_trace", parent, request_id);
        baseline_trace = bunshin::workload::BuildTrace(*plan.benchmark,
                                                       bunshin::workload::VariantSpec{}, seed);
      }
      actions += baseline_trace->TotalActions();
      SpanScope span(tracer, "baseline.run", parent, request_id);
      StatusOr<double> baseline = group.engine.RunBaseline(*baseline_trace, &group.workspace);
      if (!baseline.ok()) {
        return baseline.status();
      }
      group.baseline_time = *baseline;
    }
    if (tracer != nullptr) {
      tracer->Add("tracegen.actions", static_cast<double>(actions));
    }
    group.memo_seed = seed;
    group.memo_valid = true;
  }

  StatusOr<nxe::SyncReport> sync = [&] {
    SpanScope span(tracer, "engine.run", parent, request_id);
    return group.engine.Run(group.traces, &group.workspace);
  }();
  if (tracer != nullptr) {
    tracer->Add("engine.events", static_cast<double>(CountActions(group.traces)));
  }
  if (!sync.ok()) {
    return sync.status();
  }

  // The trace backend's report assembly.
  api::PartialReport partial;
  partial.variant_index = group.members;
  partial.owns_baseline = group.owns_baseline;
  api::RunReport& report = partial.report;
  report.backend = "trace";
  if (group.owns_baseline) {
    report.baseline_time = group.baseline_time;
  }
  for (size_t global : group.members) {
    report.variant_compute_scale.push_back(plan.specs[global].compute_scale);
  }
  report.total_time = sync->total_time;
  report.variant_finish_time = sync->variant_finish_time;
  report.aborted_all = sync->aborted_all;
  report.synced_syscalls = sync->synced_syscalls;
  report.ignored_syscalls = sync->ignored_syscalls;
  report.lockstep_barriers = sync->lockstep_barriers;
  report.lock_acquisitions = sync->lock_acquisitions;
  report.avg_syscall_gap = sync->avg_syscall_gap;
  report.max_syscall_gap = sync->max_syscall_gap;
  if (sync->detection.has_value()) {
    report.outcome = api::NvxOutcome::kDetected;
    report.detection = api::Detection{sync->detection->variant, sync->detection->thread,
                                      sync->detection->detector};
  } else if (sync->divergence.has_value()) {
    const nxe::Divergence& d = *sync->divergence;
    report.outcome = api::NvxOutcome::kDiverged;
    report.divergence = api::Divergence{
        d.variant, d.thread, d.sync_index, d.expected, d.actual,
        "variant " + std::to_string(d.variant) + " expected '" + d.expected + "' got '" +
            d.actual + "'"};
  } else if (!sync->completed) {
    return bunshin::Internal("engine run neither completed nor reported an incident");
  }
  return partial;
}

StatusOr<api::PartialReport> ComposedPath::RunRemote(Tracer* tracer, uint32_t parent,
                                                     uint64_t request_id, size_t group,
                                                     uint64_t seed) {
  // The dispatcher's affinity route for a healthy fleet.
  const uint16_t port = ports_[(affinity_ + group) % ports_.size()];
  std::unique_ptr<bunshin::support::Socket> socket;
  {
    SpanScope span(tracer, "net.dial", parent, request_id);
    StatusOr<std::unique_ptr<bunshin::support::Socket>> dialed =
        bunshin::support::TcpConnect("127.0.0.1", port, 5000);
    if (!dialed.ok()) {
      return dialed.status();
    }
    socket = std::move(*dialed);
  }
  socket->SetRecvTimeout(10000);

  net::Frame frame;
  frame.type = net::MessageType::kRunRequest;
  frame.request_id = next_wire_id_++;
  {
    SpanScope span(tracer, "wire.encode", parent, request_id);
    net::RunRequestMsg msg;
    msg.cache_key = cache_key_;
    msg.n_variants = plan_->n_variants();
    msg.members = remote_groups_[group];
    msg.owns_baseline = group == 0;
    msg.request.workload_seed = seed;
    msg.plan_bytes = plan_bytes_;
    frame.payload = net::EncodeRunRequestMsg(msg);
  }
  StatusOr<net::Frame> reply = bunshin::Unavailable("not sent");
  {
    SpanScope span(tracer, "net.round_trip", parent, request_id);
    Status sent = net::WriteFrame(*socket, frame);
    if (!sent.ok()) {
      return sent;
    }
    reply = net::ReadFrame(*socket);
  }
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply->type != net::MessageType::kRunReply || reply->request_id != frame.request_id) {
    return bunshin::InvalidArgument("wire: unexpected reply frame");
  }
  StatusOr<net::RunReplyMsg> decoded = [&] {
    SpanScope span(tracer, "wire.decode", parent, request_id);
    return net::DecodeRunReplyMsg(reply->payload, plan_->n_variants());
  }();
  if (!decoded.ok()) {
    return decoded.status();
  }
  if (tracer != nullptr) {
    tracer->Add("wire.request_bytes",
                static_cast<double>(frame.payload.size() + net::kFrameHeaderSize));
    tracer->Add("wire.reply_bytes",
                static_cast<double>(reply->payload.size() + net::kFrameHeaderSize));
    tracer->Add("executor.replies", 1.0);
    tracer->Add("executor.plan_cache_hits", decoded->occupancy.plan_cache_hit ? 1.0 : 0.0);
  }
  if (!decoded->run_status.ok()) {
    return decoded->run_status;
  }
  if (decoded->partial->variant_index != remote_groups_[group]) {
    return bunshin::InvalidArgument("wire: reply covers a different shard group");
  }
  return std::move(*decoded->partial);
}

}  // namespace perfbench
