#include "src/net/wire.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "src/sanitizer/sanitizer.h"
#include "src/workload/funcprofile.h"

namespace bunshin {
namespace net {
namespace {

// Range-checked enum decode: reads a u8 and validates it against the enum's
// highest member. The reader's sticky error keeps later reads harmless.
template <typename E>
E DecodeEnum(WireReader& reader, E max_value, const char* what) {
  const uint8_t raw = reader.U8();
  if (reader.status().ok() && raw > static_cast<uint8_t>(max_value)) {
    reader.Fail(InvalidArgument(std::string("wire: invalid ") + what + " value " +
                                std::to_string(raw)));
  }
  return static_cast<E>(raw);
}

}  // namespace

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

void WireWriter::U16(uint16_t v) {
  U8(static_cast<uint8_t>(v));
  U8(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  U16(static_cast<uint16_t>(v));
  U16(static_cast<uint16_t>(v >> 16));
}

void WireWriter::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v));
  U32(static_cast<uint32_t>(v >> 32));
}

void WireWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buffer_.append(s);
}

bool WireReader::Take(size_t n, const char** out) {
  if (!status_.ok()) {
    return false;
  }
  if (n > bytes_.size() - pos_) {
    status_ = InvalidArgument("wire: truncated buffer (need " + std::to_string(n) +
                              " bytes, have " + std::to_string(bytes_.size() - pos_) + ")");
    return false;
  }
  *out = bytes_.data() + pos_;
  pos_ += n;
  return true;
}

uint8_t WireReader::U8() {
  const char* p;
  if (!Take(1, &p)) {
    return 0;
  }
  return static_cast<uint8_t>(*p);
}

uint16_t WireReader::U16() {
  const uint16_t lo = U8();
  const uint16_t hi = U8();
  return static_cast<uint16_t>(lo | (hi << 8));
}

uint32_t WireReader::U32() {
  const uint32_t lo = U16();
  const uint32_t hi = U16();
  return lo | (hi << 16);
}

uint64_t WireReader::U64() {
  const uint64_t lo = U32();
  const uint64_t hi = U32();
  return lo | (hi << 32);
}

double WireReader::F64() {
  const uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::Str() {
  const uint32_t len = U32();
  if (!status_.ok()) {
    return std::string();
  }
  if (len > remaining()) {
    Fail(InvalidArgument("wire: string length " + std::to_string(len) + " exceeds the " +
                         std::to_string(remaining()) + " bytes remaining"));
    return std::string();
  }
  const char* p;
  Take(len, &p);
  return std::string(p, len);
}

size_t WireReader::Count(size_t min_element_size) {
  const uint32_t count = U32();
  if (!status_.ok()) {
    return 0;
  }
  if (min_element_size != 0 && count > remaining() / min_element_size) {
    Fail(InvalidArgument("wire: element count " + std::to_string(count) +
                         " exceeds the bytes remaining"));
    return 0;
  }
  return count;
}

void WireReader::Fail(Status status) {
  if (status_.ok()) {
    status_ = std::move(status);
  }
}

// ---------------------------------------------------------------------------
// Framed message envelope.
// ---------------------------------------------------------------------------

std::string EncodeFrame(const Frame& frame) {
  WireWriter w;
  w.U32(kWireMagic);
  w.U16(kWireVersion);
  w.U16(static_cast<uint16_t>(frame.type));
  w.U64(frame.request_id);
  w.U64(frame.payload.size());
  std::string bytes = w.Take();
  bytes.append(frame.payload);
  return bytes;
}

namespace {

// Validates a frame header; on success *payload_len is the expected payload.
Status CheckFrameHeader(WireReader& r, Frame* frame, uint64_t* payload_len) {
  const uint32_t magic = r.U32();
  const uint16_t version = r.U16();
  const uint16_t type = r.U16();
  frame->request_id = r.U64();
  *payload_len = r.U64();
  if (!r.status().ok()) {
    return r.status();
  }
  if (magic != kWireMagic) {
    return InvalidArgument("wire: bad frame magic");
  }
  if (version != kWireVersion) {
    return FailedPrecondition("wire: version mismatch (peer speaks v" + std::to_string(version) +
                              ", this build speaks v" + std::to_string(kWireVersion) + ")");
  }
  if (type < static_cast<uint16_t>(MessageType::kRunRequest) ||
      type > static_cast<uint16_t>(MessageType::kStatsReply)) {
    return InvalidArgument("wire: unknown message type " + std::to_string(type));
  }
  if (*payload_len > kMaxFramePayload) {
    return InvalidArgument("wire: frame payload length " + std::to_string(*payload_len) +
                           " exceeds the " + std::to_string(kMaxFramePayload) + " byte cap");
  }
  frame->type = static_cast<MessageType>(type);
  return Status::Ok();
}

}  // namespace

Status WriteFrame(support::Socket& socket, const Frame& frame, support::Deadline deadline) {
  const std::string bytes = EncodeFrame(frame);
  return socket.SendAll(bytes.data(), bytes.size(), deadline);
}

StatusOr<Frame> ReadFrame(support::Socket& socket, support::Deadline first_byte,
                          support::Deadline deadline, bool* started) {
  char header[kFrameHeaderSize];
  StatusOr<size_t> got = socket.RecvSome(header, sizeof(header), first_byte);
  if (!got.ok()) {
    return got.status();
  }
  if (started != nullptr) {
    *started = true;
  }
  Status status = socket.RecvAll(header + *got, sizeof(header) - *got, deadline);
  if (!status.ok()) {
    return status;
  }
  WireReader r(std::string_view(header, sizeof(header)));
  Frame frame;
  uint64_t payload_len = 0;
  status = CheckFrameHeader(r, &frame, &payload_len);
  if (!status.ok()) {
    return status;
  }
  // Grow the payload as its bytes arrive: a header that overstates its
  // length costs the reader only the bytes actually sent.
  constexpr uint64_t kChunk = 64 << 10;
  while (frame.payload.size() < payload_len) {
    const size_t have = frame.payload.size();
    const size_t take = static_cast<size_t>(std::min(payload_len - have, kChunk));
    frame.payload.resize(have + take);
    status = socket.RecvAll(frame.payload.data() + have, take, deadline);
    if (!status.ok()) {
      return status;
    }
  }
  return frame;
}

StatusOr<Frame> ReadFrame(support::Socket& socket) {
  const support::Deadline deadline = support::DeadlineAfter(socket.recv_timeout_ms());
  return ReadFrame(socket, deadline, deadline);
}

// ---------------------------------------------------------------------------
// Spec / config codecs.
// ---------------------------------------------------------------------------

namespace {

void EncodeBenchmarkSpec(WireWriter& w, const workload::BenchmarkSpec& b) {
  w.Str(b.name);
  w.U8(static_cast<uint8_t>(b.suite));
  w.U64(b.n_functions);
  w.F64(b.hottest_share);
  w.F64(b.func_rate_sigma);
  w.F64(b.total_compute);
  w.U64(b.n_syscalls);
  w.F64(b.io_write_frac);
  w.F64(b.noise_rel_sigma);
  w.U64(b.threads);
  w.F64(b.locks_per_kilo);
  w.U64(b.barriers);
  w.F64(b.cache_sensitivity);
  w.F64(b.overheads.asan);
  w.F64(b.overheads.msan);
  w.F64(b.overheads.ubsan);
  w.Bool(b.overheads.msan_supported);
  w.Bool(b.unsupported_reason.has_value());
  if (b.unsupported_reason.has_value()) {
    w.Str(*b.unsupported_reason);
  }
}

workload::BenchmarkSpec DecodeBenchmarkSpec(WireReader& r) {
  workload::BenchmarkSpec b;
  b.name = r.Str();
  b.suite = DecodeEnum(r, workload::Suite::kServer, "workload suite");
  b.n_functions = r.U64();
  b.hottest_share = r.F64();
  b.func_rate_sigma = r.F64();
  b.total_compute = r.F64();
  b.n_syscalls = r.U64();
  b.io_write_frac = r.F64();
  b.noise_rel_sigma = r.F64();
  b.threads = r.U64();
  b.locks_per_kilo = r.F64();
  b.barriers = r.U64();
  b.cache_sensitivity = r.F64();
  b.overheads.asan = r.F64();
  b.overheads.msan = r.F64();
  b.overheads.ubsan = r.F64();
  b.overheads.msan_supported = r.Bool();
  if (r.Bool()) {
    b.unsupported_reason = r.Str();
  }
  return b;
}

void EncodeServerSpec(WireWriter& w, const workload::ServerSpec& s) {
  w.Str(s.name);
  w.U64(s.threads);
  w.U64(s.requests);
  w.U64(s.file_kb);
  w.U64(s.concurrency);
  w.F64(s.noise_rel_sigma);
}

workload::ServerSpec DecodeServerSpec(WireReader& r) {
  workload::ServerSpec s;
  s.name = r.Str();
  s.threads = r.U64();
  s.requests = r.U64();
  s.file_kb = r.U64();
  s.concurrency = r.U64();
  s.noise_rel_sigma = r.F64();
  return s;
}

void EncodeEngineConfig(WireWriter& w, const nxe::EngineConfig& c) {
  w.U8(static_cast<uint8_t>(c.mode));
  w.U64(c.ring_capacity);
  w.F64(c.cache_sensitivity);
  w.U64(c.contention_variants);
  w.F64(c.cost.kernel_syscall);
  w.F64(c.cost.trap_hook);
  w.F64(c.cost.sync_slot);
  w.F64(c.cost.result_fetch);
  w.F64(c.cost.wait_wakeup);
  w.F64(c.cost.synccall);
  w.F64(c.cost.lock_primitive);
  w.I64(c.cost.cores);
  w.F64(c.cost.llc_alpha);
  w.F64(c.cost.llc_exponent);
  w.F64(c.cost.background_load);
  w.F64(c.cost.load_wait_coeff);
}

nxe::EngineConfig DecodeEngineConfig(WireReader& r) {
  nxe::EngineConfig c;
  c.mode = DecodeEnum(r, nxe::LockstepMode::kSelective, "lockstep mode");
  c.ring_capacity = r.U64();
  c.cache_sensitivity = r.F64();
  c.contention_variants = r.U64();
  c.cost.kernel_syscall = r.F64();
  c.cost.trap_hook = r.F64();
  c.cost.sync_slot = r.F64();
  c.cost.result_fetch = r.F64();
  c.cost.wait_wakeup = r.F64();
  c.cost.synccall = r.F64();
  c.cost.lock_primitive = r.F64();
  c.cost.cores = static_cast<int>(r.I64());
  c.cost.llc_alpha = r.F64();
  c.cost.llc_exponent = r.F64();
  c.cost.background_load = r.F64();
  c.cost.load_wait_coeff = r.F64();
  return c;
}

void EncodeSanitizerList(WireWriter& w, const std::vector<san::SanitizerId>& ids) {
  w.U32(static_cast<uint32_t>(ids.size()));
  for (san::SanitizerId id : ids) {
    w.U8(static_cast<uint8_t>(id));
  }
}

std::vector<san::SanitizerId> DecodeSanitizerList(WireReader& r) {
  const size_t n = r.Count(1);
  std::vector<san::SanitizerId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(DecodeEnum(r, san::SanitizerId::kSafeCode, "sanitizer id"));
  }
  return ids;
}

// The shortest encoded spec: an empty name's length word, compute_scale,
// jitter_seed and an empty sanitizer list's count. A spec count is checked
// against it, so a hostile count cannot make the decoder build more specs
// than its bytes could hold.
constexpr size_t kMinEncodedSpecBytes = 4 + 8 + 8 + 4;

void EncodeVariantSpec(WireWriter& w, const workload::VariantSpec& v) {
  w.Str(v.name);
  w.F64(v.compute_scale);
  w.U64(v.jitter_seed);
  EncodeSanitizerList(w, v.sanitizers);
}

workload::VariantSpec DecodeVariantSpec(WireReader& r) {
  workload::VariantSpec v;
  v.name = r.Str();
  v.compute_scale = r.F64();
  v.jitter_seed = r.U64();
  v.sanitizers = DecodeSanitizerList(r);
  return v;
}

void EncodeStringList(WireWriter& w, const std::vector<std::string>& list) {
  w.U32(static_cast<uint32_t>(list.size()));
  for (const auto& s : list) {
    w.Str(s);
  }
}

// Reads a list count and rejects it, before anything is reserved for it,
// when it is above `limit`, a bound the fields already decoded set; 0 on
// failure.
size_t CountAtMost(WireReader& r, size_t min_element_size, size_t limit, const char* what) {
  const size_t count = r.Count(min_element_size);
  if (count > limit) {
    r.Fail(InvalidArgument("wire: " + std::to_string(count) + " " + what + " exceed the " +
                           std::to_string(limit) + " allowed"));
    return 0;
  }
  return count;
}

// Reads `n` strings, a count the caller read and bounded.
std::vector<std::string> DecodeStrings(WireReader& r, size_t n) {
  std::vector<std::string> list;
  list.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    list.push_back(r.Str());
  }
  return list;
}

void EncodeIndexList(WireWriter& w, const std::vector<size_t>& list) {
  w.U32(static_cast<uint32_t>(list.size()));
  for (size_t v : list) {
    w.U64(v);
  }
}

std::vector<size_t> DecodeIndexList(WireReader& r) {
  const size_t n = r.Count(8);
  std::vector<size_t> list;
  list.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    list.push_back(r.U64());
  }
  return list;
}

void EncodeDoubleList(WireWriter& w, const std::vector<double>& list) {
  w.U32(static_cast<uint32_t>(list.size()));
  for (double v : list) {
    w.F64(v);
  }
}

std::vector<double> DecodeDoubleList(WireReader& r) {
  const size_t n = r.Count(8);
  std::vector<double> list;
  list.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    list.push_back(r.F64());
  }
  return list;
}

void EncodeCheckPlan(WireWriter& w, const distribution::CheckDistributionPlan& p) {
  w.U64(p.n_variants);
  w.U32(static_cast<uint32_t>(p.protected_functions.size()));
  for (const auto& funcs : p.protected_functions) {
    EncodeStringList(w, funcs);
  }
  EncodeDoubleList(w, p.predicted_overhead);
  w.U32(static_cast<uint32_t>(p.partition.bins.size()));
  for (const auto& bin : p.partition.bins) {
    EncodeIndexList(w, bin);
  }
  EncodeDoubleList(w, p.partition.bin_sums);
  w.F64(p.partition.total);
  w.F64(p.partition.max_sum);
  w.F64(p.partition.balance_ratio);
}

// The check plan of a plan with `n_specs` specs: at most one
// protected-function subset and one partition bin per spec, and no subset
// naming more functions than a profiled program can have.
distribution::CheckDistributionPlan DecodeCheckPlan(WireReader& r, size_t n_specs) {
  distribution::CheckDistributionPlan p;
  p.n_variants = r.U64();
  const size_t n_funcs = CountAtMost(r, 4, n_specs, "protected-function subset(s)");
  p.protected_functions.reserve(n_funcs);
  for (size_t i = 0; i < n_funcs; ++i) {
    p.protected_functions.push_back(DecodeStrings(
        r, CountAtMost(r, 4, workload::kMaxProfiledFunctions, "protected function name(s)")));
  }
  p.predicted_overhead = DecodeDoubleList(r);
  const size_t n_bins = CountAtMost(r, 4, n_specs, "partition bin(s)");
  p.partition.bins.reserve(n_bins);
  for (size_t i = 0; i < n_bins; ++i) {
    p.partition.bins.push_back(DecodeIndexList(r));
  }
  p.partition.bin_sums = DecodeDoubleList(r);
  p.partition.total = r.F64();
  p.partition.max_sum = r.F64();
  p.partition.balance_ratio = r.F64();
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// VariantPlan.
// ---------------------------------------------------------------------------

std::string EncodeVariantPlan(const api::VariantPlan& plan) {
  WireWriter w;
  w.Bool(plan.benchmark.has_value());
  if (plan.benchmark.has_value()) {
    EncodeBenchmarkSpec(w, *plan.benchmark);
  }
  w.Bool(plan.server.has_value());
  if (plan.server.has_value()) {
    EncodeServerSpec(w, *plan.server);
  }
  w.U8(static_cast<uint8_t>(plan.strategy));
  w.U64(plan.seed);
  w.Bool(plan.measure_standalone);
  w.U64(plan.requested_variants);
  w.U8(static_cast<uint8_t>(plan.check_sanitizer));
  EncodeSanitizerList(w, plan.sanitizers);
  w.U8(static_cast<uint8_t>(plan.partition_options.algorithm));
  w.U64(plan.partition_options.max_nodes);
  w.F64(plan.partition_options.epsilon);
  EncodeEngineConfig(w, plan.engine_config);
  w.U32(static_cast<uint32_t>(plan.specs.size()));
  for (const auto& spec : plan.specs) {
    EncodeVariantSpec(w, spec);
  }
  EncodeStringList(w, plan.labels);
  w.Bool(plan.check_plan.has_value());
  if (plan.check_plan.has_value()) {
    EncodeCheckPlan(w, *plan.check_plan);
  }
  w.U32(static_cast<uint32_t>(plan.sanitizer_groups.size()));
  for (const auto& group : plan.sanitizer_groups) {
    EncodeStringList(w, group);
  }
  w.U32(static_cast<uint32_t>(plan.detect_injections.size()));
  for (const auto& injection : plan.detect_injections) {
    w.U64(injection.variant);
    w.Str(injection.detector);
  }
  w.U32(static_cast<uint32_t>(plan.diverge_injections.size()));
  for (const auto& injection : plan.diverge_injections) {
    w.U64(injection.variant);
    w.Str(injection.payload);
  }
  return w.Take();
}

StatusOr<api::VariantPlan> DecodeVariantPlan(std::string_view bytes) {
  WireReader r(bytes);
  api::VariantPlan plan;
  if (r.Bool()) {
    plan.benchmark = DecodeBenchmarkSpec(r);
  }
  if (r.Bool()) {
    plan.server = DecodeServerSpec(r);
  }
  plan.strategy = DecodeEnum(r, api::DistributionStrategy::kUbsanSub, "distribution strategy");
  plan.seed = r.U64();
  plan.measure_standalone = r.Bool();
  plan.requested_variants = r.U64();
  plan.check_sanitizer = DecodeEnum(r, san::SanitizerId::kSafeCode, "sanitizer id");
  plan.sanitizers = DecodeSanitizerList(r);
  plan.partition_options.algorithm =
      DecodeEnum(r, partition::Algorithm::kFptasSubsetSum, "partition algorithm");
  plan.partition_options.max_nodes = r.U64();
  plan.partition_options.epsilon = r.F64();
  plan.engine_config = DecodeEngineConfig(r);
  const size_t n_specs = r.Count(kMinEncodedSpecBytes);
  plan.specs.reserve(n_specs);
  for (size_t i = 0; i < n_specs; ++i) {
    plan.specs.push_back(DecodeVariantSpec(r));
  }
  // The counts from here on are bounded by the spec count: one label per
  // spec, at most one sanitizer group per spec, and no group listing more
  // protection units than a catalog holds.
  size_t n_labels = r.Count(4);
  if (n_labels != n_specs) {
    r.Fail(InvalidArgument("wire: plan carries " + std::to_string(n_specs) + " spec(s) but " +
                           std::to_string(n_labels) + " label(s)"));
    n_labels = 0;
  }
  plan.labels = DecodeStrings(r, n_labels);
  if (r.Bool()) {
    plan.check_plan = DecodeCheckPlan(r, n_specs);
  }
  const size_t max_units = std::max(san::AllSanitizers().size(), san::UBSanSubSanitizers().size());
  const size_t n_groups = CountAtMost(r, 4, n_specs, "sanitizer group(s)");
  plan.sanitizer_groups.reserve(n_groups);
  for (size_t i = 0; i < n_groups; ++i) {
    plan.sanitizer_groups.push_back(
        DecodeStrings(r, CountAtMost(r, 4, max_units, "name(s) in one sanitizer group")));
  }
  const size_t n_detect = r.Count(12);
  plan.detect_injections.reserve(n_detect);
  for (size_t i = 0; i < n_detect; ++i) {
    api::DetectInjection injection;
    injection.variant = r.U64();
    injection.detector = r.Str();
    plan.detect_injections.push_back(std::move(injection));
  }
  const size_t n_diverge = r.Count(12);
  plan.diverge_injections.reserve(n_diverge);
  for (size_t i = 0; i < n_diverge; ++i) {
    api::DivergeInjection injection;
    injection.variant = r.U64();
    injection.payload = r.Str();
    plan.diverge_injections.push_back(std::move(injection));
  }
  if (!r.status().ok()) {
    return r.status();
  }
  if (!r.AtEnd()) {
    return InvalidArgument("wire: " + std::to_string(r.remaining()) +
                           " trailing byte(s) after VariantPlan");
  }
  return plan;
}

// ---------------------------------------------------------------------------
// RunRequest / RunReport / PartialReport.
// ---------------------------------------------------------------------------

std::string EncodeRunRequest(const api::RunRequest& request) {
  WireWriter w;
  w.Str(request.entry);
  w.U32(static_cast<uint32_t>(request.args.size()));
  for (int64_t arg : request.args) {
    w.I64(arg);
  }
  w.Bool(request.workload_seed.has_value());
  if (request.workload_seed.has_value()) {
    w.U64(*request.workload_seed);
  }
  return w.Take();
}

namespace {

api::RunRequest DecodeRunRequest(WireReader& r) {
  api::RunRequest request;
  request.entry = r.Str();
  const size_t n_args = r.Count(8);
  request.args.reserve(n_args);
  for (size_t i = 0; i < n_args; ++i) {
    request.args.push_back(r.I64());
  }
  if (r.Bool()) {
    request.workload_seed = r.U64();
  }
  return request;
}

void EncodeRunReport(WireWriter& w, const api::RunReport& report) {
  w.Str(report.backend);
  w.U8(static_cast<uint8_t>(report.outcome));
  w.Bool(report.detection.has_value());
  if (report.detection.has_value()) {
    w.U64(report.detection->variant);
    w.U64(report.detection->thread);
    w.Str(report.detection->detector);
  }
  w.Bool(report.divergence.has_value());
  if (report.divergence.has_value()) {
    w.U64(report.divergence->variant);
    w.U64(report.divergence->thread);
    w.U64(report.divergence->sync_index);
    w.Str(report.divergence->expected);
    w.Str(report.divergence->actual);
    w.Str(report.divergence->detail);
  }
  w.Bool(report.aborted_all);
  w.Bool(report.return_value.has_value());
  if (report.return_value.has_value()) {
    w.I64(*report.return_value);
  }
  w.F64(report.total_time);
  w.Bool(report.baseline_time.has_value());
  if (report.baseline_time.has_value()) {
    w.F64(*report.baseline_time);
  }
  EncodeDoubleList(w, report.variant_finish_time);
  EncodeDoubleList(w, report.variant_standalone_time);
  EncodeDoubleList(w, report.variant_compute_scale);
  w.U64(report.synced_syscalls);
  w.U64(report.ignored_syscalls);
  w.U64(report.lockstep_barriers);
  w.U64(report.lock_acquisitions);
  w.F64(report.avg_syscall_gap);
  w.U64(report.max_syscall_gap);
}

api::RunReport DecodeRunReport(WireReader& r) {
  api::RunReport report;
  report.backend = r.Str();
  report.outcome = DecodeEnum(r, api::NvxOutcome::kDiverged, "outcome");
  if (r.Bool()) {
    api::Detection detection;
    detection.variant = r.U64();
    detection.thread = r.U64();
    detection.detector = r.Str();
    report.detection = std::move(detection);
  }
  if (r.Bool()) {
    api::Divergence divergence;
    divergence.variant = r.U64();
    divergence.thread = r.U64();
    divergence.sync_index = r.U64();
    divergence.expected = r.Str();
    divergence.actual = r.Str();
    divergence.detail = r.Str();
    report.divergence = std::move(divergence);
  }
  report.aborted_all = r.Bool();
  if (r.Bool()) {
    report.return_value = r.I64();
  }
  report.total_time = r.F64();
  if (r.Bool()) {
    report.baseline_time = r.F64();
  }
  report.variant_finish_time = DecodeDoubleList(r);
  report.variant_standalone_time = DecodeDoubleList(r);
  report.variant_compute_scale = DecodeDoubleList(r);
  report.synced_syscalls = r.U64();
  report.ignored_syscalls = r.U64();
  report.lockstep_barriers = r.U64();
  report.lock_acquisitions = r.U64();
  report.avg_syscall_gap = r.F64();
  report.max_syscall_gap = r.U64();
  return report;
}

}  // namespace

Status ValidatePartialReport(const api::PartialReport& partial, size_t n_variants) {
  const api::RunReport& r = partial.report;
  if (partial.variant_index.size() != r.variant_finish_time.size()) {
    return InvalidArgument("wire: partial covers " + std::to_string(partial.variant_index.size()) +
                           " slot(s) but reports " + std::to_string(r.variant_finish_time.size()) +
                           " finish time(s)");
  }
  if (!r.variant_compute_scale.empty() &&
      r.variant_compute_scale.size() != partial.variant_index.size()) {
    return InvalidArgument("wire: partial compute-scale length mismatch");
  }
  if (!r.variant_standalone_time.empty() &&
      r.variant_standalone_time.size() != partial.variant_index.size()) {
    return InvalidArgument("wire: partial standalone-time length mismatch");
  }
  std::unordered_set<size_t> seen;
  for (size_t global : partial.variant_index) {
    if (global >= n_variants) {
      return InvalidArgument("wire: partial maps a local slot to variant " +
                             std::to_string(global) + ", but the session has " +
                             std::to_string(n_variants));
    }
    if (!seen.insert(global).second) {
      return InvalidArgument("wire: partial lists variant " + std::to_string(global) + " twice");
    }
  }
  if (r.outcome == api::NvxOutcome::kDetected) {
    if (!r.detection.has_value()) {
      return InvalidArgument("wire: detected partial carries no detection");
    }
    if (r.detection->variant >= partial.variant_index.size()) {
      return InvalidArgument("wire: detection attributed to local slot " +
                             std::to_string(r.detection->variant) +
                             ", outside the partial's coverage");
    }
  }
  if (r.outcome == api::NvxOutcome::kDiverged) {
    if (!r.divergence.has_value()) {
      return InvalidArgument("wire: diverged partial carries no divergence");
    }
    if (r.divergence->variant >= partial.variant_index.size()) {
      return InvalidArgument("wire: divergence attributed to local slot " +
                             std::to_string(r.divergence->variant) +
                             ", outside the partial's coverage");
    }
  }
  return Status::Ok();
}

std::string EncodePartialReport(const api::PartialReport& partial) {
  WireWriter w;
  EncodeIndexList(w, partial.variant_index);
  w.Bool(partial.owns_baseline);
  EncodeRunReport(w, partial.report);
  return w.Take();
}

StatusOr<api::PartialReport> DecodePartialReport(std::string_view bytes, size_t n_variants) {
  WireReader r(bytes);
  api::PartialReport partial;
  partial.variant_index = DecodeIndexList(r);
  partial.owns_baseline = r.Bool();
  partial.report = DecodeRunReport(r);
  if (!r.status().ok()) {
    return r.status();
  }
  if (!r.AtEnd()) {
    return InvalidArgument("wire: trailing bytes after PartialReport");
  }
  Status valid = ValidatePartialReport(partial, n_variants);
  if (!valid.ok()) {
    return valid;
  }
  return partial;
}

// ---------------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------------

namespace {

void EncodeOccupancyFields(WireWriter& w, const ExecutorOccupancy& occupancy) {
  w.U64(occupancy.queue_depth);
  w.U64(occupancy.in_flight);
  w.U64(occupancy.plans_cached);
  w.Bool(occupancy.plan_cache_hit);
}

ExecutorOccupancy DecodeOccupancyFields(WireReader& r) {
  ExecutorOccupancy occupancy;
  occupancy.queue_depth = r.U64();
  occupancy.in_flight = r.U64();
  occupancy.plans_cached = r.U64();
  occupancy.plan_cache_hit = r.Bool();
  return occupancy;
}

// Every message below ends where its payload ends.
Status CheckConsumed(const WireReader& r, const char* what) {
  if (!r.status().ok()) {
    return r.status();
  }
  if (!r.AtEnd()) {
    return InvalidArgument(std::string("wire: trailing bytes after ") + what);
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeOccupancy(const ExecutorOccupancy& occupancy) {
  WireWriter w;
  EncodeOccupancyFields(w, occupancy);
  return w.Take();
}

std::string EncodePlanUnknownMsg(const PlanUnknownMsg& msg) {
  WireWriter w;
  w.Str(msg.cache_key);
  return w.Take();
}

StatusOr<PlanUnknownMsg> DecodePlanUnknownMsg(std::string_view bytes) {
  WireReader r(bytes);
  PlanUnknownMsg msg;
  msg.cache_key = r.Str();
  Status status = CheckConsumed(r, "PlanUnknownMsg");
  if (!status.ok()) {
    return status;
  }
  return msg;
}

std::string EncodeExecutorStats(const ExecutorStats& stats) {
  WireWriter w;
  w.U64(stats.requests);
  w.U64(stats.plan_cache_hits);
  w.U64(stats.decode_errors);
  w.U64(stats.analysis_rejects);
  w.U64(stats.connections_accepted);
  w.U64(stats.connections_refused);
  w.U64(stats.deadline_closes);
  w.U64(stats.plan_unknown_replies);
  return w.Take();
}

StatusOr<ExecutorStats> DecodeExecutorStats(std::string_view bytes) {
  WireReader r(bytes);
  ExecutorStats stats;
  stats.requests = r.U64();
  stats.plan_cache_hits = r.U64();
  stats.decode_errors = r.U64();
  stats.analysis_rejects = r.U64();
  stats.connections_accepted = r.U64();
  stats.connections_refused = r.U64();
  stats.deadline_closes = r.U64();
  stats.plan_unknown_replies = r.U64();
  Status status = CheckConsumed(r, "ExecutorStats");
  if (!status.ok()) {
    return status;
  }
  return stats;
}

std::string EncodeRunRequestMsg(const RunRequestMsg& msg) {
  WireWriter w;
  w.Str(msg.cache_key);
  w.U64(msg.n_variants);
  EncodeIndexList(w, msg.members);
  w.Bool(msg.owns_baseline);
  w.Str(EncodeRunRequest(msg.request));
  w.Str(msg.plan_bytes);
  return w.Take();
}

StatusOr<RunRequestMsg> DecodeRunRequestMsg(std::string_view bytes) {
  WireReader r(bytes);
  RunRequestMsg msg;
  msg.cache_key = r.Str();
  msg.n_variants = r.U64();
  msg.members = DecodeIndexList(r);
  msg.owns_baseline = r.Bool();
  const std::string request_bytes = r.Str();
  msg.plan_bytes = r.Str();
  if (!r.status().ok()) {
    return r.status();
  }
  if (!r.AtEnd()) {
    return InvalidArgument("wire: trailing bytes after RunRequestMsg");
  }
  WireReader request_reader(request_bytes);
  msg.request = DecodeRunRequest(request_reader);
  if (!request_reader.status().ok()) {
    return request_reader.status();
  }
  if (!request_reader.AtEnd()) {
    return InvalidArgument("wire: trailing bytes after RunRequest");
  }
  return msg;
}

std::string EncodeRunReplyMsg(const RunReplyMsg& msg) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(msg.run_status.code()));
  w.Str(msg.run_status.message());
  EncodeOccupancyFields(w, msg.occupancy);
  w.Bool(msg.partial.has_value());
  if (msg.partial.has_value()) {
    w.Str(EncodePartialReport(*msg.partial));
  }
  return w.Take();
}

StatusOr<RunReplyMsg> DecodeRunReplyMsg(std::string_view bytes, size_t n_variants) {
  WireReader r(bytes);
  RunReplyMsg msg;
  const StatusCode code = DecodeEnum(r, StatusCode::kDeadlineExceeded, "status code");
  const std::string message = r.Str();
  msg.occupancy = DecodeOccupancyFields(r);
  const bool has_partial = r.Bool();
  std::string partial_bytes;
  if (has_partial) {
    partial_bytes = r.Str();
  }
  if (!r.status().ok()) {
    return r.status();
  }
  if (!r.AtEnd()) {
    return InvalidArgument("wire: trailing bytes after RunReplyMsg");
  }
  msg.run_status = code == StatusCode::kOk ? Status::Ok() : Status(code, message);
  if (msg.run_status.ok() != has_partial) {
    return InvalidArgument("wire: run reply status and partial-report presence disagree");
  }
  if (has_partial) {
    StatusOr<api::PartialReport> partial = DecodePartialReport(partial_bytes, n_variants);
    if (!partial.ok()) {
      return partial.status();
    }
    msg.partial = std::move(*partial);
  }
  return msg;
}

}  // namespace net
}  // namespace bunshin
