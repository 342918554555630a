// The Bunshin wire format: versioned, length-prefixed binary serialization
// for the multi-host execution plane (see docs/wire_format.md).
//
// What travels: the dispatcher names an immutable api::VariantPlan by its
// CacheKey() — with the encoded plan attached the first time an executor
// sees it, or when the executor answers kPlanUnknown — plus the shard member
// list to execute and an api::RunRequest; the executor streams back an
// api::PartialReport plus its occupancy. kStatsRequest reads the executor's
// counters. Everything is wrapped in a small framed envelope (magic, version,
// message type, request id, payload length) so a stream is self-describing
// and a framing error is always a definite Status, never a desync or a crash.
//
// Encoding rules:
//   * little-endian fixed-width integers; doubles are bit-cast to uint64_t so
//     round-trips are exact to the bit (the Remote ≡ Shards ≡ unsharded
//     equivalence proof depends on this);
//   * strings and vectors are length-prefixed; every length is validated
//     against the bytes actually remaining before any allocation, so a
//     corrupt length field cannot cause an over-read or an OOM;
//   * enums are range-checked on decode;
//   * decoded PartialReports are validated (vector-length consistency,
//     outcome/attribution coherence, slot indices in range, no duplicate
//     slots) before they can reach RunReport::Merge.
//
// Compatibility policy (docs/wire_format.md): the frame header carries
// kWireVersion; a decoder rejects any other version with kFailedPrecondition.
// There is no in-band negotiation — executor fleets are upgraded atomically
// with their dispatchers, and a version mismatch during a rolling upgrade is
// handled by the dispatcher's retry-to-another-executor path.
#ifndef BUNSHIN_SRC_NET_WIRE_H_
#define BUNSHIN_SRC_NET_WIRE_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/nvx.h"
#include "src/api/plan.h"
#include "src/support/socket.h"
#include "src/support/status.h"

namespace bunshin {
namespace net {

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

// Appends little-endian fields to a byte buffer.
class WireWriter {
 public:
  void U8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);  // bit-cast: round-trip exact, NaN-safe
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s);  // u32 length + bytes

  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

// Sticky-error reader: after the first failure every further read returns a
// zero value and the original Status is preserved — callers read a whole
// record, then check status() once. Reads never touch bytes past the buffer.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  bool Bool() { return U8() != 0; }
  std::string Str();

  // Reads a u32 element count and validates count * min_element_size against
  // the bytes remaining, so a corrupt count can neither over-read nor force a
  // huge allocation. Returns 0 (with the error latched) on violation.
  size_t Count(size_t min_element_size);

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  const Status& status() const { return status_; }
  void Fail(Status status);

 private:
  bool Take(size_t n, const char** out);

  std::string_view bytes_;
  size_t pos_ = 0;
  Status status_;
};

// ---------------------------------------------------------------------------
// Framed message envelope.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kWireMagic = 0x4E565857;  // "NVXW"
// v3: plans by key (kPlanUnknown), kStatsRequest/kStatsReply, and no
// reserved occupancy words.
inline constexpr uint16_t kWireVersion = 3;
// Upper bound on a frame payload; anything larger is a corrupt length field.
inline constexpr uint64_t kMaxFramePayload = 256ull << 20;
inline constexpr size_t kFrameHeaderSize = 24;

enum class MessageType : uint16_t {
  kRunRequest = 1,    // dispatcher -> executor: plan key [+ plan] + members + request
  kRunReply = 2,      // executor -> dispatcher: status + occupancy [+ partial]
  kPing = 3,          // dispatcher -> executor: health probe
  kPong = 4,          // executor -> dispatcher: occupancy snapshot
  kPlanUnknown = 5,   // executor -> dispatcher: resend that request with its plan
  kStatsRequest = 6,  // dispatcher -> executor: counters probe
  kStatsReply = 7,    // executor -> dispatcher: ExecutorStats
};

// An executor closes a connection on which no frame starts for this long.
// The dispatcher reuses an idle connection only within half of it, so it
// does not race the executor's close.
inline constexpr std::chrono::milliseconds kIdleDeadline{2000};

struct Frame {
  MessageType type = MessageType::kPing;
  uint64_t request_id = 0;
  std::string payload;
};

// Header + payload as one contiguous buffer (written with a single SendAll so
// concurrent writers on one socket cannot interleave a frame).
std::string EncodeFrame(const Frame& frame);
Status WriteFrame(support::Socket& socket, const Frame& frame,
                  support::Deadline deadline = support::kNoDeadline);
// Reads one frame; validates magic, version, and payload length before
// allocating, and grows the payload only as its bytes arrive. A bad version
// is kFailedPrecondition; truncation surfaces as the socket's
// kUnavailable/kDeadlineExceeded. The frame's first byte must arrive by
// `first_byte` and all of it by `deadline`. `*started`, when given, is set
// once a byte has arrived, so a caller can tell a connection the peer closed
// between frames from one that failed mid-frame.
StatusOr<Frame> ReadFrame(support::Socket& socket, support::Deadline first_byte,
                          support::Deadline deadline, bool* started = nullptr);
// One deadline for the whole frame: now + socket.recv_timeout_ms().
StatusOr<Frame> ReadFrame(support::Socket& socket);

// ---------------------------------------------------------------------------
// Plan / report / request codecs.
// ---------------------------------------------------------------------------

std::string EncodeVariantPlan(const api::VariantPlan& plan);
StatusOr<api::VariantPlan> DecodeVariantPlan(std::string_view bytes);

std::string EncodeRunRequest(const api::RunRequest& request);
// (Decoded as part of RunRequestMsg below.)

std::string EncodePartialReport(const api::PartialReport& partial);
// Decodes and validates: a corrupt wire report is rejected here, before it
// can reach RunReport::Merge. `n_variants` is the session width the partial's
// slot indices are validated against.
StatusOr<api::PartialReport> DecodePartialReport(std::string_view bytes, size_t n_variants);

// The decode-side validation, also applicable to in-process partials:
// vector-length consistency, outcome/attribution coherence, slot indices in
// [0, n_variants), no duplicate slots.
Status ValidatePartialReport(const api::PartialReport& partial, size_t n_variants);

// ---------------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------------

// Executor load snapshot, piggybacked on every reply. The dispatcher routes
// by plan affinity and endpoint health, not load, so it decodes the
// snapshot and drops it.
struct ExecutorOccupancy {
  uint64_t queue_depth = 0;   // runs waiting for one of the executor's run slots
  uint64_t in_flight = 0;     // runs executing right now
  uint64_t plans_cached = 0;  // entries in the executor's plan cache
  bool plan_cache_hit = false;  // this request's plan skipped decode/rebuild
};

// Cumulative executor counters: the kStatsReply payload.
struct ExecutorStats {
  uint64_t requests = 0;        // run requests handled (including failed ones)
  uint64_t plan_cache_hits = 0; // requests whose plan skipped decode/rebuild
  uint64_t decode_errors = 0;   // malformed frames or messages
  // Wire plans that decoded fine but failed static analysis (hostile or
  // under-covered plans, rejected before they reach the plan cache).
  uint64_t analysis_rejects = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;   // closed at accept: the connection cap was reached
  uint64_t deadline_closes = 0;       // closed by the idle, frame or send deadline
  uint64_t plan_unknown_replies = 0;  // key-only requests for a plan not in the cache
};

struct RunRequestMsg {
  // The plan's CacheKey(): the executor's plan-cache key (repeat plans skip
  // decode/rebuild) and the dispatcher's affinity-routing key.
  std::string cache_key;
  uint64_t n_variants = 0;  // session width; must match the decoded plan
  std::vector<size_t> members;  // global slots to execute; [0] must be 0
  bool owns_baseline = false;
  api::RunRequest request;
  // EncodeVariantPlan output, or empty: a key-only request, which the
  // executor serves from its plan cache or answers with kPlanUnknown.
  std::string plan_bytes;
};

// The kPlanUnknown payload: the key the executor could not resolve.
struct PlanUnknownMsg {
  std::string cache_key;
};

struct RunReplyMsg {
  Status run_status;  // the executor-side execution result
  ExecutorOccupancy occupancy;
  std::optional<api::PartialReport> partial;  // present iff run_status.ok()
};

std::string EncodeRunRequestMsg(const RunRequestMsg& msg);
StatusOr<RunRequestMsg> DecodeRunRequestMsg(std::string_view bytes);

std::string EncodeRunReplyMsg(const RunReplyMsg& msg);
// `n_variants` validates the embedded partial's slot indices.
StatusOr<RunReplyMsg> DecodeRunReplyMsg(std::string_view bytes, size_t n_variants);

std::string EncodeOccupancy(const ExecutorOccupancy& occupancy);

std::string EncodePlanUnknownMsg(const PlanUnknownMsg& msg);
StatusOr<PlanUnknownMsg> DecodePlanUnknownMsg(std::string_view bytes);

std::string EncodeExecutorStats(const ExecutorStats& stats);
StatusOr<ExecutorStats> DecodeExecutorStats(std::string_view bytes);

}  // namespace net
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NET_WIRE_H_
