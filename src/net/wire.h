// The Bunshin wire format: versioned, length-prefixed binary serialization
// for the multi-host execution plane (see docs/wire_format.md).
//
// What travels: the dispatcher ships an immutable api::VariantPlan (identified
// by its CacheKey()), the shard member list to execute, and an api::RunRequest
// to an executor; the executor streams back an api::PartialReport plus its
// occupancy. Everything is wrapped in a small framed envelope (magic, version,
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
// v2 added the engine-pool counters to ExecutorOccupancy.
inline constexpr uint16_t kWireVersion = 2;
// Upper bound on a frame payload; anything larger is a corrupt length field.
inline constexpr uint64_t kMaxFramePayload = 256ull << 20;
inline constexpr size_t kFrameHeaderSize = 24;

enum class MessageType : uint16_t {
  kRunRequest = 1,  // dispatcher -> executor: plan + members + run request
  kRunReply = 2,    // executor -> dispatcher: status + occupancy [+ partial]
  kPing = 3,        // dispatcher -> executor: health probe
  kPong = 4,        // executor -> dispatcher: occupancy snapshot
};

struct Frame {
  MessageType type = MessageType::kPing;
  uint64_t request_id = 0;
  std::string payload;
};

// Header + payload as one contiguous buffer (written with a single SendAll so
// concurrent writers on one socket cannot interleave a frame).
std::string EncodeFrame(const Frame& frame);
// Parses a complete frame from a buffer (tests and in-memory paths).
StatusOr<Frame> DecodeFrameBuffer(std::string_view bytes);
Status WriteFrame(support::Socket& socket, const Frame& frame);
// Reads one frame; validates magic, version, and payload length before
// allocating. A bad version is kFailedPrecondition; truncation surfaces as
// the socket's kUnavailable/kDeadlineExceeded.
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

// Executor load snapshot, piggybacked on every reply: the health/occupancy
// feedback stream the dispatcher's routing consumes.
struct ExecutorOccupancy {
  uint64_t queue_depth = 0;   // runs accepted but not yet executing
  uint64_t in_flight = 0;     // runs executing right now
  uint64_t plans_cached = 0;  // entries in the executor's plan cache
  // On the wire, plans_cached is followed by two reserved u64s (written as
  // zero, skipped on decode) that held v2's engine-pool counters.
  bool plan_cache_hit = false;  // this request's plan skipped decode/rebuild
};

struct RunRequestMsg {
  // The plan's CacheKey(): the executor's plan-cache key (repeat plans skip
  // decode/rebuild) and the dispatcher's affinity-routing key.
  std::string cache_key;
  uint64_t n_variants = 0;  // session width; must match the decoded plan
  std::vector<size_t> members;  // global slots to execute; [0] must be 0
  bool owns_baseline = false;
  api::RunRequest request;
  std::string plan_bytes;  // EncodeVariantPlan output
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
StatusOr<ExecutorOccupancy> DecodeOccupancy(std::string_view bytes);

}  // namespace net
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NET_WIRE_H_
