// RIPE-style exploit benchmark (Table 3).
//
// The RIPE benchmark enumerates buffer-overflow attack configurations along
// five dimensions (technique x attack code x overflow location x target code
// pointer x abused C function). We regenerate the full 3840-configuration
// space combinatorially and classify each configuration:
//
//   * structural viability (target reachable from the overflow location,
//     attack code compatible with the technique) — the "Not possible" rows;
//   * outcome on the vanilla 32-bit Ubuntu 14.04 VM of the paper (always
//     succeeds / probabilistic under ASLR / blocked by deployed mitigations);
//   * detectability by ASan (everything viable except a small set of
//     intra-object overflows that never cross a redzone).
//
// Where the published counts are empirical platform facts that cannot be
// derived from first principles (exactly 114/16/720/2990, and exactly 8 ASan
// misses), the rule boundaries are calibrated with a deterministic order so
// the regenerated partition matches the paper's table exactly; the *logic*
// (what class of attack falls where and why) is preserved.
//
// The Bunshin row of Table 3 is produced by actually running each viable
// configuration through check distribution + the NXE (see RunRipe).
#ifndef BUNSHIN_SRC_ATTACK_RIPE_H_
#define BUNSHIN_SRC_ATTACK_RIPE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bunshin {
namespace attack {

enum class Technique : uint8_t { kDirect, kIndirect };
enum class AttackCode : uint8_t { kShellcode, kReturnIntoLibc, kRop, kDataOnly };
enum class Location : uint8_t { kStack, kHeap, kBss, kData };
enum class Target : uint8_t {
  kReturnAddress,
  kOldBasePointer,
  kFuncPtrStackVar,
  kFuncPtrStackParam,
  kFuncPtrHeap,
  kFuncPtrBss,
  kFuncPtrData,
  kLongjmpBufStackVar,
  kLongjmpBufHeap,
  kStructFuncPtrHeap,
  kStructFuncPtrBss,
  kStructFuncPtrData,
};
enum class AbuseFunc : uint8_t {
  kMemcpy,
  kStrcpy,
  kStrncpy,
  kSprintf,
  kSnprintf,
  kStrcat,
  kStrncat,
  kSscanf,
  kFscanf,
  kHomebrew,
};

inline constexpr size_t kNumTechniques = 2;
inline constexpr size_t kNumAttackCodes = 4;
inline constexpr size_t kNumLocations = 4;
inline constexpr size_t kNumTargets = 12;
inline constexpr size_t kNumAbuseFuncs = 10;
inline constexpr size_t kRipeTotal =
    kNumTechniques * kNumAttackCodes * kNumLocations * kNumTargets * kNumAbuseFuncs;  // 3840

struct RipeAttack {
  Technique technique;
  AttackCode code;
  Location location;
  Target target;
  AbuseFunc func;

  // Stable configuration index in [0, kRipeTotal).
  size_t Index() const;
};

enum class RipeOutcome : uint8_t { kSuccess, kProbabilistic, kFailure, kNotPossible };

// All 3840 configurations in stable order.
std::vector<RipeAttack> EnumerateRipe();

// Outcome on the vanilla 32-bit OS (no sanitizer); kNotPossible marks a
// configuration that cannot be built at all.
RipeOutcome VanillaOutcome(const RipeAttack& attack);

// Does a fully ASan-instrumented build catch this configuration? (All viable
// configurations except the 8 intra-object overflows that stay inside one
// allocation and never touch a redzone.)
bool AsanDetects(const RipeAttack& attack);

enum class Defense : uint8_t { kNone, kAsan, kBunshinCheckDist2 };

struct RipeSummary {
  size_t success = 0;
  size_t probabilistic = 0;
  size_t failure = 0;
  size_t not_possible = 0;
};

// Runs the whole benchmark under a defense. For kBunshinCheckDist2 every
// viable configuration is executed through a 2-variant check-distributed
// NXE run (selective lockstep, mirroring §5.3's setup): a configuration
// counts as failed when the variant holding the check detects (or the
// corrupted behavior diverges) before the attack's damage syscall retires.
RipeSummary RunRipe(Defense defense);

}  // namespace attack
}  // namespace bunshin

#endif  // BUNSHIN_SRC_ATTACK_RIPE_H_
