#pragma once
// Deterministic fault injection for the message-passing substrate.
//
// A FaultPlan turns the perfect in-process "network" into a lossy,
// reordering, duplicating, rank-killing one. Every decision (drop this
// delivery? duplicate it? hold it back?) is a pure hash of
// (plan.seed, flow, attempt#), so a given (seed, plan) pair replays the
// same fault schedule regardless of thread interleaving — the property
// the stress harness relies on to shrink and reproduce failures.
//
// Faults apply to the *reliable* channel (see RankContext::set_reliable),
// because that is the layer with a recovery path: dropping a message on
// the plain channel would guarantee a hang, and the point of the harness
// is that faulty runs either produce the fault-free answer or fail with
// a clean RankFailedError — never a hang, never a wrong answer.
// Rank-kill applies to the whole rank regardless of channel.

#include <cstdint>
#include <stdexcept>
#include <string>

namespace pdc::mp {

/// Thrown (by Communicator::run and by blocked channel operations) when a
/// peer rank died — killed by the fault plan, or exited/threw while a
/// matching message can no longer arrive. rank() is the dead peer, or -1
/// when no single rank can be blamed (e.g. an any-source receive after
/// every peer exited).
class RankFailedError : public std::runtime_error {
 public:
  RankFailedError(int rank, const std::string& what)
      : std::runtime_error(what), rank_(rank) {}
  [[nodiscard]] int rank() const { return rank_; }

 private:
  int rank_;
};

/// Seeded, deterministic fault schedule for one Communicator.
struct FaultPlan {
  double drop = 0.0;        ///< P(a data or ack delivery attempt is eaten)
  double dup = 0.0;         ///< P(a delivered data message arrives twice)
  bool reorder = false;     ///< hold messages back to scramble arrival order
  double delay_prob = 0.25; ///< P(hold a delivery) when reorder is on
  int max_delay = 3;        ///< held messages release after <= N later deliveries
  int kill_rank = -1;       ///< rank to kill (-1 = nobody)
  int kill_after_ops = 0;   ///< channel ops the victim completes before dying
  bool jitter = false;      ///< sprinkle deterministic yields to shake schedules
  std::uint64_t seed = 0;   ///< the only source of randomness

  [[nodiscard]] bool active() const {
    return drop > 0 || dup > 0 || reorder || kill_rank >= 0 || jitter;
  }
  [[nodiscard]] bool kills() const { return kill_rank >= 0; }

  /// Stable one-line rendering, printed in repro lines and error messages.
  [[nodiscard]] std::string describe() const;
};

namespace detail {

/// Thrown inside a rank to simulate its death; deliberately NOT derived
/// from std::exception so SPMD bodies catching std::exception cannot
/// swallow their own demise. Communicator::run translates it.
struct RankKilledError {};

/// splitmix64 finalizer — the deterministic decision hash.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] inline std::uint64_t fault_hash(std::uint64_t seed,
                                              std::uint64_t salt,
                                              std::uint64_t a, std::uint64_t b,
                                              std::uint64_t c) {
  return mix64(mix64(mix64(mix64(seed ^ salt) ^ a) ^ b) ^ c);
}

/// True with probability p, decided by hash bits (53-bit mantissa trick).
[[nodiscard]] inline bool chance(double p, std::uint64_t h) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

inline constexpr std::uint64_t kSaltDrop = 0x64726f70ULL;      // "drop"
inline constexpr std::uint64_t kSaltDup = 0x647570ULL;         // "dup"
inline constexpr std::uint64_t kSaltDelay = 0x64656c61ULL;     // "dela"
inline constexpr std::uint64_t kSaltDelayN = 0x64656c6eULL;    // "deln"
inline constexpr std::uint64_t kSaltAckDrop = 0x61636b64ULL;   // "ackd"
inline constexpr std::uint64_t kSaltJitter = 0x6a697474ULL;    // "jitt"

}  // namespace detail

}  // namespace pdc::mp
