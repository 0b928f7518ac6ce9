#pragma once
// Deterministic fault injection for the simulated cellular link. A
// FaultyLink wraps a Link and applies a seed-driven FaultPlan to every
// transfer: per-message drop/duplicate/reorder/byte-corruption, plus timed
// disconnect windows on a simulated clock. Every per-message decision is a
// pure function of (plan seed, direction, message ordinal), so any chaos
// run replays bit-identically from its seed — the property the chaos tests
// and `svgctl chaos` build on (docs/ROBUSTNESS.md).

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "net/transport.hpp"

namespace svg::net {

/// Monotonic simulated time shared by the fault plan (disconnect windows),
/// the upload queue (backoff sleeps), and the fetch path (deadlines).
/// Transfers and sleeps advance it; wall time never does.
class SimClock {
 public:
  [[nodiscard]] double now_ms() const noexcept { return now_ms_; }
  void advance(double ms) noexcept {
    if (ms > 0) now_ms_ += ms;
  }

 private:
  double now_ms_ = 0.0;
};

/// One scheduled outage: every delivery attempted in [start_ms, end_ms)
/// of sim time is lost, regardless of the probabilistic faults.
struct DisconnectWindow {
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// The full description of a link's misbehaviour. Probabilities are
/// per-message and independent; `seed` makes the whole plan replayable.
struct FaultPlan {
  std::uint64_t seed = 0;
  double drop = 0.0;       ///< P(message vanishes)
  double duplicate = 0.0;  ///< P(message delivered twice)
  double reorder = 0.0;    ///< P(message held and delivered after the next)
  double corrupt = 0.0;    ///< P(1–3 random byte flips in a delivery)
  std::vector<DisconnectWindow> disconnects;

  [[nodiscard]] bool disconnected_at(double t_ms) const noexcept {
    for (const auto& w : disconnects) {
      if (t_ms >= w.start_ms && t_ms < w.end_ms) return true;
    }
    return false;
  }
};

struct FaultStats {
  std::uint64_t attempts = 0;   ///< transfers offered to the link
  std::uint64_t delivered = 0;  ///< copies that reached the far side
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t disconnect_drops = 0;
};

/// A Link that misbehaves on purpose. Each transfer consults the plan and
/// returns the set of byte buffers that actually arrive (possibly empty,
/// possibly with a stale reordered message appended, possibly corrupted).
/// The wrapped Link still accounts airtime for every attempt — a dropped
/// packet spent its time on the radio. Thread-safe like Link.
class FaultyLink {
 public:
  /// What one transfer attempt produced on the receiving side.
  struct Delivery {
    std::vector<std::vector<std::uint8_t>> copies;  ///< in arrival order
    double latency_ms = 0.0;  ///< simulated airtime of the attempt
    bool lost = false;        ///< the offered message itself never arrived
  };

  /// `clock` may be null — then disconnect windows never match (time
  /// stays at 0 forever) but probabilistic faults still fire.
  FaultyLink(Link& inner, FaultPlan plan, SimClock* clock = nullptr) noexcept
      : inner_(inner), plan_(std::move(plan)), clock_(clock) {}

  [[nodiscard]] Delivery transfer_up(std::span<const std::uint8_t> bytes);
  [[nodiscard]] Delivery transfer_down(std::span<const std::uint8_t> bytes);

  [[nodiscard]] FaultStats stats() const;
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] SimClock* clock() const noexcept { return clock_; }

 private:
  struct DirectionState {
    std::uint64_t ordinal = 0;  ///< messages offered in this direction
    std::vector<std::uint8_t> held;  ///< reordered message awaiting release
    bool holding = false;
  };

  Delivery transfer(std::span<const std::uint8_t> bytes, bool up);

  Link& inner_;
  FaultPlan plan_;
  SimClock* clock_;
  mutable std::mutex mutex_;
  DirectionState up_, down_;
  FaultStats stats_;
};

}  // namespace svg::net
