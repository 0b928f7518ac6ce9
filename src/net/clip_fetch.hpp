#pragma once
// Phase 2 of the retrieval protocol: after the content-free index matched a
// segment, the querier fetches the actual clip from its provider. Section
// IV's saving is that only the matched segment's GOPs cross the link, not
// the whole recording.
//
// Wire messages: ClipRequest(video_id, t0, t1) → ClipResponse(clip meta +
// payload). The FetchCoordinator resolves video ids to provider devices,
// runs the exchange across per-provider links — retrying under a deadline
// when the link is lossy — and accounts the traffic, including the
// counterfactual full-video bytes for comparison.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "media/video_store.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "retrieval/query.hpp"

namespace svg::net {

inline constexpr std::uint8_t kMsgClipRequest = 4;
inline constexpr std::uint8_t kMsgClipResponse = 5;

struct ClipRequest {
  std::uint64_t video_id = 0;
  core::TimestampMs t_start = 0;
  core::TimestampMs t_end = 0;
};

struct ClipResponse {
  bool found = false;
  media::Clip clip;
};

[[nodiscard]] std::vector<std::uint8_t> encode_clip_request(
    const ClipRequest& m);
[[nodiscard]] std::optional<ClipRequest> decode_clip_request(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode_clip_response(
    const ClipResponse& m);
[[nodiscard]] std::optional<ClipResponse> decode_clip_response(
    std::span<const std::uint8_t> bytes);

/// Provider-side handler: decode a request, cut the clip from the store,
/// encode the response.
[[nodiscard]] std::vector<std::uint8_t> serve_clip_request(
    const media::VideoStore& store, std::span<const std::uint8_t> request);

struct FetchStats {
  std::size_t clips_fetched = 0;
  std::size_t clips_missing = 0;
  std::uint64_t clip_bytes = 0;       ///< what actually crossed the links
  std::uint64_t full_video_bytes = 0; ///< counterfactual: whole recordings
  double fetch_time_ms = 0.0;         ///< simulated link time
  std::uint64_t attempts = 0;         ///< exchanges tried
  std::uint64_t retries = 0;          ///< exchanges after a clip's first
  std::uint64_t timeouts = 0;         ///< attempts with no usable response
};

/// Retry/deadline policy for a clip fetch over a lossy link. Backoff is
/// capped-exponential without jitter (per-clip exchanges are serial; the
/// thundering-herd concern behind upload jitter does not apply).
struct FetchPolicy {
  std::uint32_t max_attempts = 3;
  double attempt_timeout_ms = 2'000.0;  ///< charged when no response lands
  double backoff_base_ms = 50.0;
  double backoff_max_ms = 1'000.0;
  /// Total sim-time budget per clip, measured from its first attempt;
  /// 0 = no deadline (attempts alone bound the work).
  double deadline_ms = 8'000.0;
};

enum class FetchFailure : std::uint8_t {
  kUnknownProvider,  ///< no registered device for the video
  kNotFound,         ///< provider answered: it no longer has the clip
  kTimedOut,         ///< retries/deadline exhausted without a response
};

/// One result the fetch could not satisfy — flagged, not fatal.
struct MissingClip {
  std::uint64_t video_id = 0;
  std::uint32_t segment_id = 0;
  FetchFailure reason = FetchFailure::kTimedOut;
  std::uint32_t attempts = 0;
};

/// Result of fetch_all: what arrived, plus an explicit account of every
/// clip that did not (instead of failing the query).
struct FetchReport {
  std::vector<media::Clip> clips;
  std::vector<MissingClip> missing;
  [[nodiscard]] bool complete() const noexcept { return missing.empty(); }
};

/// The querier-side driver: given ranked results, fetch each matched clip
/// from its provider over that provider's link.
class FetchCoordinator {
 public:
  /// Register a provider device (its store and its uplink). A plain Link
  /// never loses a message, so each fetch from it takes one exchange.
  void register_provider(std::uint64_t video_id,
                         const media::VideoStore* store, Link* link);

  /// Register a provider reachable only through a faulty link: every
  /// exchange goes through it, faults applied, and lost or corrupted
  /// exchanges are retried under the FetchPolicy.
  void register_provider(std::uint64_t video_id,
                         const media::VideoStore* store, FaultyLink* link);

  /// Fetch the clip for one result, with per-attempt timeouts, capped
  /// backoff and a per-request deadline. When a query window is given,
  /// the request is clamped to segment ∩ window — a segment can be much
  /// longer than the minute the inquirer cares about (a stationary
  /// camera's whole recording is one segment), and there is no reason to
  /// move those extra GOPs. nullopt means the clip could not be fetched;
  /// when `missing_out` is non-null it receives the reason and attempt
  /// count.
  [[nodiscard]] std::optional<media::Clip> fetch(
      const retrieval::RankedResult& result, const FetchPolicy& policy = {},
      MissingClip* missing_out = nullptr, core::TimestampMs window_start = 0,
      core::TimestampMs window_end = 0);

  /// Fetch over the top `limit` results (all when limit = 0), optionally
  /// clamped to the query window: partial results with every unfetchable
  /// clip explicitly flagged, never a failed query.
  [[nodiscard]] FetchReport fetch_all(
      std::span<const retrieval::RankedResult> results,
      const FetchPolicy& policy = {}, std::size_t limit = 0,
      core::TimestampMs window_start = 0, core::TimestampMs window_end = 0);

  [[nodiscard]] const FetchStats& stats() const noexcept { return stats_; }

 private:
  struct Provider {
    const media::VideoStore* store = nullptr;
    Link* link = nullptr;          ///< set for a reliable provider
    FaultyLink* faulty = nullptr;  ///< set for a lossy provider
  };

  /// One request/response exchange via the provider's link. nullopt =
  /// nothing usable came back this attempt.
  [[nodiscard]] std::optional<ClipResponse> exchange(
      const Provider& p, const ClipRequest& req);

  std::map<std::uint64_t, Provider> providers_;
  FetchStats stats_;
};

}  // namespace svg::net
