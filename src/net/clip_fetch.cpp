#include "net/clip_fetch.hpp"

#include <algorithm>
#include <cmath>

#include "obs/families.hpp"
#include "util/bytes.hpp"

namespace svg::net {

std::vector<std::uint8_t> encode_clip_request(const ClipRequest& m) {
  util::ByteWriter w;
  w.put_u8(kMsgClipRequest);
  w.put_varint(m.video_id);
  w.put_svarint(m.t_start);
  w.put_varint(static_cast<std::uint64_t>(m.t_end - m.t_start));
  return util::seal(w);
}

std::optional<ClipRequest> decode_clip_request(
    std::span<const std::uint8_t> bytes) {
  const auto body = util::unseal(bytes);
  if (!body) return std::nullopt;
  util::ByteReader r(*body);
  const auto type = r.get_u8();
  const auto vid = r.get_varint();
  const auto ts = r.get_svarint();
  const auto dur = r.get_varint();
  if (type != kMsgClipRequest || !vid || !ts || !dur || !r.exhausted()) {
    return std::nullopt;
  }
  const auto t_end = checked_end(*ts, static_cast<std::int64_t>(*dur));
  if (!t_end) return std::nullopt;
  ClipRequest m;
  m.video_id = *vid;
  m.t_start = *ts;
  m.t_end = *t_end;
  return m;
}

std::vector<std::uint8_t> encode_clip_response(const ClipResponse& m) {
  util::ByteWriter w;
  w.put_u8(kMsgClipResponse);
  w.put_u8(m.found ? 1 : 0);
  if (m.found) {
    w.put_varint(m.clip.video_id);
    w.put_svarint(m.clip.t_start);
    w.put_varint(static_cast<std::uint64_t>(m.clip.t_end - m.clip.t_start));
    w.put_varint(m.clip.payload.size());
    w.put_bytes(m.clip.payload);
  }
  return util::seal(w);
}

std::optional<ClipResponse> decode_clip_response(
    std::span<const std::uint8_t> bytes) {
  const auto body = util::unseal(bytes);
  if (!body) return std::nullopt;
  util::ByteReader r(*body);
  const auto type = r.get_u8();
  const auto found = r.get_u8();
  if (type != kMsgClipResponse || !found || *found > 1) return std::nullopt;
  ClipResponse m;
  m.found = *found == 1;
  if (m.found) {
    const auto vid = r.get_varint();
    const auto ts = r.get_svarint();
    const auto dur = r.get_varint();
    const auto len = r.get_varint();
    if (!vid || !ts || !dur || !len) return std::nullopt;
    const auto t_end = checked_end(*ts, static_cast<std::int64_t>(*dur));
    if (!t_end) return std::nullopt;
    // get_bytes bounds the claimed length by the bytes actually present
    // before anything is allocated.
    const auto payload = r.get_bytes(*len);
    if (!payload) return std::nullopt;
    m.clip.video_id = *vid;
    m.clip.t_start = *ts;
    m.clip.t_end = *t_end;
    m.clip.payload.assign(payload->begin(), payload->end());
  }
  if (!r.exhausted()) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> serve_clip_request(
    const media::VideoStore& store, std::span<const std::uint8_t> request) {
  ClipResponse resp;
  const auto req = decode_clip_request(request);
  if (req) {
    if (auto clip = store.extract_clip(req->video_id, req->t_start,
                                       req->t_end)) {
      resp.found = true;
      resp.clip = std::move(*clip);
    }
  }
  return encode_clip_response(resp);
}

void FetchCoordinator::register_provider(std::uint64_t video_id,
                                         const media::VideoStore* store,
                                         Link* link) {
  providers_[video_id] = Provider{store, link, nullptr};
}

void FetchCoordinator::register_provider(std::uint64_t video_id,
                                         const media::VideoStore* store,
                                         FaultyLink* link) {
  providers_[video_id] = Provider{store, nullptr, link};
}

std::optional<ClipResponse> FetchCoordinator::exchange(
    const Provider& p, const ClipRequest& req) {
  const auto req_bytes = encode_clip_request(req);
  if (p.faulty == nullptr) {
    // Reliable link: one request down, one response up.
    stats_.fetch_time_ms += p.link->send_down(req_bytes.size());
    const auto resp_bytes = serve_clip_request(*p.store, req_bytes);
    stats_.fetch_time_ms += p.link->send_up(resp_bytes.size());
    return decode_clip_response(resp_bytes);
  }
  // Lossy link: each delivered request copy that still parses gets served;
  // the first response copy that parses wins. A corrupted request is
  // dropped by the provider (no reply), not answered "not found".
  auto down = p.faulty->transfer_down(req_bytes);
  stats_.fetch_time_ms += down.latency_ms;
  std::optional<ClipResponse> result;
  for (const auto& copy : down.copies) {
    if (!decode_clip_request(copy)) continue;
    const auto resp_bytes = serve_clip_request(*p.store, copy);
    auto up = p.faulty->transfer_up(resp_bytes);
    stats_.fetch_time_ms += up.latency_ms;
    for (const auto& resp_copy : up.copies) {
      if (auto resp = decode_clip_response(resp_copy); resp && !result) {
        result = std::move(resp);
      }
    }
  }
  return result;
}

std::optional<media::Clip> FetchCoordinator::fetch(
    const retrieval::RankedResult& result, const FetchPolicy& policy,
    MissingClip* missing_out, core::TimestampMs window_start,
    core::TimestampMs window_end) {
  auto& rm = obs::net_retry_metrics();
  MissingClip miss;
  miss.video_id = result.rep.video_id;
  miss.segment_id = result.rep.segment_id;

  const auto it = providers_.find(result.rep.video_id);
  if (it == providers_.end()) {
    ++stats_.clips_missing;
    rm.fetch_failures.inc();
    miss.reason = FetchFailure::kUnknownProvider;
    if (missing_out != nullptr) *missing_out = miss;
    return std::nullopt;
  }
  const Provider& p = it->second;
  SimClock* clock = p.faulty != nullptr ? p.faulty->clock() : nullptr;

  ClipRequest req;
  req.video_id = result.rep.video_id;
  req.t_start = result.rep.t_start;
  req.t_end = result.rep.t_end;
  if (window_end > window_start) {
    req.t_start = std::max(req.t_start, window_start);
    req.t_end = std::min(req.t_end, window_end);
    if (req.t_end < req.t_start) req.t_end = req.t_start;
  }

  const double started_ms = clock != nullptr ? clock->now_ms() : 0.0;
  std::uint32_t attempt = 0;
  while (attempt < policy.max_attempts) {
    ++attempt;
    ++stats_.attempts;
    rm.fetch_attempts.inc();
    if (attempt > 1) {
      ++stats_.retries;
      rm.fetch_retries.inc();
    }

    const auto resp = exchange(p, req);
    if (resp && !resp->found) {
      // A provider that answers "gone" is definitive — retrying cannot
      // bring the video back.
      ++stats_.clips_missing;
      rm.fetch_failures.inc();
      miss.reason = FetchFailure::kNotFound;
      miss.attempts = attempt;
      if (missing_out != nullptr) *missing_out = miss;
      return std::nullopt;
    }
    if (resp && resp->clip.video_id == req.video_id) {
      ++stats_.clips_fetched;
      stats_.clip_bytes += resp->clip.size_bytes();
      if (const auto* video = p.store->find(req.video_id)) {
        stats_.full_video_bytes += video->total_bytes();
      }
      return resp->clip;
    }

    // Lost, corrupted, or mis-addressed: wait out the response timeout,
    // then back off (capped exponential) before trying again — unless the
    // request deadline has already passed.
    ++stats_.timeouts;
    if (clock != nullptr) {
      clock->advance(policy.attempt_timeout_ms);
      const double backoff = std::min(
          policy.backoff_base_ms * std::pow(2.0, attempt - 1),
          policy.backoff_max_ms);
      clock->advance(backoff);
      if (policy.deadline_ms > 0 &&
          clock->now_ms() - started_ms >= policy.deadline_ms) {
        break;
      }
    }
  }
  ++stats_.clips_missing;
  rm.fetch_failures.inc();
  miss.reason = FetchFailure::kTimedOut;
  miss.attempts = attempt;
  if (missing_out != nullptr) *missing_out = miss;
  return std::nullopt;
}

FetchReport FetchCoordinator::fetch_all(
    std::span<const retrieval::RankedResult> results,
    const FetchPolicy& policy, std::size_t limit,
    core::TimestampMs window_start, core::TimestampMs window_end) {
  FetchReport report;
  const std::size_t n =
      limit == 0 ? results.size() : std::min(limit, results.size());
  for (std::size_t i = 0; i < n; ++i) {
    MissingClip miss;
    if (auto clip = fetch(results[i], policy, &miss, window_start,
                          window_end)) {
      report.clips.push_back(std::move(*clip));
    } else {
      report.missing.push_back(miss);
    }
  }
  return report;
}

}  // namespace svg::net
