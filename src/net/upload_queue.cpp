#include "net/upload_queue.hpp"

#include <algorithm>
#include <cmath>

#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/families.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace svg::net {

std::uint64_t UploadQueue::enqueue(const UploadMessage& m) {
  // ids are a pure function of (queue seed, enqueue ordinal): a client that
  // crashes and re-enqueues the same recordings through a fresh queue with
  // the same seed re-offers the same ids, which is exactly what lets the
  // server's dedup set absorb the replay.
  util::SplitMix64 mix(seed_ ^ (next_ordinal_++ * 0x9e3779b97f4a7c15ULL));
  std::uint64_t id = mix.next();
  if (id == 0) id = 1;  // 0 means "no dedup id" on the wire

  UploadMessage tagged = m;
  tagged.upload_id = id;
  tagged.trace_id = 0;  // trace context is per-attempt, stamped in drain()
  tagged.parent_span_id = 0;
  Pending p;
  p.upload_id = id;
  p.bytes = encode_upload(tagged);
  p.message = std::move(tagged);
  p.next_eligible_ms = now_ms();
  p.enqueued_ms = now_ms();
  pending_.push_back(std::move(p));
  ++stats_.enqueued;
  return id;
}

double UploadQueue::backoff_ms(std::uint32_t attempts_made) {
  if (!policy_.backoff_enabled) return 0.0;
  const double exp =
      policy_.base_backoff_ms *
      std::pow(policy_.multiplier,
               static_cast<double>(attempts_made > 0 ? attempts_made - 1 : 0));
  const double capped = std::min(exp, policy_.max_backoff_ms);
  const double j = std::clamp(policy_.jitter, 0.0, 1.0);
  return capped * jitter_rng_.uniform(1.0 - j, 1.0 + j);
}

bool UploadQueue::drain(const AttemptFn& attempt) {
  auto& rm = obs::net_retry_metrics();
  bool all_acked = true;
  while (!pending_.empty()) {
    // Next-eligible first: with several uploads in flight the queue
    // interleaves their attempts instead of hammering one while the
    // others' backoff windows sit idle.
    const auto it = std::min_element(
        pending_.begin(), pending_.end(), [](const auto& a, const auto& b) {
          return a.next_eligible_ms < b.next_eligible_ms;
        });
    Pending& p = *it;
    if (clock_ != nullptr && p.next_eligible_ms > clock_->now_ms()) {
      clock_->advance(p.next_eligible_ms - clock_->now_ms());
    }

    ++p.attempts;
    ++stats_.attempts;
    rm.upload_attempts.inc();
    if (p.attempts > 1) {
      ++stats_.retries;
      rm.upload_retries.inc();
    }

    // Each delivery attempt is its own trace root ("upload.attempt"):
    // the queue interleaves several pending uploads on this thread, so a
    // trace-per-upload spanning all its attempts is not representable —
    // and per-attempt roots are what the slow-request log wants anyway
    // (the slow thing is one delivery, not the retry schedule around it).
    // A traced attempt re-encodes the message so its span rides the wire
    // and the server's ingest spans join this trace.
    obs::Span span = obs::tracer().root_span("upload.attempt");
    const std::vector<std::uint8_t>* bytes = &p.bytes;
    std::vector<std::uint8_t> traced_bytes;
    if (span.active()) {
      span.tag("upload_id", p.upload_id);
      span.tag("attempt", p.attempts);
      UploadMessage traced = p.message;
      traced.trace_id = span.trace_id();
      traced.parent_span_id = span.span_id();
      traced_bytes = encode_upload(traced);
      bytes = &traced_bytes;
    }

    const auto ack = attempt(*bytes);
    const bool matched = ack && ack->upload_id == p.upload_id;
    if (span.active()) {
      // 0..4 mirror UploadAckStatus; 5 = no usable ack came back.
      span.tag("ack", matched ? static_cast<std::uint64_t>(ack->status) : 5);
      span.end();
    }
    if (matched && ack->status == UploadAckStatus::kRejected) {
      ++stats_.rejected;
      rm.upload_rejected.inc();
      pending_.erase(it);
      all_acked = false;
      continue;
    }
    if (matched && ack->status == UploadAckStatus::kRetryLater) {
      // Degraded read-only server: the upload reached it but was refused
      // without being indexed. No ack-timeout wait (the server answered);
      // back off and re-offer, still bounded by the attempt budget.
      ++stats_.deferred;
      rm.upload_deferrals.inc();
      obs::journal_event(obs::JournalEvent::kUploadDeferred, p.upload_id,
                         p.attempts);
      if (p.attempts >= policy_.max_attempts) {
        ++stats_.exhausted;
        rm.upload_exhausted.inc();
        obs::journal_event(obs::JournalEvent::kUploadExhausted, p.upload_id,
                           p.attempts);
        pending_.erase(it);
        all_acked = false;
        continue;
      }
      // A server-computed retry-after hint beats blind exponential
      // backoff: admission control knows when its queue will have room,
      // the client's backoff schedule does not.
      double backoff;
      if (ack->retry_after_ms > 0) {
        backoff = static_cast<double>(ack->retry_after_ms);
        ++stats_.retry_after_hints;
        stats_.hinted_wait_ms += backoff;
        rm.upload_retry_after_hints.inc();
        if (client_stats_ != nullptr) {
          ++client_stats_->retry_after_hints;
          client_stats_->retry_after_wait_ms += backoff;
        }
      } else {
        backoff = backoff_ms(p.attempts);
      }
      rm.backoff_ms.observe(static_cast<std::uint64_t>(backoff));
      p.next_eligible_ms = now_ms() + backoff;
      continue;
    }
    if (matched && ack->status == UploadAckStatus::kStaleEpoch) {
      // Epoch fencing: a node refused the delivery because its routing
      // epoch is ahead of whoever routed it. Not indexed — back off and
      // re-offer (the routing layer refreshes its table on this signal,
      // so the retry re-routes under the newer epoch), still bounded by
      // the attempt budget.
      ++stats_.stale_epoch;
      if (p.attempts >= policy_.max_attempts) {
        ++stats_.exhausted;
        rm.upload_exhausted.inc();
        obs::journal_event(obs::JournalEvent::kUploadExhausted, p.upload_id,
                           p.attempts);
        pending_.erase(it);
        all_acked = false;
        continue;
      }
      const double backoff = backoff_ms(p.attempts);
      rm.backoff_ms.observe(static_cast<std::uint64_t>(backoff));
      p.next_eligible_ms = now_ms() + backoff;
      continue;
    }
    if (matched) {  // accepted or duplicate — either way it is indexed
      ++stats_.acked;
      rm.upload_acks.inc();
      rm.attempts_per_upload.observe(p.attempts);
      if (ack->status == UploadAckStatus::kDuplicate) {
        ++stats_.duplicate_acks;
        rm.upload_duplicate_acks.inc();
      }
      completion_ms_.push_back(now_ms() - p.enqueued_ms);
      pending_.erase(it);
      continue;
    }

    // No usable ack: the client waits out the ack timeout, then backs off.
    if (clock_ != nullptr) clock_->advance(policy_.attempt_timeout_ms);
    if (p.attempts >= policy_.max_attempts) {
      ++stats_.exhausted;
      rm.upload_exhausted.inc();
      obs::journal_event(obs::JournalEvent::kUploadExhausted, p.upload_id,
                         p.attempts);
      pending_.erase(it);
      all_acked = false;
      continue;
    }
    const double backoff = backoff_ms(p.attempts);
    rm.backoff_ms.observe(static_cast<std::uint64_t>(backoff));
    p.next_eligible_ms = now_ms() + backoff;
  }
  return all_acked;
}

std::optional<UploadAck> FaultyUploadChannel::operator()(
    const std::vector<std::uint8_t>& bytes) {
  FaultyLink::Delivery up;
  {
    obs::Span span = obs::tracer().span("link.up");
    up = link_.transfer_up(bytes);
    span.tag("copies", up.copies.size());
  }
  std::optional<UploadAck> result;
  for (const auto& copy : up.copies) {
    const auto ack_bytes = server_.handle_upload_acked(copy);
    if (!ack_bytes) continue;  // undecodable on arrival — no one to ack
    obs::Span span = obs::tracer().span("link.down");
    const auto down = link_.transfer_down(*ack_bytes);
    span.tag("copies", down.copies.size());
    span.end();
    for (const auto& ack_copy : down.copies) {
      if (auto ack = decode_upload_ack(ack_copy); ack && !result) {
        result = ack;
      }
    }
  }
  return result;
}

}  // namespace svg::net
