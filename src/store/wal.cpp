#include "store/wal.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "obs/families.hpp"
#include "obs/journal.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "store/env.hpp"
#include "store/snapshot.hpp"
#include "util/bytes.hpp"
#include "util/crc32c.hpp"

namespace svg::store {

namespace {

constexpr std::uint8_t kSegMagic[4] = {'S', 'V', 'G', 'W'};
constexpr std::uint16_t kSegVersion = 1;
constexpr std::uint64_t kSegHeaderBytes = 16;
constexpr std::uint64_t kFrameHeaderBytes = 8;
/// Upper bound on one record; a longer claimed length is corruption.
constexpr std::uint64_t kMaxRecordBytes = 64ull << 20;

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t read_u64le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(read_u32le(p)) |
         static_cast<std::uint64_t>(read_u32le(p + 4)) << 32;
}

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

/// Frame one record into the pending buffer: len | crc | payload.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  put_u32le(out, util::crc32c(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

struct ScanResult {
  WalReplayStats stats;
  std::vector<WalSegmentInfo> segments;  // valid chain members
  std::vector<WalRecordInfo> records;    // filled when collect_records
  std::string error;
  // Repair plan for the tail (applied by wal_open, ignored by wal_dump):
  std::string truncate_path;         // empty = nothing to truncate
  std::uint64_t truncate_to = 0;     // < kSegHeaderBytes ⇒ delete the file
};

/// Walk the whole chain: verify headers, frame CRCs, and seq contiguity;
/// deliver records newer than replay_after; classify a bad tail as torn
/// (final segment) or corruption (anything else).
ScanResult scan_wal(const std::string& dir, std::uint64_t replay_after,
                    const WalReplayHandler& handler, bool collect_records,
                    Env& env) {
  ScanResult res;
  res.stats.next_seq = replay_after + 1;
  const auto files = wal_segment_files(dir);

  std::uint64_t expected = 0;  // 0 = chain start not yet pinned
  for (std::size_t i = 0; i < files.size(); ++i) {
    const bool last = i + 1 == files.size();
    const auto bytes = env.read_file(files[i].path);
    if (!bytes) {
      res.error = "cannot read " + files[i].path;
      return res;
    }
    const std::uint64_t first_seq = files[i].first_seq;

    // Header validation. An unreadable header on the FINAL segment is a
    // torn rotation (the file was created but the header write was lost):
    // drop the whole file. Anywhere else it is corruption.
    if (!wal_segment_header_ok(*bytes, first_seq)) {
      if (!last) {
        res.error =
            files[i].path + ": bad segment header in non-final segment";
        return res;
      }
      const std::uint64_t need = expected != 0 ? expected : replay_after + 1;
      if (first_seq > need) {
        res.error = files[i].path +
                    ": bad segment header and sequence gap (expected " +
                    std::to_string(need) + ")";
        return res;
      }
      res.stats.tail_torn = true;
      res.stats.bytes_truncated += bytes->size();
      res.truncate_path = files[i].path;
      res.truncate_to = 0;
      break;
    }

    // Chain contiguity. The first segment must reach back to the replay
    // watermark (records ≤ replay_after are covered by the snapshot);
    // later segments must continue exactly where the previous ended.
    if (expected == 0) {
      if (first_seq > replay_after + 1) {
        res.error = files[i].path + ": oldest segment starts at seq " +
                    std::to_string(first_seq) + " but replay needs seq " +
                    std::to_string(replay_after + 1) +
                    " (missing earlier segment)";
        return res;
      }
    } else if (first_seq != expected) {
      if (first_seq > expected && first_seq <= replay_after + 1) {
        // Gap wholly below the checkpoint watermark: every missing record
        // is ≤ replay_after, i.e. covered by the snapshot, and the
        // segments scanned so far are pre-checkpoint leftovers that a
        // crashed or faulted retirement failed to unlink. Restart the
        // chain here — nothing replayable was lost.
      } else {
        res.error = files[i].path + ": segment starts at seq " +
                    std::to_string(first_seq) + ", expected " +
                    std::to_string(expected) +
                    (first_seq > expected ? " (missing middle segment)"
                                          : " (overlapping segments)");
        return res;
      }
    }

    WalSegmentInfo info;
    info.path = files[i].path;
    info.first_seq = first_seq;
    info.file_bytes = bytes->size();
    const WalFrameWalk walk = walk_wal_frames(
        *bytes, [&](std::uint64_t off, std::span<const std::uint8_t> payload) {
          const std::uint64_t seq = first_seq + info.records;
          ++res.stats.records_scanned;
          ++info.records;
          if (collect_records) {
            res.records.push_back(
                {seq, res.segments.size(), off,
                 static_cast<std::uint32_t>(payload.size())});
          }
          if (handler && seq > replay_after) {
            handler(seq, payload);
            ++res.stats.records_replayed;
          }
        });

    // A bad frame in the final segment is a torn tail: the records from
    // it on were never acked. Anywhere else it is corruption.
    if (walk.stop != WalStop::kClean) {
      if (!last) {
        res.error = files[i].path + ": " + wal_stop_name(walk.stop) +
                    " at offset " + std::to_string(walk.offset) +
                    " in non-final segment";
        return res;
      }
      res.stats.tail_torn = true;
      res.stats.bytes_truncated += bytes->size() - walk.offset;
      res.truncate_path = files[i].path;
      res.truncate_to = walk.offset;
    }

    expected = first_seq + info.records;
    res.stats.next_seq = std::max(res.stats.next_seq, expected);
    res.segments.push_back(std::move(info));
    ++res.stats.segments_scanned;
    if (res.stats.tail_torn) break;
  }
  return res;
}

}  // namespace

std::string wal_segment_path(const std::string& dir,
                             std::uint64_t first_seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.log",
                static_cast<unsigned long long>(first_seq));
  return (std::filesystem::path(dir) / name).string();
}

bool wal_segment_header_ok(std::span<const std::uint8_t> bytes,
                           std::uint64_t first_seq) {
  return bytes.size() >= kSegHeaderBytes &&
         std::equal(kSegMagic, kSegMagic + 4, bytes.begin()) &&
         read_u32le(bytes.data() + 4) == kSegVersion &&
         read_u64le(bytes.data() + 8) == first_seq;
}

const char* wal_stop_name(WalStop stop) {
  switch (stop) {
    case WalStop::kClean:
      return "clean";
    case WalStop::kShortHeader:
      return "short frame header";
    case WalStop::kBadLength:
      return "frame length out of bounds";
    case WalStop::kBadCrc:
      return "frame CRC mismatch";
  }
  return "unknown";
}

WalFrameWalk walk_wal_frames(std::span<const std::uint8_t> bytes,
                             const WalFrameVisitor& visit) {
  WalFrameWalk walk;
  walk.offset = kSegHeaderBytes;
  while (walk.offset < bytes.size()) {
    const std::uint64_t rem = bytes.size() - walk.offset;
    if (rem < kFrameHeaderBytes) {
      walk.stop = WalStop::kShortHeader;
      return walk;
    }
    const std::uint8_t* frame = bytes.data() + walk.offset;
    const std::uint32_t len = read_u32le(frame);
    if (len == 0 || len > kMaxRecordBytes || len > rem - kFrameHeaderBytes) {
      walk.stop = WalStop::kBadLength;
      return walk;
    }
    const std::span<const std::uint8_t> payload(frame + kFrameHeaderBytes,
                                                len);
    if (util::crc32c(payload) != read_u32le(frame + 4)) {
      walk.stop = WalStop::kBadCrc;
      return walk;
    }
    if (visit) visit(walk.offset, payload);
    ++walk.frames;
    walk.offset += kFrameHeaderBytes + len;
  }
  return walk;
}

std::vector<WalSegmentFile> wal_segment_files(const std::string& dir) {
  std::vector<WalSegmentFile> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0 || name.size() != 24 ||
        name.substr(20) != ".log") {
      continue;
    }
    char* end = nullptr;
    const std::uint64_t seq = std::strtoull(name.c_str() + 4, &end, 16);
    if (end != name.c_str() + 20) continue;
    out.push_back({entry.path().string(), seq});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first_seq < b.first_seq;
  });
  return out;
}

WalDump wal_dump(const std::string& dir, std::uint64_t replay_after,
                 Env* env) {
  auto scan = scan_wal(dir, replay_after, nullptr, /*collect_records=*/true,
                       env != nullptr ? *env : Env::posix());
  WalDump dump;
  dump.segments = std::move(scan.segments);
  dump.records = std::move(scan.records);
  dump.stats = scan.stats;
  dump.error = std::move(scan.error);
  return dump;
}

std::optional<std::vector<WalRecordData>> wal_read_records(
    const std::string& dir, std::uint64_t after, std::size_t max_records,
    std::uint64_t replay_after, Env* env) {
  std::vector<WalRecordData> out;
  // The handler sees every record with seq > replay_after; the shipper's
  // cursor filter and batch cap apply on top.
  const WalReplayHandler collect = [&](std::uint64_t seq,
                                       std::span<const std::uint8_t> payload) {
    if (seq <= after) return;
    if (max_records != 0 && out.size() >= max_records) return;
    out.push_back({seq, {payload.begin(), payload.end()}});
  };
  auto scan = scan_wal(dir, std::min(replay_after, after), collect,
                       /*collect_records=*/false,
                       env != nullptr ? *env : Env::posix());
  if (!scan.error.empty()) return std::nullopt;
  return out;
}

bool wal_trim_after(const std::string& dir, std::uint64_t seq,
                    std::uint64_t replay_after, Env* env) {
  Env& e = env != nullptr ? *env : Env::posix();
  auto scan = scan_wal(dir, replay_after, nullptr, /*collect_records=*/true,
                       e);
  if (!scan.error.empty()) return false;

  bool touched = false;
  // A trailing file whose header never made it to disk is not a chain
  // member at all (scan excludes it from segments); drop it outright.
  if (!scan.truncate_path.empty() && scan.truncate_to < kSegHeaderBytes) {
    if (!e.remove_file(scan.truncate_path)) return false;
    touched = true;
  }
  // Records with seq > `seq` were never acked (or are being disowned):
  // cut the segment holding seq+1 at that frame and delete everything
  // after it. A torn frame tail (scan.truncate_*) lies past any acked
  // record by construction, so the cut subsumes it when they share a
  // segment and the removal loop covers it when they don't.
  std::optional<std::size_t> cut_segment;
  for (const auto& rec : scan.records) {
    if (rec.seq == seq + 1) {
      if (!e.truncate_file(scan.segments[rec.segment].path, rec.offset)) {
        return false;
      }
      cut_segment = rec.segment;
      touched = true;
      break;
    }
  }
  if (cut_segment.has_value()) {
    for (std::size_t i = *cut_segment + 1; i < scan.segments.size(); ++i) {
      if (!e.remove_file(scan.segments[i].path)) return false;
      touched = true;
    }
  } else if (!scan.truncate_path.empty() &&
             scan.truncate_to >= kSegHeaderBytes) {
    // Every whole record is ≤ seq; only the torn bytes go.
    if (!e.truncate_file(scan.truncate_path, scan.truncate_to)) return false;
    touched = true;
  }
  return !touched || e.sync_dir(dir);
}

// --- Wal --------------------------------------------------------------------

/// wal_open's key to the private constructor and post-scan setup.
struct WalOpenAccess {
  static std::unique_ptr<Wal> make(WalOptions options) {
    return std::unique_ptr<Wal>(new Wal(std::move(options)));
  }
};

WalOpenResult wal_open(WalOptions options, std::uint64_t replay_after,
                       const WalReplayHandler& handler) {
  WalOpenResult res;
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    res.error = "cannot create " + options.dir + ": " + ec.message();
    return res;
  }
  options.batch_flush_interval_ms =
      std::max<std::uint32_t>(1, options.batch_flush_interval_ms);
  Env& env = options.env != nullptr ? *options.env : Env::posix();

  auto scan = scan_wal(options.dir, replay_after, handler,
                       /*collect_records=*/false, env);
  res.stats = scan.stats;
  if (!scan.error.empty()) {
    res.error = std::move(scan.error);
    return res;
  }

  // Repair the torn tail: partially written records were never acked, so
  // dropping them restores the exact acked prefix.
  if (!scan.truncate_path.empty()) {
    bool repaired = false;
    if (scan.truncate_to < kSegHeaderBytes) {
      repaired = env.remove_file(scan.truncate_path);
      if (repaired && !scan.segments.empty() &&
          scan.segments.back().path == scan.truncate_path) {
        scan.segments.pop_back();
      }
    } else {
      repaired = env.truncate_file(scan.truncate_path, scan.truncate_to);
      if (repaired && !scan.segments.empty() &&
          scan.segments.back().path == scan.truncate_path) {
        scan.segments.back().file_bytes = scan.truncate_to;
      }
    }
    // The repair must be durable before any new record lands after the
    // cut: if the truncation (or the directory entry for the removal)
    // were lost in a later crash, the revived torn bytes would corrupt
    // the middle of the chain. Surface the failure instead of appending
    // past an un-durable repair.
    if (!repaired || !env.sync_dir(options.dir)) {
      res.error = "cannot repair torn tail of " + scan.truncate_path;
      return res;
    }
    obs::wal_metrics().replay_truncated_bytes.inc(res.stats.bytes_truncated);
  }
  obs::wal_metrics().replay_records.inc(res.stats.records_replayed);

  auto wal = WalOpenAccess::make(options);
  wal->env_ = &env;
  wal->next_seq_ = res.stats.next_seq;
  wal->written_seq_ = res.stats.next_seq - 1;
  wal->durable_seq_ = res.stats.next_seq - 1;
  for (const auto& s : scan.segments) {
    wal->segments_.push_back({s.path, s.first_seq});
  }

  // Resume appending into the last segment if it has room; otherwise
  // start a fresh one.
  bool opened = false;
  if (!scan.segments.empty() &&
      scan.segments.back().file_bytes < options.segment_bytes) {
    opened = wal->open_segment(scan.segments.back().first_seq,
                               /*resume=*/true,
                               scan.segments.back().file_bytes);
  }
  if (!opened) {
    opened = wal->open_segment(wal->next_seq_, /*resume=*/false, 0);
  }
  if (!opened) {
    res.error = "cannot open segment for append in " + options.dir;
    return res;
  }
  wal->start_flusher();
  res.wal = std::move(wal);
  return res;
}

Wal::~Wal() {
  {
    std::unique_lock lock(mu_);
    stopping_ = true;
    flush_cv_.notify_all();
  }
  if (flusher_.joinable()) flusher_.join();
  std::unique_lock lock(mu_);
  if (!failed_) sync_locked(lock, next_seq_ - 1);
  file_.reset();
}

void Wal::start_flusher() {
  if (options_.fsync != FsyncPolicy::kBatch) return;
  flusher_ = std::thread([this] {
    std::unique_lock lock(mu_);
    while (!stopping_) {
      flush_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.batch_flush_interval_ms));
      if (stopping_ || failed_) continue;
      if (durable_seq_ >= next_seq_ - 1 && pending_count_ == 0) continue;
      sync_locked(lock, next_seq_ - 1);
    }
  });
}

std::uint64_t Wal::append(std::span<const std::uint8_t> payload) {
  auto& m = obs::wal_metrics();
  // The commit-wait span separates "the WAL was slow" from "the index was
  // slow" inside a traced ingest: it covers framing, leader I/O or
  // follower wait, and the fsync the ack policy demands.
  obs::Span span = obs::tracer().span("wal.commit_wait");
  obs::ScopedTimer timer(m.append_ns, span.trace_id());
  if (payload.empty()) return 0;  // a zero-length frame reads as torn tail
  std::unique_lock lock(mu_);
  if (failed_) return 0;
  const std::uint64_t seq = next_seq_++;
  span.tag("seq", seq);
  if (pending_count_ == 0) pending_first_seq_ = seq;
  append_frame(pending_, payload);
  pending_last_seq_ = seq;
  ++pending_count_;
  m.appends.inc();

  const bool ack_on_fsync = options_.fsync == FsyncPolicy::kAlways;
  for (;;) {
    const std::uint64_t acked = ack_on_fsync ? durable_seq_ : written_seq_;
    if (acked >= seq) return seq;
    if (failed_) return 0;
    if (!writing_) {
      lead(lock, ack_on_fsync);
      continue;
    }
    cv_.wait(lock);
  }
}

void Wal::sync() {
  std::unique_lock lock(mu_);
  sync_locked(lock, next_seq_ - 1);
}

void Wal::sync_locked(std::unique_lock<std::mutex>& lock,
                      std::uint64_t target) {
  while (durable_seq_ < target && !failed_) {
    if (!writing_) {
      lead(lock, /*force_sync=*/true);
    } else {
      cv_.wait(lock);
    }
  }
}

std::uint64_t Wal::durable_seq() const {
  std::lock_guard lock(mu_);
  return durable_seq_;
}

std::uint64_t Wal::last_seq() const {
  std::lock_guard lock(mu_);
  const bool ack_on_fsync = options_.fsync == FsyncPolicy::kAlways;
  return ack_on_fsync ? durable_seq_ : written_seq_;
}

bool Wal::ok() const {
  std::lock_guard lock(mu_);
  return !failed_;
}

/// Group-commit leader: drain the pending buffer in whole-buffer batches,
/// then optionally fsync. Called with mu_ held and writing_ == false;
/// releases mu_ around file I/O (writing_ excludes other leaders and the
/// retirer while released).
void Wal::lead(std::unique_lock<std::mutex>& lock, bool force_sync) {
  auto& m = obs::wal_metrics();
  writing_ = true;
  while (pending_count_ > 0 && !failed_) {
    std::vector<std::uint8_t> batch;
    batch.swap(pending_);
    const std::uint64_t batch_first = pending_first_seq_;
    const std::uint64_t batch_last = pending_last_seq_;
    const std::uint64_t batch_count = pending_count_;
    pending_count_ = 0;
    lock.unlock();

    m.batch_records.observe(batch_count);
    m.batch_bytes.observe(batch.size());
    bool io_ok = true;
    // Rotate at batch boundaries so a batch never straddles segments and
    // every segment's first_seq is exact.
    if (segment_written_ > kSegHeaderBytes &&
        segment_written_ + batch.size() > options_.segment_bytes) {
      io_ok = rotate(batch_first);
    }
    if (io_ok) io_ok = write_all(batch);
    bool synced = false;
    if (io_ok) {
      bool due = false;
      switch (options_.fsync) {
        case FsyncPolicy::kAlways:
          due = true;
          break;
        case FsyncPolicy::kBatch:
          due = unsynced_bytes_ >= options_.batch_flush_bytes;
          break;
        case FsyncPolicy::kNone:
          // No durability promised: durable tracks written so sync()
          // and shutdown never spin.
          synced = true;
          break;
      }
      if (due) {
        io_ok = do_fsync();
        synced = io_ok;
      }
    }

    lock.lock();
    if (!io_ok) {
      // Fail-stop: the batch is NOT acked (written_seq_ stays put, so
      // every follower in it returns 0 from append), durable_seq_ never
      // advances again, and no later append or fsync is attempted — per
      // fsyncgate, a failed fsync means the dirty pages may already be
      // gone, so retrying could only ack lost data.
      failed_ = true;
      obs::store_fault_metrics().wal_failstops.inc();
      obs::journal_event(obs::JournalEvent::kWalFailstop);
    } else {
      written_seq_ = batch_last;
      if (synced) durable_seq_ = batch_last;
    }
    cv_.notify_all();
  }

  if (!failed_ && force_sync && durable_seq_ < written_seq_) {
    const std::uint64_t target = written_seq_;
    lock.unlock();
    const bool io_ok =
        options_.fsync == FsyncPolicy::kNone ? true : do_fsync();
    lock.lock();
    if (!io_ok) {
      failed_ = true;
      obs::store_fault_metrics().wal_failstops.inc();
      obs::journal_event(obs::JournalEvent::kWalFailstop);
    } else if (durable_seq_ < target) {
      durable_seq_ = target;
    }
  }
  writing_ = false;
  cv_.notify_all();
}

bool Wal::write_all(std::span<const std::uint8_t> bytes) {
  if (!file_ || !file_->write(bytes)) return false;
  segment_written_ += bytes.size();
  unsynced_bytes_ += bytes.size();
  obs::wal_metrics().bytes.inc(bytes.size());
  return true;
}

bool Wal::do_fsync() {
  auto& m = obs::wal_metrics();
  obs::ScopedTimer timer(m.fsync_ns);
  if (!file_ || !file_->sync()) return false;
  unsynced_bytes_ = 0;
  m.fsyncs.inc();
  return true;
}

bool Wal::rotate(std::uint64_t first_seq) {
  // Finish the old segment durably before the chain moves past it.
  if (options_.fsync != FsyncPolicy::kNone && !do_fsync()) return false;
  file_.reset();
  obs::wal_metrics().rotations.inc();
  obs::journal_event(obs::JournalEvent::kWalRotation, first_seq);
  return open_segment(first_seq, /*resume=*/false, 0);
}

bool Wal::open_segment(std::uint64_t first_seq, bool resume,
                       std::uint64_t size) {
  const std::string path = resume ? segments_.back().path
                                  : wal_segment_path(options_.dir, first_seq);
  auto file = env_->open(
      path, resume ? OpenMode::kResumeAppend : OpenMode::kCreateExclusive);
  if (!file) return false;
  file_ = std::move(file);
  if (resume) {
    segment_written_ = size;
    return true;
  }
  segment_written_ = 0;
  std::vector<std::uint8_t> header;
  header.insert(header.end(), kSegMagic, kSegMagic + 4);
  header.push_back(static_cast<std::uint8_t>(kSegVersion));
  header.push_back(static_cast<std::uint8_t>(kSegVersion >> 8));
  header.push_back(0);
  header.push_back(0);
  for (int i = 0; i < 8; ++i) {
    header.push_back(static_cast<std::uint8_t>(first_seq >> (8 * i)));
  }
  if (!write_all(header)) {
    file_.reset();
    return false;
  }
  // Make the new file name durable so a post-rotation crash still sees a
  // contiguous chain. A failed directory fsync fails the rotation — the
  // segment's name may not survive power loss, so records must not land
  // in it (the leader turns this into WAL fail-stop).
  if (!env_->sync_dir(options_.dir)) {
    file_.reset();
    return false;
  }
  segments_.push_back({path, first_seq});
  return true;
}

std::size_t Wal::retire_through(std::uint64_t seq) {
  std::unique_lock lock(mu_);
  while (writing_) cv_.wait(lock);
  writing_ = true;  // excludes leaders while we touch segments_ + the dir
  std::vector<std::string> victims;
  // segments_[0] is fully covered iff the next segment starts at or
  // before seq+1; the active (last) segment is never deleted.
  while (segments_.size() > 1 && segments_[1].first_seq <= seq + 1) {
    victims.push_back(segments_.front().path);
    segments_.erase(segments_.begin());
  }
  lock.unlock();
  bool dir_durable = true;
  for (const auto& path : victims) (void)env_->remove_file(path);
  if (!victims.empty()) dir_durable = env_->sync_dir(options_.dir);
  lock.lock();
  if (!dir_durable && !failed_) {
    // The removals may not be durable and the directory's durability is
    // now unknowable (fsyncgate) — poison the log rather than keep
    // promising durability on top of it. Recovery tolerates resurrected
    // pre-checkpoint segments, so the data itself is safe either way.
    failed_ = true;
    obs::store_fault_metrics().wal_failstops.inc();
    obs::journal_event(obs::JournalEvent::kWalFailstop);
  }
  writing_ = false;
  cv_.notify_all();
  obs::wal_metrics().segments_retired.inc(victims.size());
  if (!victims.empty()) {
    obs::journal_event(obs::JournalEvent::kWalRetirement, victims.size(),
                       seq);
  }
  return victims.size();
}

std::vector<std::string> Wal::segment_files() const {
  std::unique_lock lock(mu_);
  // A leader mutates segments_ with mu_ released (rotation), so wait for
  // writing_ to clear; holding mu_ afterwards blocks the next leader.
  while (writing_) cv_.wait(lock);
  std::vector<std::string> out;
  out.reserve(segments_.size());
  for (const auto& s : segments_) out.push_back(s.path);
  return out;
}

// --- record payload codec ---------------------------------------------------

std::vector<std::uint8_t> encode_upload_record(
    std::span<const core::RepresentativeFov> reps, std::uint64_t upload_id) {
  util::ByteWriter w;
  w.put_u8(kWalRecUpload);
  w.put_varint(upload_id);
  w.put_varint(reps.size());
  put_rep_records(w, reps);
  return w.take();
}

std::optional<UploadRecord> decode_upload_record(
    std::span<const std::uint8_t> payload) {
  util::ByteReader r(payload);
  const auto type = r.get_u8();
  const auto id = r.get_varint();
  const auto count = r.get_varint();
  if (type != kWalRecUpload || !id || !count || *count > r.remaining()) {
    return std::nullopt;
  }
  UploadRecord out;
  out.upload_id = *id;
  out.reps.reserve(*count);
  if (!get_rep_records(r, *count, out.reps) || !r.exhausted()) {
    return std::nullopt;
  }
  return out;
}

}  // namespace svg::store
