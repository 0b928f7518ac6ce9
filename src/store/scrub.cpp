#include "store/scrub.hpp"

#include <cstdlib>
#include <filesystem>
#include <utility>

#include "obs/families.hpp"
#include "obs/journal.hpp"
#include "obs/timer.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace svg::store {

namespace {

struct Artifact {
  std::string path;
  std::uint64_t seq = 0;  ///< from the filename
};

/// snapshot-<16 hex>.svgx files, any order.
std::vector<Artifact> list_snapshots(const std::string& dir) {
  std::vector<Artifact> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) != 0 || name.size() != 30 ||
        name.substr(25) != ".svgx") {
      continue;
    }
    char* end = nullptr;
    const std::uint64_t seq = std::strtoull(name.c_str() + 9, &end, 16);
    if (end != name.c_str() + 25) continue;
    out.push_back({entry.path().string(), seq});
  }
  return out;
}

/// Quarantine one corrupt artifact: rename to <path>.quarantine so the
/// recovery/replication listings (which match on suffix) stop seeing it.
void quarantine(Env& env, ScrubFinding& f) {
  auto& m = obs::store_scrub_metrics();
  if (env.rename_file(f.path, f.path + ".quarantine")) {
    (void)env.sync_parent_dir(f.path);
    f.quarantined = true;
    m.quarantined.inc();
  }
}

}  // namespace

ScrubReport scrub_directory(const std::string& dir,
                            const ScrubOptions& opts) {
  auto& m = obs::store_scrub_metrics();
  Env& env = opts.env != nullptr ? *opts.env : Env::posix();
  const std::uint64_t t0 = obs::now_ns();
  ScrubReport report;

  const auto segments = wal_segment_files(dir);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const bool last = i + 1 == segments.size();
    ++report.wal_segments;
    m.segments_scanned.inc();
    const auto bytes = env.read_file(segments[i].path);
    if (!bytes) {
      // Unreadable at rest — report it, but never quarantine on an I/O
      // error (the file may be fine; only proven corruption moves it).
      report.findings.push_back({ScrubFinding::Kind::kWalSegment,
                                 segments[i].path, segments[i].first_seq,
                                 "unreadable", false});
      continue;
    }
    report.bytes_verified += bytes->size();
    m.bytes_verified.inc(bytes->size());

    std::string problem;
    bool torn = false;  // legal crash artifact, not corruption
    if (!wal_segment_header_ok(*bytes, segments[i].first_seq)) {
      // A torn header is only legal on the final segment (a rotation
      // that crashed mid-create); recovery drops the file wholesale.
      if (last) {
        torn = true;
      } else {
        problem = "bad segment header";
      }
    } else {
      const WalFrameWalk walk = walk_wal_frames(*bytes, nullptr);
      report.frames_verified += walk.frames;
      m.frames_verified.inc(walk.frames);
      // A COMPLETE frame with a bad CRC is bit rot even on the final
      // segment — a torn write cannot damage bytes it never covered. A
      // truncated or implausible frame is a torn tail on the final
      // segment, corruption anywhere else.
      if (walk.stop == WalStop::kBadCrc ||
          (walk.stop != WalStop::kClean && !last)) {
        problem = std::string(wal_stop_name(walk.stop)) + " at offset " +
                  std::to_string(walk.offset);
      } else if (walk.stop != WalStop::kClean) {
        torn = true;
      }
    }

    if (torn) {
      ++report.torn_tail_segments;
      continue;
    }
    if (problem.empty()) continue;

    m.corrupt_artifacts.inc();
    ScrubFinding f{ScrubFinding::Kind::kWalSegment, segments[i].path,
                   segments[i].first_seq, problem, false};
    // The final segment is the live appender's file: report only.
    if (opts.quarantine && !last) quarantine(env, f);
    if (f.quarantined) {
      obs::journal_event(obs::JournalEvent::kArtifactQuarantined, 0,
                         segments[i].first_seq, bytes->size());
    }
    report.findings.push_back(std::move(f));
  }

  for (const auto& snap : list_snapshots(dir)) {
    ++report.snapshots;
    m.snapshots_scanned.inc();
    const auto bytes = env.read_file(snap.path);
    if (!bytes) {
      report.findings.push_back({ScrubFinding::Kind::kSnapshot, snap.path,
                                 snap.seq, "unreadable", false});
      continue;
    }
    report.bytes_verified += bytes->size();
    m.bytes_verified.inc(bytes->size());
    if (decode_snapshot_full(*bytes)) continue;  // CRC + full parse clean

    m.corrupt_artifacts.inc();
    ScrubFinding f{ScrubFinding::Kind::kSnapshot, snap.path, snap.seq,
                   "snapshot decode/CRC failure", false};
    if (opts.quarantine) quarantine(env, f);
    if (f.quarantined) {
      obs::journal_event(obs::JournalEvent::kArtifactQuarantined, 1, snap.seq,
                         bytes->size());
    }
    report.findings.push_back(std::move(f));
  }

  m.passes.inc();
  m.pass_ns.observe(obs::now_ns() - t0);
  obs::journal_event(obs::JournalEvent::kScrubPass,
                     report.wal_segments + report.snapshots,
                     report.findings.size(), report.bytes_verified);
  return report;
}

}  // namespace svg::store
