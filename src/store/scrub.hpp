#pragma once
// Scrub of data at rest (docs/ROBUSTNESS.md, "Scrubbing data at rest").
// The WAL frames and snapshot trailers carry CRC32C exactly so that bit
// rot is *detectable* — but until this layer existed they were only
// checked when the artifact was read back, i.e. during recovery, which is
// the worst possible moment to discover a cold segment rotted.
// scrub_directory() re-reads every artifact in a durability directory and
// verifies every checksum proactively:
//
// * WAL segments (wal-*.log): header magic/version/seq, then every
//   len|crc|payload frame. The FINAL segment tolerates a torn tail (a
//   truncated trailing frame is a legal crash artifact, exactly the rule
//   recovery applies) — but a COMPLETE frame whose CRC mismatches is
//   corruption even there. Any anomaly in a non-final segment is
//   corruption.
// * Snapshots (snapshot-*.svgx): full decode via the snapshot codec,
//   whose trailing CRC covers the whole file.
//
// Corrupt artifacts are quarantined: renamed to <name>.quarantine, which
// removes them from the recovery/replication listings (those match on the
// .log/.svgx suffix), journals kArtifactQuarantined and bumps
// svg_store_scrub_* metrics. The active (final) WAL segment is NEVER
// quarantined — the live appender owns it; its findings are report-only.
// Sealed tiered-index runs live in memory and are rebuilt from the WAL on
// restart, so scrubbing the WAL transitively covers them.
//
// A pass is one synchronous call on the caller's thread: Cluster::scrub_node
// runs it on a node's directory, svgctl scrub and bench_repair on any.

#include <cstdint>
#include <string>
#include <vector>

#include "store/env.hpp"

namespace svg::store {

struct ScrubOptions {
  Env* env = nullptr;       ///< null = Env::posix()
  bool quarantine = true;   ///< rename corrupt artifacts to *.quarantine
};

/// One corrupt artifact found by a scrub pass.
struct ScrubFinding {
  enum class Kind : std::uint8_t { kWalSegment = 0, kSnapshot = 1 };
  Kind kind = Kind::kWalSegment;
  std::string path;         ///< original artifact path
  std::uint64_t seq = 0;    ///< segment first_seq / snapshot seq (filename)
  std::string detail;       ///< human-readable cause
  bool quarantined = false; ///< renamed to path + ".quarantine"
};

struct ScrubReport {
  std::size_t wal_segments = 0;      ///< segments scanned
  std::size_t snapshots = 0;         ///< snapshot files scanned
  std::uint64_t frames_verified = 0; ///< WAL frames whose CRC checked clean
  std::uint64_t bytes_verified = 0;  ///< artifact bytes read and checked
  std::size_t torn_tail_segments = 0; ///< legal torn tails (final segment)
  std::vector<ScrubFinding> findings;
  [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// One synchronous scrub pass over every WAL segment and snapshot in
/// `dir`. Journals kScrubPass and (per corrupt artifact)
/// kArtifactQuarantined; bumps svg_store_scrub_*.
[[nodiscard]] ScrubReport scrub_directory(const std::string& dir,
                                          const ScrubOptions& opts = {});

}  // namespace svg::store
