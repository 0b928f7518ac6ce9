#pragma once
// TieredFovIndex: LSM-style tiering of the FoV index (ROADMAP items 2+3).
// Fresh representatives land in a small mutable columnar memtable; when it
// reaches `memtable_capacity` rows it seals into an immutable ColumnarRun —
// rows in the RTree's STR leaf order, stored as structure-of-arrays
// columns (columnar.hpp), indexed by a flat block index: one packed array
// of 32-byte float boxes per level over row *blocks*, so the leaf-level
// range filter is a tight branch-minimal scan over contiguous columns
// instead of a pointer-chasing node walk. A background compactor
// (Checkpointer cadence) merges small runs into larger ones.
//
// Every run is built once, straight from its source columns: a seal's
// sealed memtable, or a compaction's input runs read in place. The build
// orders a 4-byte row-id permutation (RTree::str_order) and fills each
// output column in one pass through it; no row is copied before that.
//
// The index is insert-only, like the paper's server, which only adds FoVs:
// a row sits in exactly one tier (memtable, sealing buffer or run) from its
// insert on, and a merge moves it without ever dropping it. Retention, if
// it is ever wanted, would drop whole runs, never single rows.
//
// Because FoV timestamps are near-monotone (uploads arrive roughly in
// capture order), each run carries its [ts_min, ts_max]: a query with a
// tight time window skips whole runs before touching a single node.
//
// Determinism: sealing is purely size-triggered (no wall clock), so WAL
// replay — the same inserts in the same order — rebuilds byte-identical
// run contents; durability needs no new on-disk format. Compaction timing
// is wall-clock and therefore only changes run *boundaries*, never the
// indexed set; disable the background compactor (compact_interval_ms = 0)
// where boundary determinism matters and drive compact_now() manually.
//
// CloudServer's only index. Satisfies the index concept RetrievalEngine
// templates over: insert / insert_batch / size / snapshot /
// query(GeoTimeRange, visitor), plus query(GeoTimeRange, SightTest,
// visitor), which runs the engine's orientation test on the columns so
// only surviving rows materialize. Feeds the svg_index_* family plus
// svg_index_run_* (seal/run lifecycle) and svg_index_compaction_*.
//
// Concurrency: one shared_mutex guards the mutable state (memtable,
// sealing buffers, run list). Writers hold it exclusively only for the O(1)
// column append or the O(runs) list swap, and a compaction holds it shared
// only to copy the run list; the expensive work — STR order, column fill,
// block-index build — reads sealed immutable buffers and runs outside any
// lock, so ingest never stalls behind a seal or a compaction and queries
// never stall behind ingest for longer than an append.

#include <array>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/fov.hpp"
#include "index/columnar.hpp"
#include "index/fov_index.hpp"
#include "obs/families.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"

namespace svg::index {

struct TieredFovIndexOptions {
  /// Rows the memtable holds before sealing into an immutable run
  /// (clamped to >= 16). Smaller = fresher runs + more merge work;
  /// larger = longer linear memtable scans.
  std::size_t memtable_capacity = 4096;
  /// Background compaction merges the smallest `compact_fanin` runs
  /// whenever at least that many exist (clamped to >= 2).
  std::size_t compact_fanin = 4;
  /// Background compactor period; 0 = no thread, compact_now() only.
  /// CloudServer defaults this to the Checkpointer's cadence.
  std::uint32_t compact_interval_ms = 0;
  /// R-tree packing (node capacity = columnar block size and block-index
  /// fanout) and the time-axis scaling of the STR row order, shared with
  /// every other backend.
  FovIndexOptions index{};
};

/// Introspection snapshot of one sealed run (svgctl compact, tests).
struct RunStats {
  std::size_t rows = 0;
  core::TimestampMs ts_min = 0;
  core::TimestampMs ts_max = 0;
};

/// Introspection snapshot of the whole tier structure.
struct TieredStats {
  std::size_t memtable_rows = 0;
  std::size_t sealing_rows = 0;  ///< sealed, run build still in flight
  std::uint64_t seals = 0;
  std::uint64_t compactions = 0;
  std::vector<RunStats> runs;    ///< in run-list order (oldest first)
};

/// An immutable sealed run: SoA columns in STR leaf order plus a flat block
/// index over [begin, end) row blocks. A block's box bounds its rows, so
/// the walk prunes in box space and the per-block scan re-checks rows
/// exactly (scan_range).
class ColumnarRun {
 public:
  /// A half-open range of entries in the level below (row ids at level 0).
  struct ChildRange {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// One block-index entry: a (lng, lat, time) box of floats — minimums
  /// rounded down, maximums up, time in ms relative to ts_min() — over the
  /// entries it covers in the level below.
  struct BlockEntry {
    std::array<float, 3> min{};
    std::array<float, 3> max{};
    ChildRange children;
  };

  /// Build a run from the rows of `parts`, taken in turn (any order): STR
  /// order them, fill each column once, build the block index. A seal
  /// passes its sealed buffer; a compaction passes its input runs'
  /// columns, smallest run first, and they are read in place. The parts
  /// must hold at least one row between them. The run equals one built
  /// from the parts' concatenation.
  static std::shared_ptr<const ColumnarRun> build(
      const std::vector<const FovColumns*>& parts,
      const FovIndexOptions& options);

  [[nodiscard]] const FovColumns& cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return cols_.size(); }
  [[nodiscard]] core::TimestampMs ts_min() const noexcept { return ts_min_; }
  [[nodiscard]] core::TimestampMs ts_max() const noexcept { return ts_max_; }
  /// The block index, one level per vector, level 0 (row blocks) first.
  [[nodiscard]] const std::vector<std::vector<BlockEntry>>& levels()
      const noexcept {
    return levels_;
  }

  /// Append matching row ids to `out` (exact filter). Walks the block
  /// index top-down a level at a time, then scan_range's the surviving
  /// blocks. Returns the number of blocks scanned.
  std::size_t collect(const GeoTimeRange& range,
                      std::vector<std::uint32_t>& out) const;

  /// Every level-0 box contains its rows, every upper box its children,
  /// and each level's child ranges tile the level below exactly. Throws
  /// std::logic_error on violation.
  void check_invariants() const;

 private:
  ColumnarRun(FovColumns cols, std::vector<std::vector<BlockEntry>> levels,
              core::TimestampMs ts_min, core::TimestampMs ts_max)
      : cols_(std::move(cols)),
        levels_(std::move(levels)),
        ts_min_(ts_min),
        ts_max_(ts_max) {}

  FovColumns cols_;
  /// levels_[0] holds one entry per row block; each level above groups the
  /// one below; the top level has at most max_entries entries.
  std::vector<std::vector<BlockEntry>> levels_;
  core::TimestampMs ts_min_;
  core::TimestampMs ts_max_;
};

class TieredFovIndex {
 public:
  explicit TieredFovIndex(TieredFovIndexOptions options = {});
  ~TieredFovIndex();

  TieredFovIndex(const TieredFovIndex&) = delete;
  TieredFovIndex& operator=(const TieredFovIndex&) = delete;

  [[nodiscard]] const TieredFovIndexOptions& options() const noexcept {
    return options_;
  }

  /// Insert one representative FoV: a batch of one.
  void insert(const core::RepresentativeFov& rep);

  /// Insert an upload burst under one lock acquisition per seal interval.
  /// Appends are O(1); at the seal threshold the inserting thread also
  /// packs the sealed buffer into a run outside the lock.
  void insert_batch(std::span<const core::RepresentativeFov> reps);

  /// Visit every FoV intersecting the range: linear columnar scan of
  /// the memtable (and any in-flight sealed buffers), then each run whose
  /// [ts_min, ts_max] overlaps the window — block-index walk + per-block
  /// columnar scan_range. The visitor inlines; no type erasure.
  template <typename F>
  void query(const GeoTimeRange& range, F&& visit) const {
    (void)walk(range, [&](const FovColumns& cols, std::uint32_t r) {
      visit(cols.rep_at(r));
    });
  }

  /// The same walk narrowed to the cameras that see `test`'s target: the
  /// orientation test (geo::sight) runs on the position and heading
  /// columns of each in-range row, and only survivors materialize —
  /// visit(rep, distance_m). Returns the number of in-range rows (the
  /// retrieval funnel's `candidates`).
  template <typename F>
  std::size_t query(const GeoTimeRange& range, const geo::SightTest& test,
                    F&& visit) const {
    return walk(range, [&](const FovColumns& cols, std::uint32_t r) {
      const geo::Sight s = cols.sight_at(r, test);
      if (s.seen) visit(cols.rep_at(r), s.distance_m);
    });
  }

  /// Convenience: collect matches (instrumented via query()).
  [[nodiscard]] std::vector<core::RepresentativeFov> query_collect(
      const GeoTimeRange& range) const;

  /// Rows across all tiers: every FoV inserted so far.
  [[nodiscard]] std::size_t size() const;

  /// Point-in-time copy of every FoV. Order is memtable insertion
  /// order followed by runs in STR order — treat the result as a set.
  [[nodiscard]] std::vector<core::RepresentativeFov> snapshot() const;

  /// One compaction round: merge the smallest `compact_fanin` runs (all
  /// runs when `full`) into one. The lock is held shared only to pick the
  /// inputs; the merge reads their immutable columns in place with no lock
  /// held, inside the `index.compact` span and compaction timer, and only
  /// the run-list swap is exclusive. Returns the number of input runs
  /// merged (0 = nothing to do).
  std::size_t compact_now(bool full = false);

  /// Seal the current memtable into a run even if below capacity (svgctl
  /// compact, tests). No-op on an empty memtable; returns true if sealed.
  bool seal_now();

  /// Structure introspection (row counts + [ts_min, ts_max] per run).
  [[nodiscard]] TieredStats run_stats() const;

  /// Cross-tier accounting, per-run time bounds and block indexes.
  void check_invariants() const;

 private:
  [[nodiscard]] static std::vector<std::uint32_t>& scratch() {
    static thread_local std::vector<std::uint32_t> buf;
    return buf;
  }

  /// The one row walk behind both queries: hands emit(cols, row) every
  /// row intersecting the range, tier by tier, under the shared lock,
  /// inside the `index.query` span and timer. The span carries the work:
  /// `runs` in the list, `memtable_rows` scanned linearly (memtable plus
  /// sealing buffers) and run `blocks` scanned. Returns the rows emitted.
  template <typename Emit>
  std::size_t walk(const GeoTimeRange& range, Emit&& emit) const {
    auto& m = obs::index_metrics();
    auto& rm = obs::index_run_metrics();
    obs::Span span = obs::tracer().span("index.query");
    obs::ScopedTimer timer(m.query_ns, span.trace_id());
    m.queries.inc();
    std::vector<std::uint32_t>& rows = scratch();
    std::size_t hits = 0;
    std::size_t memtable_rows = 0;
    std::size_t blocks = 0;

    std::shared_lock lock(mutex_);
    span.tag("runs", runs_.size());
    const auto emit_all = [&](const FovColumns& cols) {
      for (const std::uint32_t r : rows) emit(cols, r);
      hits += rows.size();
    };
    // The memtable and in-flight sealed buffers: a linear scan each.
    const auto scan_all = [&](const FovColumns& cols) {
      rows.clear();
      memtable_rows += cols.size();
      scan_range(cols, 0, static_cast<std::uint32_t>(cols.size()), range,
                 rows);
      emit_all(cols);
    };
    scan_all(memtable_);
    for (const auto& sealed : sealing_) scan_all(*sealed);
    for (const auto& run : runs_) {
      if (run->ts_max() < range.t_start || run->ts_min() > range.t_end) {
        rm.time_pruned.inc();
        continue;
      }
      rm.scans.inc();
      rows.clear();
      blocks += run->collect(range, rows);
      emit_all(run->cols());
    }
    span.tag("memtable_rows", memtable_rows);
    span.tag("blocks", blocks);
    return hits;
  }

  /// Move the memtable into sealing_ (still queryable) and hand it back
  /// for packing. Under an already-held exclusive lock.
  std::shared_ptr<const FovColumns> seal_locked();
  /// Pack a sealed buffer into a run (outside any lock) and publish it.
  void build_and_publish(const std::shared_ptr<const FovColumns>& sealed);
  void compactor_loop();

  TieredFovIndexOptions options_;

  mutable std::shared_mutex mutex_;
  FovColumns memtable_;
  /// Sealed buffers whose run build is in flight: immutable, still
  /// visible to queries via linear scan until the run replaces them.
  std::vector<std::shared_ptr<const FovColumns>> sealing_;
  std::vector<std::shared_ptr<const ColumnarRun>> runs_;
  /// Rows across the memtable, sealing buffers and runs: one per insert.
  std::size_t rows_ = 0;
  std::uint64_t seals_ = 0;
  std::uint64_t compactions_ = 0;

  /// Serializes compaction rounds (manual + background).
  std::mutex compact_mu_;

  std::mutex cv_mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread compactor_;
};

}  // namespace svg::index
