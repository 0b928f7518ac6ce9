#include "index/tiered_fov_index.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "index/rtree.hpp"

namespace svg::index {

namespace {

/// Fill one run column from the parts' rows, taken in turn: row id k
/// goes to position pos[k]. Reads every part sequentially and writes each
/// output value once, so one part costs what a plain gather would.
template <typename T>
void scatter(std::vector<T> FovColumns::*column,
             const std::vector<const FovColumns*>& parts,
             const std::vector<std::uint32_t>& pos, FovColumns& out) {
  std::vector<T>& dst = out.*column;
  dst.resize(pos.size());
  const std::uint32_t* to = pos.data();
  for (const FovColumns* part : parts) {
    for (const T& v : part->*column) dst[*to++] = v;
  }
}

using BlockEntry = ColumnarRun::BlockEntry;
using ChildRange = ColumnarRun::ChildRange;
/// Only the R-tree's STR sort and packer: build-time levels hold exact
/// double boxes, tiled and grouped as bulk_load would.
using BlockPacker = RTree<ChildRange, 3>;
using BuildLevel = std::vector<BlockPacker::Entry>;

static_assert(sizeof(BlockEntry) == 32, "a block entry is half a line");
static_assert(std::numeric_limits<float>::is_iec559,
              "outward rounding relies on IEEE casts and nextafter");

/// The block boxes' time axis: ms after the run's ts_min, subtracted in
/// double — exact for epoch-ms values, and monotone in `t` for the query
/// window and the rows alike.
double ms_after(core::TimestampMs t, core::TimestampMs base) {
  return static_cast<double>(t) - static_cast<double>(base);
}

/// A double → float cast rounds to nearest (±inf past the float range);
/// step one ulp when it landed on the wrong side, so the float bound never
/// cuts a row.
float round_down(double x) {
  const float f = static_cast<float>(x);
  return static_cast<double>(f) > x
             ? std::nextafter(f, -std::numeric_limits<float>::infinity())
             : f;
}
float round_up(double x) {
  const float f = static_cast<float>(x);
  return static_cast<double>(f) < x
             ? std::nextafter(f, std::numeric_limits<float>::infinity())
             : f;
}

std::vector<BlockEntry> to_floats(const BuildLevel& level) {
  std::vector<BlockEntry> out;
  out.reserve(level.size());
  for (const auto& e : level) {
    BlockEntry b;
    for (std::size_t d = 0; d < 3; ++d) {
      b.min[d] = round_down(e.box.min[d]);
      b.max[d] = round_up(e.box.max[d]);
    }
    b.children = e.value;
    out.push_back(b);
  }
  return out;
}

/// The box test in "not disjoint" form: a NaN bound never prunes.
bool overlaps(const BlockEntry& e, const std::array<float, 3>& lo,
              const std::array<float, 3>& hi) {
  return !(e.min[0] > hi[0]) & !(lo[0] > e.max[0]) & !(e.min[1] > hi[1]) &
         !(lo[1] > e.max[1]) & !(e.min[2] > hi[2]) & !(lo[2] > e.max[2]);
}

/// Throws unless `ranges` (any order) tile [0, size) with non-empty ranges.
void check_tiling(std::vector<ChildRange> ranges, std::size_t size) {
  std::sort(ranges.begin(), ranges.end(),
            [](ChildRange a, ChildRange b) { return a.begin < b.begin; });
  std::size_t next = 0;
  for (const ChildRange r : ranges) {
    if (r.begin != next || r.end <= r.begin) {
      throw std::logic_error("ColumnarRun: child ranges do not tile a level");
    }
    next = r.end;
  }
  if (next != size) {
    throw std::logic_error("ColumnarRun: child ranges do not tile a level");
  }
}

}  // namespace

std::shared_ptr<const ColumnarRun> ColumnarRun::build(
    const std::vector<const FovColumns*>& parts,
    const FovIndexOptions& options) {
  std::size_t n = 0;
  for (const FovColumns* part : parts) n += part->size();
  assert(n > 0);
  const double u = options.ms_to_units;
  const std::size_t cap = options.rtree.max_entries;

  // Row ids number the parts' rows in turn. Each row's STR keys are its
  // box's min + max per axis, the box being (lng, lat, ts * u) to
  // (lng, lat, te * u); track the run's time bound on the way.
  std::array<std::vector<double>, 3> keys;
  for (auto& k : keys) k.resize(n);
  core::TimestampMs ts_min = std::numeric_limits<core::TimestampMs>::max();
  core::TimestampMs ts_max = std::numeric_limits<core::TimestampMs>::min();
  {
    std::size_t id = 0;
    for (const FovColumns* part : parts) {
      const FovColumns& p = *part;
      for (std::size_t i = 0; i < p.size(); ++i, ++id) {
        keys[0][id] = p.lng[i] + p.lng[i];
        keys[1][id] = p.lat[i] + p.lat[i];
        keys[2][id] = static_cast<double>(p.ts[i]) * u +
                      static_cast<double>(p.te[i]) * u;
        ts_min = std::min(ts_min, p.ts[i]);
        ts_max = std::max(ts_max, p.te[i]);
      }
    }
  }

  // Materialize the columns in STR order, each in one pass over the parts
  // through the inverse permutation.
  std::vector<std::uint32_t> pos(n);
  {
    const std::vector<std::uint32_t> order =
        RTree<std::uint32_t, 3>::str_order(keys, cap);
    for (std::size_t k = 0; k < n; ++k) {
      pos[order[k]] = static_cast<std::uint32_t>(k);
    }
  }
  FovColumns cols;
  scatter(&FovColumns::lng, parts, pos, cols);
  scatter(&FovColumns::lat, parts, pos, cols);
  scatter(&FovColumns::theta, parts, pos, cols);
  scatter(&FovColumns::dir_east, parts, pos, cols);
  scatter(&FovColumns::dir_north, parts, pos, cols);
  scatter(&FovColumns::ts, parts, pos, cols);
  scatter(&FovColumns::te, parts, pos, cols);
  scatter(&FovColumns::video_id, parts, pos, cols);
  scatter(&FovColumns::segment_id, parts, pos, cols);

  // Level 0: consecutive rows grouped into the compact tiles bulk_load
  // would pack into leaves, each bounded exactly in (lng, lat, ms after
  // ts_min).
  BuildLevel level;
  {
    const auto counts = BlockPacker::pack_counts(n, cap);
    level.reserve(counts.size());
    std::uint32_t begin = 0;
    for (const std::size_t count : counts) {
      const auto end = static_cast<std::uint32_t>(begin + count);
      geo::Box3 bound;
      bound.min = {cols.lng[begin], cols.lat[begin],
                   ms_after(cols.ts[begin], ts_min)};
      bound.max = {cols.lng[begin], cols.lat[begin],
                   ms_after(cols.te[begin], ts_min)};
      for (std::uint32_t i = begin + 1; i < end; ++i) {
        bound.min[0] = std::min(bound.min[0], cols.lng[i]);
        bound.min[1] = std::min(bound.min[1], cols.lat[i]);
        bound.min[2] = std::min(bound.min[2], ms_after(cols.ts[i], ts_min));
        bound.max[0] = std::max(bound.max[0], cols.lng[i]);
        bound.max[1] = std::max(bound.max[1], cols.lat[i]);
        bound.max[2] = std::max(bound.max[2], ms_after(cols.te[i], ts_min));
      }
      level.push_back({bound, ChildRange{begin, end}});
      begin = end;
    }
  }
  // Each level above groups STR tiles of `cap` entries of the one below —
  // bulk_load's upper levels — until one level fits in a root's fanout.
  std::vector<std::vector<BlockEntry>> levels;
  for (;;) {
    BlockPacker::str_sort(level, cap);
    levels.push_back(to_floats(level));
    if (level.size() <= cap) break;
    const auto counts = BlockPacker::pack_counts(level.size(), cap);
    BuildLevel up;
    up.reserve(counts.size());
    std::uint32_t begin = 0;
    for (const std::size_t count : counts) {
      const auto end = static_cast<std::uint32_t>(begin + count);
      geo::Box3 bound = geo::Box3::empty();
      for (std::uint32_t i = begin; i < end; ++i) bound.expand(level[i].box);
      up.push_back({bound, ChildRange{begin, end}});
      begin = end;
    }
    level = std::move(up);
  }

  return std::shared_ptr<const ColumnarRun>(
      new ColumnarRun(std::move(cols), std::move(levels), ts_min, ts_max));
}

std::size_t ColumnarRun::collect(const GeoTimeRange& range,
                                 std::vector<std::uint32_t>& out) const {
  // The window in the boxes' axes, rounded to nearest. Rounding is
  // monotone, so a window bound at or inside a row's value stays at or
  // inside that row's block bound, which was rounded outward from it.
  const std::array<float, 3> lo{
      static_cast<float>(range.lng_min), static_cast<float>(range.lat_min),
      static_cast<float>(ms_after(range.t_start, ts_min_))};
  const std::array<float, 3> hi{
      static_cast<float>(range.lng_max), static_cast<float>(range.lat_max),
      static_cast<float>(ms_after(range.t_end, ts_min_))};
  // The frontier holds the child ranges still in play, one level at a
  // time; both buffers only grow, so a warm thread allocates nothing.
  static thread_local std::vector<ChildRange> frontier;
  static thread_local std::vector<ChildRange> next;
  if (frontier.empty()) frontier.resize(1);
  frontier[0] = {0, static_cast<std::uint32_t>(levels_.back().size())};
  std::size_t width = 1;
  for (std::size_t l = levels_.size(); l-- > 0;) {
    const BlockEntry* entries = levels_[l].data();
    std::size_t reach = 0;
    for (std::size_t f = 0; f < width; ++f) {
      reach += frontier[f].end - frontier[f].begin;
    }
    if (next.size() < reach) next.resize(reach);
    std::size_t w = 0;
    for (std::size_t f = 0; f < width; ++f) {
      for (std::uint32_t i = frontier[f].begin; i < frontier[f].end; ++i) {
        next[w] = entries[i].children;
        w += static_cast<std::size_t>(overlaps(entries[i], lo, hi));
      }
    }
    frontier.swap(next);
    width = w;
  }
  // Surviving blocks, in walk order; abutting ones share one scan.
  for (std::size_t f = 0; f < width;) {
    const std::uint32_t begin = frontier[f].begin;
    std::uint32_t end = frontier[f].end;
    while (++f < width && frontier[f].begin == end) end = frontier[f].end;
    scan_range(cols_, begin, end, range, out);
  }
  return width;
}

void ColumnarRun::check_invariants() const {
  if (levels_.empty() || levels_.back().empty()) {
    throw std::logic_error("ColumnarRun: empty block index");
  }
  const auto outside = [](double v, float lo, float hi) {
    return v < static_cast<double>(lo) || v > static_cast<double>(hi);
  };
  std::vector<ChildRange> ranges;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    ranges.clear();
    for (const BlockEntry& e : levels_[l]) {
      ranges.push_back(e.children);
      if (e.children.end > (l == 0 ? size() : levels_[l - 1].size())) {
        throw std::logic_error("ColumnarRun: child range out of bounds");
      }
      for (std::uint32_t i = e.children.begin; i < e.children.end; ++i) {
        bool escapes = false;
        if (l == 0) {
          escapes =
              outside(cols_.lng[i], e.min[0], e.max[0]) ||
              outside(cols_.lat[i], e.min[1], e.max[1]) ||
              ms_after(cols_.ts[i], ts_min_) < static_cast<double>(e.min[2]) ||
              ms_after(cols_.te[i], ts_min_) > static_cast<double>(e.max[2]);
        } else {
          const BlockEntry& c = levels_[l - 1][i];
          for (std::size_t d = 0; d < 3; ++d) {
            escapes = escapes || c.min[d] < e.min[d] || c.max[d] > e.max[d];
          }
        }
        if (escapes) {
          throw std::logic_error("ColumnarRun: block box misses a child");
        }
      }
    }
    check_tiling(ranges, l == 0 ? size() : levels_[l - 1].size());
  }
}

TieredFovIndex::TieredFovIndex(TieredFovIndexOptions options)
    : options_(options) {
  options_.memtable_capacity = std::max<std::size_t>(16, options_.memtable_capacity);
  options_.compact_fanin = std::max<std::size_t>(2, options_.compact_fanin);
  options_.index.rtree.validate();
  memtable_.reserve(options_.memtable_capacity);
  if (options_.compact_interval_ms > 0) {
    compactor_ = std::thread([this] { compactor_loop(); });
  }
}

TieredFovIndex::~TieredFovIndex() {
  if (compactor_.joinable()) {
    {
      std::lock_guard lock(cv_mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    compactor_.join();
  }
}

std::shared_ptr<const FovColumns> TieredFovIndex::seal_locked() {
  auto sealed = std::make_shared<FovColumns>(std::move(memtable_));
  memtable_ = FovColumns{};
  memtable_.reserve(options_.memtable_capacity);
  sealing_.push_back(sealed);
  return sealed;
}

void TieredFovIndex::build_and_publish(
    const std::shared_ptr<const FovColumns>& sealed) {
  auto& rm = obs::index_run_metrics();
  obs::Span span = obs::tracer().span("index.seal");
  span.tag("rows", sealed->size());
  obs::ScopedTimer timer(rm.seal_ns, span.trace_id());
  // The expensive part — STR order, column fill, block index — reads only
  // the immutable sealed buffer; no lock held.
  auto run = ColumnarRun::build({sealed.get()}, options_.index);
  std::size_t run_rows = 0;
  {
    std::unique_lock lock(mutex_);
    sealing_.erase(std::find(sealing_.begin(), sealing_.end(), sealed));
    runs_.push_back(run);
    ++seals_;
    for (const auto& r : runs_) run_rows += r->size();
    rm.count.set(static_cast<std::int64_t>(runs_.size()));
  }
  rm.seals.inc();
  rm.sealed_rows.inc(sealed->size());
  rm.rows.set(static_cast<std::int64_t>(run_rows));
}

void TieredFovIndex::insert(const core::RepresentativeFov& rep) {
  insert_batch({&rep, 1});
}

void TieredFovIndex::insert_batch(
    std::span<const core::RepresentativeFov> reps) {
  if (reps.empty()) return;
  auto& m = obs::index_metrics();
  obs::ScopedTimer timer(m.insert_ns);
  std::size_t done = 0;
  std::size_t memtable_rows = 0;
  while (done < reps.size()) {
    std::shared_ptr<const FovColumns> sealed;
    {
      std::unique_lock lock(mutex_);
      // Append up to the seal boundary under one lock hold, so a burst
      // costs one acquisition per memtable_capacity rows, not per row.
      while (done < reps.size() &&
             memtable_.size() < options_.memtable_capacity) {
        memtable_.push_back(reps[done++]);
        ++rows_;
      }
      if (memtable_.size() >= options_.memtable_capacity) {
        sealed = seal_locked();
      }
      memtable_rows = memtable_.size();
      m.size.set(static_cast<std::int64_t>(rows_));
    }
    if (sealed) build_and_publish(sealed);
  }
  m.inserts.inc(reps.size());
  obs::index_run_metrics().memtable_rows.set(
      static_cast<std::int64_t>(memtable_rows));
}

std::vector<core::RepresentativeFov> TieredFovIndex::query_collect(
    const GeoTimeRange& range) const {
  std::vector<core::RepresentativeFov> out;
  query(range,
        [&](const core::RepresentativeFov& rep) { out.push_back(rep); });
  return out;
}

std::size_t TieredFovIndex::size() const {
  std::shared_lock lock(mutex_);
  return rows_;
}

std::vector<core::RepresentativeFov> TieredFovIndex::snapshot() const {
  std::shared_lock lock(mutex_);
  std::vector<core::RepresentativeFov> out;
  out.reserve(rows_);
  const auto collect = [&](const FovColumns& cols) {
    for (std::size_t i = 0; i < cols.size(); ++i) out.push_back(cols.rep_at(i));
  };
  collect(memtable_);
  for (const auto& sealed : sealing_) collect(*sealed);
  for (const auto& run : runs_) collect(run->cols());
  return out;
}

std::size_t TieredFovIndex::compact_now(bool full) {
  std::lock_guard admin(compact_mu_);
  auto& cm = obs::index_compaction_metrics();
  auto& rm = obs::index_run_metrics();

  // Pick the inputs (smallest first) under the shared lock. Runs are
  // immutable and `inputs` keeps them alive, so the merge reads their
  // columns in place with no lock held.
  std::vector<std::shared_ptr<const ColumnarRun>> inputs;
  {
    std::shared_lock lock(mutex_);
    if (runs_.size() < 2) return 0;
    if (!full && runs_.size() < options_.compact_fanin) return 0;
    inputs = runs_;
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const auto& a, const auto& b) { return a->size() < b->size(); });
  if (!full && inputs.size() > options_.compact_fanin) {
    inputs.resize(options_.compact_fanin);
  }
  std::vector<const FovColumns*> parts;
  std::size_t input_rows = 0;
  for (const auto& run : inputs) {
    parts.push_back(&run->cols());
    input_rows += run->size();
  }

  obs::Span span = obs::tracer().span("index.compact");
  span.tag("input_runs", inputs.size());
  span.tag("input_rows", input_rows);
  obs::ScopedTimer timer(cm.compact_ns, span.trace_id());

  auto replacement = ColumnarRun::build(parts, options_.index);

  std::size_t run_rows = 0;
  {
    std::unique_lock lock(mutex_);
    // Only one compaction runs at a time (compact_mu_) and seals only
    // append, so the inputs are still present; drop them, keep list order
    // (oldest surviving first), append the merged run.
    std::erase_if(runs_, [&](const auto& r) {
      return std::find(inputs.begin(), inputs.end(), r) != inputs.end();
    });
    runs_.push_back(std::move(replacement));
    ++compactions_;
    for (const auto& r : runs_) run_rows += r->size();
    rm.count.set(static_cast<std::int64_t>(runs_.size()));
  }
  cm.compactions.inc();
  cm.input_runs.inc(inputs.size());
  cm.output_rows.inc(input_rows);
  rm.rows.set(static_cast<std::int64_t>(run_rows));
  return inputs.size();
}

bool TieredFovIndex::seal_now() {
  std::shared_ptr<const FovColumns> sealed;
  {
    std::unique_lock lock(mutex_);
    if (memtable_.empty()) return false;
    sealed = seal_locked();
  }
  obs::index_run_metrics().memtable_rows.set(0);
  build_and_publish(sealed);
  return true;
}

TieredStats TieredFovIndex::run_stats() const {
  std::shared_lock lock(mutex_);
  TieredStats s;
  s.memtable_rows = memtable_.size();
  for (const auto& sealed : sealing_) s.sealing_rows += sealed->size();
  s.seals = seals_;
  s.compactions = compactions_;
  s.runs.reserve(runs_.size());
  for (const auto& run : runs_) {
    s.runs.push_back({run->size(), run->ts_min(), run->ts_max()});
  }
  return s;
}

void TieredFovIndex::check_invariants() const {
  std::shared_lock lock(mutex_);
  std::size_t rows = memtable_.size();
  for (const auto& sealed : sealing_) rows += sealed->size();
  for (const auto& run : runs_) {
    rows += run->size();
    const FovColumns& cols = run->cols();
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (cols.ts[i] < run->ts_min() || cols.te[i] > run->ts_max()) {
        throw std::logic_error("TieredFovIndex: run time bound violated");
      }
    }
    run->check_invariants();
  }
  if (rows != rows_) {
    throw std::logic_error("TieredFovIndex: row accounting mismatch");
  }
}

void TieredFovIndex::compactor_loop() {
  std::unique_lock lock(cv_mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.compact_interval_ms),
                 [this] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    compact_now(false);
    lock.lock();
  }
}

}  // namespace svg::index
