#pragma once
// Per-request distributed tracing for the capture→index→query pipeline.
// Where the metrics registry (obs/metrics.hpp) answers "how is the system
// doing in aggregate", this layer answers "what happened to THIS request":
// a 64-bit trace_id follows one upload or query through the link, the
// server boundary, the WAL append/fsync wait, the index and every
// retrieval stage, and the completed span tree is kept in a bounded ring
// for svgctl/export to inspect (docs/TRACING.md).
//
// Design constraints (this wraps the same hot paths the metrics do):
// * Span emission is allocation-free and lock-free: spans append to a
//   buffer owned by the emitting thread's active trace; the only shared
//   structure — the ring of completed traces — is touched once per
//   request, at root-span completion. The ring claims its slot with one
//   fetch_add and publishes under a per-slot micro-spinlock, so writers
//   never serialize behind each other except on slot collision.
// * An inactive tracer costs one thread-local pointer load per Span —
//   bench_obs_overhead gates the disabled and sampled configurations at
//   <1% / <5% over the metrics-only baseline.
// * Sampling is decided at root creation (head sampling) and propagates:
//   an adopted wire context is always recorded, because the upstream
//   sampler already paid for the decision.
// * Clock: the shared TSC-backed obs::now_ns() (obs/timer.hpp), so span
//   timings and latency histograms are directly comparable.
//
// Span names are static string literals ONLY — records store the pointer.
// Tag keys likewise; tag values are 64-bit integers (ids, counts, enum
// codes), never strings.

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/timer.hpp"

namespace svg::obs {

namespace detail {
struct ThreadTrace;  // per-thread active-trace collection state (trace.cpp)
}

/// The propagated identity of an in-flight request: which trace it belongs
/// to and which span is the caller. Carried in an upload's trace tags
/// (net/wire.hpp) so the server's spans attach to the client's tree even
/// across a real network hop.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
};

/// One completed span. POD — records are copied into the per-trace buffer
/// at span end and never mutated afterwards.
struct SpanRecord {
  struct Tag {
    const char* key = nullptr;  ///< static string literal
    std::uint64_t value = 0;
  };
  static constexpr std::size_t kMaxTags = 4;

  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  ///< 0 = a root with no upstream caller
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  const char* name = nullptr;  ///< static string literal
  std::uint32_t thread = 0;    ///< small per-process thread ordinal
  std::uint8_t tag_count = 0;
  std::array<Tag, kMaxTags> tags{};

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
  /// Value of the tag with this key, or nullopt-like 0-sentinel via found.
  [[nodiscard]] bool tag(const char* key, std::uint64_t& out) const noexcept;
};

/// A completed trace: every span recorded on the thread(s) that carried
/// the request, in completion order (children precede their parent; the
/// root is always the last span).
struct Trace {
  std::uint64_t trace_id = 0;
  bool truncated = false;  ///< span buffer hit max_spans; tail dropped
  std::vector<SpanRecord> spans;

  [[nodiscard]] const SpanRecord& root() const noexcept {
    return spans.back();
  }
  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return spans.empty() ? 0 : root().duration_ns();
  }
  /// First span (searching root-last order) with this name, or nullptr.
  [[nodiscard]] const SpanRecord* find(const char* name) const noexcept;
};

using TracePtr = std::shared_ptr<const Trace>;

/// Fixed-size overwrite-oldest ring of completed traces. push() claims a
/// slot with a single fetch_add (so concurrent completions never contend
/// on a global lock) and publishes the trace under that slot's one-word
/// spinlock; the critical section is two pointer moves. snapshot() returns
/// the live traces oldest-first.
class TraceRing {
 public:
  explicit TraceRing(std::size_t slots);

  /// Store `trace`, overwriting the oldest entry once full. Returns true
  /// when an older trace was evicted to make room.
  bool push(TracePtr trace);

  /// Point-in-time copy of the ring contents, oldest-first. Safe against
  /// concurrent push (slots are copied under their locks).
  [[nodiscard]] std::vector<TracePtr> snapshot() const;

  /// All stored traces with this trace_id (a request that crossed threads
  /// or processes reports one batch per reporting root).
  [[nodiscard]] std::vector<TracePtr> find(std::uint64_t trace_id) const;

  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }
  /// Traces pushed over the ring's lifetime (≥ live count).
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  void clear();

 private:
  struct Slot {
    /// 0 = unlocked; 1 = a writer or reader owns the slot.
    mutable std::atomic<std::uint32_t> lock{0};
    std::uint64_t ticket = 0;  ///< push ordinal, for oldest-first ordering
    TracePtr trace;
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
};

struct TracerConfig {
  bool enabled = false;
  /// Record 1 of every `sample_every` locally-started roots; 0 = record
  /// none (tracing armed but sampling off — the cheapest enabled state).
  /// Adopted wire contexts bypass this (upstream already sampled).
  std::uint32_t sample_every = 1;
  /// Traces whose root runs at least this long are also kept in the slow
  /// ring, which normal traffic never evicts (the slow-request log).
  std::uint64_t slow_ns = 50'000'000;  // 50 ms
  std::size_t ring_slots = 256;
  std::size_t slow_ring_slots = 64;
  /// Per-trace span cap; further spans are dropped and the trace marked
  /// truncated (a runaway fan-out must not allocate unboundedly).
  std::size_t max_spans = 256;
};

class Span;

class Tracer {
 public:
  Tracer();

  /// Swap the configuration and recreate both rings. NOT safe against
  /// concurrent span emission — configure before traffic (svgctl startup,
  /// test SetUp), not during.
  void configure(const TracerConfig& config);
  [[nodiscard]] const TracerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// True when the calling thread is inside a recorded trace — the "do I
  /// need to bother" check for instrumentation sites off the Span path.
  [[nodiscard]] bool active() const noexcept;
  /// trace_id of the calling thread's active trace (0 = none). This is
  /// what histogram exemplars record.
  [[nodiscard]] std::uint64_t current_trace_id() const noexcept;
  /// {trace_id, innermost open span} of the calling thread — the context
  /// to put on the wire for a downstream hop.
  [[nodiscard]] TraceContext current_context() const noexcept;

  /// Start a request root: begins a new sampled trace when the thread has
  /// none, or degrades to a plain child span when a trace is already open
  /// (an in-process caller is already tracing us). Inactive (no-op) when
  /// disabled or not sampled.
  [[nodiscard]] Span root_span(const char* name);
  /// Child of the thread's innermost open span; inactive no-op without an
  /// active trace. Never starts a trace.
  [[nodiscard]] Span span(const char* name);
  /// Server-side root for a request carrying a wire context: joins the
  /// thread's active trace if one is open (in-process call chain), else
  /// adopts ctx — same trace_id, root parented to the remote caller's
  /// span, sampling bypassed. Falls back to root_span semantics when ctx
  /// is invalid.
  [[nodiscard]] Span adopted_span(const char* name, TraceContext ctx);

  /// Record an already-timed region as a completed span of the active
  /// trace: fills ids (current parent, fresh span_id, thread), appends,
  /// and returns true. With no active trace, leaves `rec`'s ids zero and
  /// records nothing. For call sites that already hold start/end clock
  /// reads (RetrievalEngine's stages).
  bool emit(SpanRecord& rec);

  /// Completed-trace ring (all sampled traces, overwrite-oldest).
  [[nodiscard]] TraceRing& ring() noexcept { return *ring_; }
  [[nodiscard]] const TraceRing& ring() const noexcept { return *ring_; }
  /// Slow-request log: traces with root duration ≥ config().slow_ns.
  [[nodiscard]] TraceRing& slow_ring() noexcept { return *slow_ring_; }
  [[nodiscard]] const TraceRing& slow_ring() const noexcept {
    return *slow_ring_;
  }
  /// Every batch stored for `trace_id` across both rings, deduplicated.
  [[nodiscard]] std::vector<TracePtr> find_trace(std::uint64_t trace_id) const;

  /// Drop all stored traces (not the configuration).
  void clear();

  /// The process-wide tracer every built-in instrumentation site uses.
  static Tracer& global();

 private:
  friend class Span;

  /// Begin a trace on this thread (caller checked sampling); returns the
  /// collection state the root span finalizes.
  detail::ThreadTrace* begin_trace(std::uint64_t trace_id);
  void finish_root(detail::ThreadTrace* t);
  [[nodiscard]] bool sample_now() noexcept;

  TracerConfig config_;
  std::atomic<bool> enabled_{false};
  std::unique_ptr<TraceRing> ring_;
  std::unique_ptr<TraceRing> slow_ring_;
};

/// Shorthand for Tracer::global().
[[nodiscard]] inline Tracer& tracer() { return Tracer::global(); }

/// RAII span. Obtain from Tracer::root_span/span/adopted_span; an inactive
/// span (disabled tracer, unsampled, no active trace) is a no-op whose
/// only cost was the thread-local check that produced it. Move-only.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  ~Span() { end(); }

  [[nodiscard]] bool active() const noexcept { return tracer_ != nullptr; }
  [[nodiscard]] std::uint64_t trace_id() const noexcept {
    return rec_.trace_id;
  }
  [[nodiscard]] std::uint64_t span_id() const noexcept {
    return rec_.span_id;
  }
  /// {trace_id, this span} — what a downstream hop should be parented to.
  [[nodiscard]] TraceContext context() const noexcept {
    return {rec_.trace_id, rec_.span_id};
  }

  /// Attach a key=value tag (static-literal key). Beyond kMaxTags the tag
  /// is dropped silently. No-op on an inactive span.
  void tag(const char* key, std::uint64_t value) noexcept;

  /// Close the span now (idempotent; the destructor calls it).
  void end() noexcept;

 private:
  friend class Tracer;
  Span(Tracer* tracer, detail::ThreadTrace* trace, const char* name,
       std::uint64_t parent, bool is_root) noexcept;

  Tracer* tracer_ = nullptr;  ///< null = inactive
  detail::ThreadTrace* trace_ = nullptr;
  SpanRecord rec_{};
  bool is_root_ = false;
};

// --- export -----------------------------------------------------------------

/// Chrome trace_event JSON ("X" complete events): load the output in
/// chrome://tracing or https://ui.perfetto.dev. One event per span; args
/// carry the ids and tags. Valid standalone JSON object.
void write_chrome_trace(std::ostream& os,
                        const std::vector<TracePtr>& traces);

/// Human-readable span tree, indented by depth, one trace per block.
void write_trace_text(std::ostream& os, const Trace& trace);

}  // namespace svg::obs
