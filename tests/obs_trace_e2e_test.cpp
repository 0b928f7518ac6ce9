// End-to-end acceptance tests for request tracing (docs/TRACING.md): real
// uploads pushed through a FaultyLink into a durable server must leave
// complete stored traces (link → server → WAL → index, properly nested); a
// slow query must land in the slow-request log with its per-stage spans;
// query-latency histogram exemplars must resolve to stored traces; and the
// Chrome trace_event export must be valid JSON with a complete event set.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/server.hpp"
#include "net/upload_queue.hpp"
#include "obs/families.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/env.hpp"

namespace {

using namespace svg;
using namespace svg::net;
using svg::core::RepresentativeFov;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_trace_e2e_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

UploadMessage make_upload(std::uint64_t video_id, std::size_t segments) {
  UploadMessage m;
  m.video_id = video_id;
  std::int64_t t = 1'400'000'000'000;
  for (std::size_t i = 0; i < segments; ++i) {
    RepresentativeFov rep;
    rep.video_id = video_id;
    rep.segment_id = static_cast<std::uint32_t>(i);
    rep.fov.p = {39.90 + 1e-4 * static_cast<double>(i),
                 116.40 + 1e-4 * static_cast<double>(video_id % 10)};
    rep.fov.theta_deg = 10.0 * static_cast<double>(i);
    rep.t_start = t;
    rep.t_end = t + 20'000;
    t += 20'000;
    m.segments.push_back(rep);
  }
  return m;
}

/// A whole-archive window centred on make_upload's cameras: every one of
/// them stands within R = 100 m of the centre, so all are candidates.
retrieval::Query wide_query() {
  retrieval::Query q;
  q.center = {39.9008, 116.40025};
  q.radius_m = 500.0;
  q.t_start = 0;
  q.t_end = 9'999'999'999'999;
  return q;
}

// --- a minimal JSON reader for the export schema check ----------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool parse_value(JsonValue& out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': out.kind = JsonValue::Kind::kString;
                return parse_string(out.str);
      case 't': out.kind = JsonValue::Kind::kBool;
                out.boolean = true;
                return literal("true");
      case 'f': out.kind = JsonValue::Kind::kBool;
                out.boolean = false;
                return literal("false");
      case 'n': out.kind = JsonValue::Kind::kNull;
                return literal("null");
      default: return parse_number(out);
    }
  }
  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      return consume('}');
    }
  }
  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      return consume(']');
    }
  }
  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            for (int i = 0; i < 4; ++i) {
              if (std::isxdigit(static_cast<unsigned char>(s_[pos_ + static_cast<std::size_t>(i)])) == 0) {
                return false;
              }
            }
            pos_ += 4;
            out.push_back('?');  // good enough for a schema check
            break;
          }
          default: return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;
  }
  bool parse_number(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    try {
      out.number = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

class TraceE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TracerConfig cfg;
    cfg.enabled = true;
    cfg.sample_every = 1;
    obs::tracer().configure(cfg);
    obs::Journal::global().clear();
    obs::global().reset();  // clear exemplars left by earlier tests
  }
  void TearDown() override {
    obs::tracer().configure({});  // back to disabled
  }
};

// Acceptance: every upload the queue delivered through the faulty link has
// a complete stored trace — link.up, server.upload, server.ingest,
// wal.append (+ commit wait), index.insert — with correct parent nesting.
TEST_F(TraceE2eTest, AckedUploadsStoreCompleteIngestTraces) {
  ScopedDir dir("ingest");
  ServerDurabilityConfig dcfg;
  dcfg.data_dir = dir.path;
  dcfg.fsync = store::FsyncPolicy::kAlways;
  CloudServer server({}, {}, dcfg);

  SimClock clock;
  FaultPlan plan;
  plan.seed = 5;
  plan.drop = 0.25;
  plan.duplicate = 0.10;
  Link link;
  FaultyLink faulty(link, plan, &clock);
  RetryPolicy policy;
  policy.max_attempts = 64;
  UploadQueue queue(policy, 5, &clock);

  constexpr std::size_t kUploads = 6;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kUploads; ++i) {
    ids.push_back(queue.enqueue(make_upload(100 + i, 4)));
  }
  ASSERT_TRUE(queue.drain(FaultyUploadChannel(faulty, server)));
  EXPECT_EQ(server.known_upload_ids(), kUploads);

  const auto traces = obs::tracer().ring().snapshot();
  ASSERT_GE(traces.size(), kUploads);
  std::set<std::uint64_t> ingested_ids;
  for (const auto& tp : traces) {
    const obs::Trace& tr = *tp;
    ASSERT_FALSE(tr.spans.empty());
    EXPECT_STREQ(tr.root().name, "upload.attempt");
    EXPECT_EQ(tr.root().parent_span_id, 0u);
    // Complete nesting: every non-root span's parent is in the trace.
    std::set<std::uint64_t> span_ids;
    for (const auto& s : tr.spans) span_ids.insert(s.span_id);
    for (const auto& s : tr.spans) {
      EXPECT_EQ(s.trace_id, tr.trace_id);
      if (s.span_id != tr.root().span_id) {
        EXPECT_TRUE(span_ids.count(s.parent_span_id))
            << "span " << s.name << " has a dangling parent";
      }
    }
    const obs::SpanRecord* wal = tr.find("wal.append");
    if (wal == nullptr) continue;  // dropped on the uplink, or a dedup
    // This attempt carried the actual ingest: the full chain must be
    // present and correctly parented.
    const obs::SpanRecord* up = tr.find("link.up");
    const obs::SpanRecord* upload = tr.find("server.upload");
    const obs::SpanRecord* ingest = tr.find("server.ingest");
    const obs::SpanRecord* claim = tr.find("server.dedup_claim");
    const obs::SpanRecord* insert = tr.find("index.insert");
    const obs::SpanRecord* commit = tr.find("wal.commit_wait");
    ASSERT_NE(up, nullptr);
    ASSERT_NE(upload, nullptr);
    ASSERT_NE(ingest, nullptr);
    ASSERT_NE(claim, nullptr);
    ASSERT_NE(insert, nullptr);
    ASSERT_NE(commit, nullptr);
    EXPECT_EQ(up->parent_span_id, tr.root().span_id);
    EXPECT_EQ(upload->parent_span_id, tr.root().span_id);
    EXPECT_EQ(ingest->parent_span_id, upload->span_id);
    EXPECT_EQ(claim->parent_span_id, ingest->span_id);
    EXPECT_EQ(wal->parent_span_id, ingest->span_id);
    EXPECT_EQ(insert->parent_span_id, ingest->span_id);
    EXPECT_EQ(commit->parent_span_id, wal->span_id);
    // The spans cover real time in the right order.
    EXPECT_LE(ingest->start_ns, wal->start_ns);
    EXPECT_LE(wal->end_ns, insert->end_ns);
    std::uint64_t uid = 0;
    ASSERT_TRUE(upload->tag("upload_id", uid));
    ingested_ids.insert(uid);
  }
  // Every acked upload's ingest was traced (the trace may belong to an
  // attempt whose ack was later lost — it still exists exactly once).
  for (const std::uint64_t id : ids) {
    EXPECT_TRUE(ingested_ids.count(id)) << "upload " << id << " untraced";
  }
}

// Acceptance: a query slower than the slow threshold appears in the
// slow-request log with its per-stage retrieval spans.
TEST_F(TraceE2eTest, SlowQueryLandsInSlowRequestLogWithStageSpans) {
  auto cfg = obs::tracer().config();
  cfg.slow_ns = 1'000;  // 1 us: any real query qualifies
  obs::tracer().configure(cfg);

  CloudServer server;
  for (std::uint64_t v = 1; v <= 4; ++v) {
    ASSERT_TRUE(server.ingest(make_upload(v, 16)));
  }
  const auto results = server.search(wide_query());
  (void)results;

  const auto slow = obs::tracer().slow_ring().snapshot();
  ASSERT_FALSE(slow.empty()) << "query missing from the slow-request log";
  const obs::Trace& tr = *slow.back();
  EXPECT_STREQ(tr.root().name, "server.query");
  EXPECT_GE(tr.root().duration_ns(), cfg.slow_ns);
  const obs::SpanRecord* pipeline = tr.find("retrieval.search");
  const obs::SpanRecord* range = tr.find("retrieval.range_search");
  const obs::SpanRecord* filter = tr.find("retrieval.filter");
  const obs::SpanRecord* rank = tr.find("retrieval.rank");
  const obs::SpanRecord* index = tr.find("index.query");
  ASSERT_NE(pipeline, nullptr);
  ASSERT_NE(range, nullptr);
  ASSERT_NE(filter, nullptr);
  ASSERT_NE(rank, nullptr);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(pipeline->parent_span_id, tr.root().span_id);
  EXPECT_EQ(range->parent_span_id, pipeline->span_id);
  EXPECT_EQ(filter->parent_span_id, pipeline->span_id);
  EXPECT_EQ(rank->parent_span_id, pipeline->span_id);
  EXPECT_EQ(index->parent_span_id, pipeline->span_id);
  // The stage spans carry the funnel counts as tags.
  std::uint64_t candidates = 0;
  EXPECT_TRUE(range->tag("candidates", candidates));
  EXPECT_GT(candidates, 0u);
}

// Acceptance: the exemplar trace_ids on the query-latency histogram
// resolve to stored traces.
TEST_F(TraceE2eTest, QueryLatencyExemplarResolvesToStoredTrace) {
  CloudServer server;
  ASSERT_TRUE(server.ingest(make_upload(1, 8)));
  for (int i = 0; i < 4; ++i) {
    (void)server.search(wide_query());
  }
  std::uint64_t exemplar_id = 0;
  for (const auto& e : obs::server_metrics().query_ns.exemplars()) {
    if (e.trace_id != 0) {
      exemplar_id = e.trace_id;
      break;
    }
  }
  ASSERT_NE(exemplar_id, 0u) << "no exemplar recorded on svg_server_query_ns";
  const auto stored = obs::tracer().find_trace(exemplar_id);
  ASSERT_FALSE(stored.empty()) << "exemplar points at an evicted trace";
  EXPECT_STREQ(stored[0]->root().name, "server.query");
}

// Acceptance: the Chrome trace_event export is valid JSON and carries one
// complete "X" event per stored span.
TEST_F(TraceE2eTest, ChromeExportIsValidJsonWithCompleteEvents) {
  CloudServer server;
  ASSERT_TRUE(server.ingest(make_upload(1, 8)));
  (void)server.search(wide_query());

  const auto traces = obs::tracer().ring().snapshot();
  ASSERT_FALSE(traces.empty());
  std::size_t total_spans = 0;
  for (const auto& t : traces) total_spans += t->spans.size();

  std::ostringstream os;
  obs::write_chrome_trace(os, traces);
  const std::string json = os.str();

  JsonValue doc;
  ASSERT_TRUE(JsonReader(json).parse(doc)) << json;
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* unit = doc.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ms");
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->array.size(), total_spans);
  for (const JsonValue& ev : events->array) {
    ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str, "X");
    const JsonValue* name = ev.find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(name->str.empty());
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      const JsonValue* field = ev.find(key);
      ASSERT_NE(field, nullptr) << key;
      EXPECT_EQ(field->kind, JsonValue::Kind::kNumber) << key;
      EXPECT_GE(field->number, 0.0) << key;
    }
    const JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_EQ(args->kind, JsonValue::Kind::kObject);
    const JsonValue* trace_id = args->find("trace_id");
    ASSERT_NE(trace_id, nullptr);
    EXPECT_EQ(trace_id->kind, JsonValue::Kind::kString);
    EXPECT_EQ(trace_id->str.rfind("0x", 0), 0u);
  }
}

// The journal side of the story: a WAL failure followed by recovery leaves
// the fail-stop → degraded → attempt → recovered sequence in order.
TEST_F(TraceE2eTest, JournalRecordsDegradeAndRecoverySequence) {
  ScopedDir dir("journal");
  store::FaultyEnv env{store::StoreFaultPlan{}};
  ServerDurabilityConfig dcfg;
  dcfg.data_dir = dir.path;
  dcfg.fsync = store::FsyncPolicy::kAlways;
  dcfg.env = &env;
  CloudServer server({}, {}, dcfg);

  store::StoreFaultPlan plan;
  plan.fsync_error = 1.0;
  plan.seed = 3;
  env.set_plan(plan);
  UploadMessage msg = make_upload(1, 4);
  msg.upload_id = 11;
  EXPECT_EQ(server.ingest_status(msg), IngestStatus::kRetryLater);
  EXPECT_EQ(server.health(), ServerHealth::kDegraded);

  env.set_plan({});
  EXPECT_TRUE(server.try_recover_storage());
  EXPECT_EQ(server.health(), ServerHealth::kOk);

  const auto tail = obs::Journal::global().tail();
  auto first_index = [&tail](obs::JournalEvent event) -> int {
    for (std::size_t i = 0; i < tail.size(); ++i) {
      if (tail[i].event == event) return static_cast<int>(i);
    }
    return -1;
  };
  const int failstop = first_index(obs::JournalEvent::kWalFailstop);
  const int degraded = first_index(obs::JournalEvent::kServerDegraded);
  const int attempt = first_index(obs::JournalEvent::kRecoveryAttempt);
  const int recovered = first_index(obs::JournalEvent::kServerRecovered);
  ASSERT_NE(failstop, -1);
  ASSERT_NE(degraded, -1);
  ASSERT_NE(attempt, -1);
  ASSERT_NE(recovered, -1);
  EXPECT_LT(failstop, degraded);
  EXPECT_LT(degraded, attempt);
  EXPECT_LT(attempt, recovered);
  // The injected fsync fault itself is journaled too.
  EXPECT_NE(first_index(obs::JournalEvent::kStorageFaultInjected), -1);
}

}  // namespace
