#include "polaris/obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "polaris/obs/clock.hpp"

namespace polaris::obs {
namespace {

/// Manually advanced clock for deterministic span timestamps.
class TestClock final : public ClockSource {
 public:
  std::int64_t now_ns() const override { return now_; }
  void set(std::int64_t ns) { now_ = ns; }

 private:
  std::int64_t now_ = 0;
};

// --------------------------------------------------- mini JSON validator
//
// Recursive-descent well-formedness check (structure only, no DOM).  Small
// on purpose: enough to prove write_json emits valid JSON without pulling
// in a parser dependency.

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const std::string& lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// One exported event line, extracted by string scanning (the exporter
/// writes one event per line with a fixed key order).
struct ExportedEvent {
  char ph = '?';
  int pid = -1;
  int tid = -1;
  double ts = -1.0;
  double dur = -1.0;
  std::string name;
};

double num_after(const std::string& line, const std::string& key) {
  const auto at = line.find(key);
  if (at == std::string::npos) return -1.0;
  return std::stod(line.substr(at + key.size()));
}

std::string str_after(const std::string& line, const std::string& key) {
  const auto at = line.find(key);
  if (at == std::string::npos) return {};
  const auto start = at + key.size();
  const auto end = line.find('"', start);
  return line.substr(start, end - start);
}

std::vector<ExportedEvent> parse_exported(const std::string& json) {
  std::vector<ExportedEvent> out;
  std::istringstream is(json);
  std::string line;
  while (std::getline(is, line)) {
    const auto ph = line.find("\"ph\":\"");
    if (ph == std::string::npos) continue;
    ExportedEvent ev;
    ev.ph = line[ph + 6];
    ev.pid = static_cast<int>(num_after(line, "\"pid\":"));
    ev.tid = static_cast<int>(num_after(line, "\"tid\":"));
    ev.ts = num_after(line, "\"ts\":");
    ev.dur = num_after(line, "\"dur\":");
    ev.name = str_after(line, "\"name\":\"");
    out.push_back(std::move(ev));
  }
  return out;
}

// ------------------------------------------------------------------ tests

TEST(Tracer, ScopedSpanRecordsClockedDuration) {
  TestClock clock;
  Tracer tracer(clock);
  const TrackId track = tracer.add_track("ranks", "rank 0");

  clock.set(100);
  {
    ScopedSpan span(&tracer, track, "work", "test");
    clock.set(250);
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start_ns, 100);
  EXPECT_EQ(events[0].dur_ns, 150);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].category, "test");
}

TEST(Tracer, NullTracerScopedSpanIsNoop) {
  ScopedSpan span(nullptr, 0, "ignored");
  span.end();  // idempotent, no crash
}

TEST(Tracer, OpenSpansClosedAtSnapshotTime) {
  TestClock clock;
  Tracer tracer(clock);
  const TrackId track = tracer.add_track("ranks", "rank 0");
  clock.set(10);
  const SpanId id = tracer.begin_span(track, "open");
  clock.set(70);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].dur_ns, 60);  // closed at snapshot, not in the log
  tracer.end_span(id);
  EXPECT_EQ(tracer.snapshot()[0].dur_ns, 60);
}

TEST(Tracer, ClocklessCompleteSpanAndInstantAt) {
  Tracer tracer;
  const TrackId track = tracer.add_track("sched", "jobs");
  tracer.complete_span(track, "job 1", "job", 1'000, 2'000);
  tracer.instant_at(track, "submit", "sched", 500);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].start_ns, 1'000);
  EXPECT_EQ(events[0].dur_ns, 2'000);
  EXPECT_EQ(events[1].kind, EventKind::kInstant);
  EXPECT_EQ(events[1].start_ns, 500);
}

TEST(Tracer, JsonIsWellFormed) {
  TestClock clock;
  Tracer tracer(clock);
  const TrackId t0 = tracer.add_track("ranks", "rank 0");
  const TrackId t1 = tracer.add_track("links", "link 0");
  // Names exercising every escape class.
  tracer.complete_span(t0, "quote \" backslash \\ newline \n tab \t", "c\x01t",
                       0, 50);
  tracer.instant_at(t1, "marker", "", 25);
  clock.set(40);
  tracer.counter(t0, "depth", 3.5);

  std::ostringstream os;
  tracer.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(Tracer, JsonSpansAreTimeOrderedPerTid) {
  Tracer tracer;
  const TrackId t0 = tracer.add_track("ranks", "rank 0");
  const TrackId t1 = tracer.add_track("ranks", "rank 1");
  // Recorded deliberately out of order.
  tracer.complete_span(t0, "b", "", 2'000, 500);
  tracer.complete_span(t1, "c", "", 100, 50);
  tracer.complete_span(t0, "a", "", 1'000, 500);

  std::ostringstream os;
  tracer.write_json(os);
  std::map<int, double> last_ts;
  for (const ExportedEvent& ev : parse_exported(os.str())) {
    if (ev.ph != 'X') continue;
    auto [it, inserted] = last_ts.emplace(ev.tid, ev.ts);
    if (!inserted) {
      EXPECT_LE(it->second, ev.ts) << "tid " << ev.tid;
      it->second = ev.ts;
    }
  }
  EXPECT_EQ(last_ts.size(), 2u);
}

TEST(Tracer, PartialOverlapsSplitIntoLanesNestingStays) {
  Tracer tracer;
  const TrackId track = tracer.add_track("ranks", "rank 0");
  tracer.complete_span(track, "outer", "", 0, 1'000);
  tracer.complete_span(track, "nested", "", 100, 200);    // nests in outer
  tracer.complete_span(track, "overlap", "", 500, 1'000); // partial overlap

  std::ostringstream os;
  tracer.write_json(os);
  std::map<std::string, int> tid_of;
  for (const ExportedEvent& ev : parse_exported(os.str())) {
    if (ev.ph == 'X') tid_of[ev.name] = ev.tid;
  }
  ASSERT_EQ(tid_of.size(), 3u);
  EXPECT_EQ(tid_of["outer"], tid_of["nested"]);
  EXPECT_NE(tid_of["outer"], tid_of["overlap"]);

  // Every tid's timeline must nest properly after lane assignment.
  std::map<int, std::vector<std::pair<double, double>>> by_tid;
  for (const ExportedEvent& ev : parse_exported(os.str())) {
    if (ev.ph == 'X') by_tid[ev.tid].push_back({ev.ts, ev.ts + ev.dur});
  }
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end());
    std::vector<double> open;
    for (const auto& [start, end] : spans) {
      while (!open.empty() && open.back() <= start) open.pop_back();
      if (!open.empty()) {
        EXPECT_LE(end, open.back()) << "partial overlap on tid " << tid;
      }
      open.push_back(end);
    }
  }
}

// Nested spans that share start and duration (wait_all around recv, send
// around eager:inject) close child-first, so a ring holds the child first;
// both capacity policies must still export the parent first.
void expect_tied_nesting_parent_first(Tracer& tracer, TestClock& clock) {
  const TrackId track = tracer.add_track("ranks", "rank 0");
  clock.set(100);
  {
    ScopedSpan outer(&tracer, track, "wait_all", "p2p");
    ScopedSpan inner(&tracer, track, "recv", "p2p");
    clock.set(300);
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "wait_all");
  EXPECT_EQ(events[1].name, "recv");

  std::ostringstream os;
  tracer.write_json(os);
  std::vector<ExportedEvent> spans;
  for (const ExportedEvent& ev : parse_exported(os.str())) {
    if (ev.ph == 'X') spans.push_back(ev);
  }
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "wait_all");
  EXPECT_EQ(spans[1].name, "recv");
  EXPECT_EQ(spans[0].tid, spans[1].tid);  // nested: one lane
}

TEST(Tracer, TiedNestedSpansExportParentFirst) {
  TestClock clock;
  Tracer tracer(clock);
  expect_tied_nesting_parent_first(tracer, clock);
}

TEST(Tracer, TiedNestedSpansExportParentFirstFromBoundedRings) {
  TestClock clock;
  Tracer tracer(clock, RingOptions{});
  expect_tied_nesting_parent_first(tracer, clock);
}

TEST(Tracer, ProcessesGroupTracksIntoPids) {
  Tracer tracer;
  const TrackId r0 = tracer.add_track("ranks", "rank 0");
  const TrackId l0 = tracer.add_track("links", "link 0");
  tracer.complete_span(r0, "a", "", 0, 10);
  tracer.complete_span(l0, "busy", "", 0, 10);

  std::ostringstream os;
  tracer.write_json(os);
  std::vector<int> pids;
  for (const ExportedEvent& ev : parse_exported(os.str())) {
    if (ev.ph == 'X') pids.push_back(ev.pid);
  }
  ASSERT_EQ(pids.size(), 2u);
  EXPECT_NE(pids[0], pids[1]);
}

}  // namespace
}  // namespace polaris::obs
