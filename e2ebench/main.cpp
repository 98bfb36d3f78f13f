// polaris_e2e: runs one canonical workload through the simulator stack and
// prints its end-to-end metrics (untraced) or its per-layer ledger
// (traced) as the last line of standard output.
//
//   polaris_e2e --workload simrt_cg --seed 1 --seconds 30 --trace 0
//               [--size full|tiny] [--out-dir DIR]
//               [--git-sha SHA] [--source-digest HEX]
//
// Untraced: repeats whole rounds (set-up, timed phase, extraction) for
// --seconds, at least ten times, and reports the best round (the median
// round for a threaded workload) and the median set-up.  Traced:
// alternates eight untraced and eight traced rounds, writes a Chrome trace
// and a flat metric list to --out-dir, and reports every per-layer metric.
// Every round checks the simulated outputs, and every round of one
// invocation must print the same simulated fingerprint.
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "e2e.hpp"
#include "polaris/obs/clock.hpp"

namespace {

using e2e::Clock;
using e2e::Round;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = "e2e-out";
  std::string git_sha = "unavailable";
  std::string source_digest = "unavailable";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "polaris_e2e: %s\nusage: polaris_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--out-dir DIR] "
               "[--git-sha SHA] [--source-digest HEX]\nworkloads:",
               why);
  for (const e2e::Workload& w : e2e::workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      o.trace = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") usage("--size is full or tiny");
      o.tiny = v == "tiny";
    } else if (flag == "--out-dir") {
      o.out_dir = v;
    } else if (flag == "--git-sha") {
      o.git_sha = v;
    } else if (flag == "--source-digest") {
      o.source_digest = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

// -- output helpers ----------------------------------------------------------

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -- host provenance and noise probe -----------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string provenance(const Options& o) {
  std::ostringstream os;
  os << "{\"workload\": " << quote(o.workload) << ", \"seed\": " << o.seed
     << ", \"size\": " << quote(o.tiny ? "tiny" : "full")
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << quote(cpu_model())
     << ", \"compiler\": " << quote(E2E_COMPILER)
     << ", \"compiler_version\": " << quote(__VERSION__)
     << ", \"build_type\": " << quote(E2E_BUILD_TYPE)
     << ", \"cxx_flags\": " << quote(E2E_CXX_FLAGS)
     << ", \"git_sha\": " << quote(o.git_sha)
     << ", \"source_digest\": " << quote(o.source_digest)
     << ", \"pdes_workers\": " << e2e::kPdesWorkers
     << ", \"pdes_shards\": " << e2e::kPdesShards << "}";
  return os.str();
}

/// Probe input and output, volatile so the loop can be neither folded nor
/// dropped.
volatile std::uint64_t probe_seed = 0x9E3779B97F4A7C15ull;
volatile std::uint64_t probe_sink = 0;

/// Fixed-work CPU loop: a slow host shows here, a slow program does not.
double host_probe() {
  std::uint64_t x = probe_seed;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double s = e2e::seconds_since(t0);
  probe_sink = x;
  return s;
}

/// Peak resident memory of this process alone.  VmHWM belongs to the
/// process image; ru_maxrss would also carry the launching process's peak
/// across exec, so it is only the fallback.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -- rounds ------------------------------------------------------------------

struct Timed {
  Round round;
  double wall_s = 0.0;  ///< the whole round, teardown included
};

Timed timed_round(const e2e::Workload& w, const e2e::Context& ctx) {
  Timed t;
  t.wall_s = ctx.timeline.time("e2ebench", "round",
                               [&] { t.round = w.run(ctx); });
  return t;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

std::string fingerprint_json(const Options& o, const Round& r) {
  std::string flat;
  std::string values;
  for (const auto& [name, value] : r.fingerprint) {
    flat += name + "=" + value + ";";
    values += (values.empty() ? "" : ", ") + quote(name) + ": " + quote(value);
  }
  char hash[24];
  std::snprintf(hash, sizeof hash, "0x%016" PRIx64, fnv1a(flat));
  return "{\"workload\": " + quote(o.workload) +
         ", \"seed\": " + std::to_string(o.seed) + ", \"hash\": " +
         quote(hash) + ", \"values\": {" + values + "}}";
}

/// Checks and totals over every round of one invocation.
struct Verdict {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Verdict judge(const std::vector<Timed>& rounds) {
  Verdict v;
  for (const Timed& t : rounds) {
    v.attempted += t.round.attempted;
    v.failed += t.round.failed;
    for (const std::string& f : t.round.failures) {
      std::fprintf(stderr, "check failed: %s\n", f.c_str());
      v.correct = false;
    }
    if (t.round.fingerprint != rounds.front().round.fingerprint) {
      std::fprintf(stderr,
                   "check failed: fingerprint differs between rounds\n");
      v.correct = false;
      ++v.failed;
    }
  }
  return v;
}

void print_result(const Verdict& v,
                  const std::vector<std::tuple<std::string, double,
                                               std::string>>& metrics) {
  std::string m;
  for (const auto& [name, value, unit] : metrics) {
    m += (m.empty() ? "" : ", ") + quote(name) + ": {\"value\": " + num(value) +
         ", \"unit\": " + quote(unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              v.correct ? "true" : "false", v.attempted, v.failed, m.c_str());
}

int run_untraced(const Options& o, const e2e::Workload& w,
                 const e2e::Sizes& sizes, double probe_s) {
  constexpr std::size_t kMinRounds = 10;
  e2e::Timeline timeline;
  const e2e::Context ctx{sizes, o.seed, timeline, nullptr};
  std::vector<Timed> rounds;
  double walls = 0.0;
  const Clock::time_point t0 = Clock::now();
  // Another round starts only if a mean round still fits in --seconds.
  while (rounds.size() < kMinRounds ||
         e2e::seconds_since(t0) +
                 walls / static_cast<double>(rounds.size()) <=
             o.seconds) {
    rounds.push_back(timed_round(w, ctx));
    walls += rounds.back().wall_s;
  }
  std::vector<double> rate, wall, setup;
  for (const Timed& t : rounds) {
    rate.push_back(t.round.units / t.round.run_s);
    wall.push_back(t.wall_s);
    setup.push_back(t.round.setup_s);
    std::fprintf(stderr, "round setup_s=%.6f run_s=%.6f extract_s=%.6f "
                 "wall_s=%.6f units=%.0f\n",
                 t.round.setup_s, t.round.run_s, t.round.extract_s, t.wall_s,
                 t.round.units);
  }
  const Verdict v = judge(rounds);
  std::printf("fingerprint %s\n",
              fingerprint_json(o, rounds.front().round).c_str());
  std::printf("diagnostics {\"host.probe_s\": %s, \"rounds\": %zu, "
              "\"median_work_per_s\": %s, \"median_wall_s\": %s, "
              "\"best_wall_s\": %s}\n",
              num(probe_s).c_str(), rounds.size(), num(median(rate)).c_str(),
              num(median(wall)).c_str(),
              num(*std::min_element(wall.begin(), wall.end())).c_str());
  const double ok_frac =
      v.attempted ? 1.0 - static_cast<double>(v.failed) /
                              static_cast<double>(v.attempted)
                  : 0.0;
  // Every round does identical deterministic work.  Interference from the
  // host only ever adds time to a single-threaded round, so the best round
  // estimates the program's own cost, and it moves far less than the
  // median round while the host slows for seconds at a time.  A threaded
  // round is fast only when every CPU it runs on is quiet at once, which
  // many runs never see, so its median round is steadier.  A set-up is
  // too short for its best to be steady: its median is reported
  // (README.md, "Noise").
  const bool best = !w.threaded;
  print_result(v, {{"work_per_s",
                    best ? *std::max_element(rate.begin(), rate.end())
                         : median(rate),
                    "1/s"},
                   {"wall_s",
                    best ? *std::min_element(wall.begin(), wall.end())
                         : median(wall),
                    "s"},
                   {"setup_s", median(setup), "s"},
                   {"peak_rss_mib", peak_rss_mib(), "MiB"},
                   {"ok_frac", ok_frac, "1"}});
  return 0;
}

int run_traced(const Options& o, const e2e::Workload& w,
               const e2e::Sizes& sizes, double probe_s) {
  polaris::obs::WallClock clock;
  polaris::obs::Tracer tracer(clock);
  e2e::Timeline untraced;
  e2e::Timeline traced(&tracer);
  std::unique_ptr<polaris::obs::MetricsRegistry> registry;
  // Untraced and traced rounds alternate so slow host drift hits both.
  std::vector<Timed> rounds;
  std::vector<double> plain_run, traced_run;
  for (int i = 0; i < 16; ++i) {
    const bool on = i % 2 == 1;
    if (on) registry = std::make_unique<polaris::obs::MetricsRegistry>();
    const e2e::Context ctx{sizes, o.seed, on ? traced : untraced,
                           on ? registry.get() : nullptr};
    rounds.push_back(timed_round(w, ctx));
    (on ? traced_run : plain_run).push_back(rounds.back().round.run_s);
  }
  const Verdict v = judge(rounds);

  std::map<std::string, double> values;
  for (const auto& [name, value] : rounds.back().round.layer) {
    values[name] = value;
  }
  values["obs.trace_overhead_frac"] =
      median(traced_run) / median(plain_run) - 1.0;
  values["host.probe_s"] = probe_s;
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  for (const e2e::LayerMetric& m : e2e::layer_metrics()) {
    const auto it = values.find(m.name);
    metrics.emplace_back(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }

  // Everything stayed in memory until here.
  std::filesystem::create_directories(o.out_dir);
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed);
  {
    std::ofstream os(stem + ".trace.json");
    tracer.write_json(os);
  }
  {
    std::ofstream os(stem + ".metrics.json");
    os << "{\"provenance\": " << provenance(o) << ",\n \"fingerprint\": "
       << fingerprint_json(o, rounds.front().round) << ",\n \"metrics\": [";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, value, unit] = metrics[i];
      os << (i ? ",\n  " : "\n  ") << "{\"name\": " << quote(name)
         << ", \"value\": " << num(value) << ", \"unit\": " << quote(unit)
         << "}";
    }
    std::ostringstream dump;
    registry->dump(dump);
    os << "],\n \"registry\": " << quote(dump.str()) << "}\n";
  }
  std::printf("fingerprint %s\n",
              fingerprint_json(o, rounds.front().round).c_str());
  std::printf("trace %s.trace.json %s.metrics.json\n", stem.c_str(),
              stem.c_str());
  print_result(v, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const e2e::Workload* w = nullptr;
  for (const e2e::Workload& cand : e2e::workloads()) {
    if (o.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage(("unknown workload " + o.workload).c_str());
  std::printf("provenance %s\n", provenance(o).c_str());
  const double probe_s = host_probe();
  const e2e::Sizes sizes = o.tiny ? e2e::Sizes::tiny() : e2e::Sizes::full();
  return o.trace ? run_traced(o, *w, sizes, probe_s)
                 : run_untraced(o, *w, sizes, probe_s);
}
