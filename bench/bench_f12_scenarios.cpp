// F12: chaos-scenario regression campaign.
//
// Runs every built-in scenario from polaris::scenario's library — the
// behavior-tree chaos campaigns over serve, cluster+rm, simrt and pdes —
// and reports each verdict plus the determinism fingerprint.  The table is
// the operational complement to the fault microbenches (D4/F8): not "how
// fast is the detector" but "does the whole machine survive the drill".
//
// Writes BENCH_SCENARIO.json with one `<name>.passed` row per scenario
// (1 = verdict passed), plus tick/event counts, so CI fails the build the
// moment any campaign regresses and successive PRs can diff the hashes.
#include <cstdio>
#include <string>

#include "polaris/scenario/library.hpp"
#include "polaris/scenario/scenario.hpp"
#include "report.hpp"

int main() {
  using namespace polaris;

  bench::Report report("bench_f12_scenarios",
                       "chaos-scenario regression campaign verdicts");
  report.note_host();

  std::printf("F12: chaos-scenario campaigns\n");
  std::printf("%-28s %-8s %7s %9s %7s  %s\n", "scenario", "verdict", "ticks",
              "sim_s", "events", "trace_hash");

  bool all_passed = true;
  for (const std::string& name : scenario::library_names()) {
    const scenario::Verdict v =
        scenario::run_scenario(scenario::library_spec(name));
    all_passed = all_passed && v.passed;

    std::printf("%-28s %-8s %7llu %9.4f %7llu  %016llx\n", name.c_str(),
                v.passed ? "PASS" : "FAIL",
                static_cast<unsigned long long>(v.ticks), v.end_time_s,
                static_cast<unsigned long long>(v.trace_events),
                static_cast<unsigned long long>(v.trace_hash));

    report.add(name + ".passed", v.passed ? 1.0 : 0.0, "bool");
    report.add(name + ".ticks", static_cast<double>(v.ticks), "ticks");
    report.add(name + ".trace_events", static_cast<double>(v.trace_events),
               "events");
    report.add(name + ".end_time_s", v.end_time_s, "s");
  }
  report.add("all_passed", all_passed ? 1.0 : 0.0, "bool");
  report.note("scenarios", std::to_string(scenario::library_names().size()));

  if (!report.write_file("BENCH_SCENARIO.json")) {
    std::fprintf(stderr, "could not write BENCH_SCENARIO.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_SCENARIO.json\n");
  return all_passed ? 0 : 1;
}
