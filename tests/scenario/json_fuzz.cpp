// Fuzz entry point for the scenario JSON reader (scenario/json.cpp), which
// reads operator-supplied specs through run_scenario.
//
// The function has libFuzzer's LLVMFuzzerTestOneInput shape, so a
// coverage-guided build can link it unchanged once a clang toolchain is
// available (`clang++ -fsanitize=fuzzer,address json_fuzz.cpp ...`); GCC,
// the toolchain this project builds with, has no -fsanitize=fuzzer.  Until
// then json_fuzz_test.cpp replays a seeded mutation corpus through it in
// tier 1, and the ASan/UBSan job runs that replay too.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "polaris/scenario/json.hpp"
#include "polaris/support/check.hpp"

/// Property: an input either throws support::ContractViolation from
/// Json::parse, or its parse dumps to bytes that parse and dump back to
/// themselves.  Anything else (another exception, a crash, a sanitizer
/// report, a failed round trip) aborts, as libFuzzer expects.  `data` need
/// not be NUL-terminated.  Returns 0.
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using polaris::scenario::Json;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  Json x;
  try {
    x = Json::parse(text);
  } catch (const polaris::support::ContractViolation&) {
    return 0;  // rejected cleanly
  }
  const std::string once = x.dump();
  std::string twice;
  try {
    twice = Json::parse(once).dump();
  } catch (const polaris::support::ContractViolation& e) {
    std::fprintf(stderr, "dump does not re-parse: %s\n%s\n", e.what(),
                 once.c_str());
    std::abort();
  }
  if (twice != once) {
    std::fprintf(stderr, "round trip changed the document:\n%s\n%s\n",
                 once.c_str(), twice.c_str());
    std::abort();
  }
  return 0;
}
