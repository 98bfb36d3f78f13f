// Corpus replay for the JSON fuzz entry point: the seven library specs,
// every truncation of them, a seeded byte-mutation loop (flipped quotes
// and backslashes, broken \u escapes, random bytes, splices) and deep
// nesting.  Each input is handed over in an exactly-sized buffer, with no
// NUL after it, as libFuzzer hands inputs over.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "polaris/scenario/library.hpp"

// The fuzz entry point, json_fuzz.cpp.
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace polaris::scenario {
namespace {

void replay(std::string_view input) {
  const std::vector<std::uint8_t> buf(input.begin(), input.end());
  LLVMFuzzerTestOneInput(buf.data(), buf.size());
}

std::vector<std::string> seeds() {
  std::vector<std::string> out;
  for (const std::string& name : library_names()) {
    out.emplace_back(library_spec(name));
  }
  return out;
}

TEST(ScenarioJsonFuzz, LibrarySpecsAndEveryTruncation) {
  for (const std::string& spec : seeds()) {
    for (std::size_t n = 0; n <= spec.size(); ++n) {
      replay(std::string_view(spec).substr(0, n));
    }
  }
}

std::string mutate(std::string s, std::mt19937_64& rng) {
  static constexpr std::string_view kPieces[] = {
      "\"", "\\", "\\u", "\\u00", "\\uD800", "\\uZZZZ", "\\x", "\\\"",
      "{",  "}",  "[",   "]",     ",",       ":",       "-",  "1e999",
      "nan", "0x1p3", "tru", "nul", std::string_view("\0", 1), "\xff"};
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t at = rng() % s.size();
    switch (rng() % 5) {
      case 0:  // flip a byte
        s[at] = static_cast<char>(rng() & 0xff);
        break;
      case 1: {  // insert a JSON-significant piece
        s.insert(at, kPieces[rng() % std::size(kPieces)]);
        break;
      }
      case 2:  // delete a run
        s.erase(at, 1 + rng() % 8);
        break;
      case 3: {  // turn the next quote into a backslash or drop it
        const std::size_t q = s.find('"', at);
        if (q == std::string::npos) break;
        if (rng() % 2 != 0) {
          s[q] = '\\';
        } else {
          s.erase(q, 1);
        }
        break;
      }
      default: {  // splice a slice of the document onto itself
        const std::size_t from = rng() % s.size();
        const std::size_t len = rng() % (s.size() - from + 1);
        s.insert(at, s.substr(from, len % 256));
        break;
      }
    }
  }
  return s;
}

TEST(ScenarioJsonFuzz, SeededByteMutations) {
  std::mt19937_64 rng(0x5eedULL);
  const std::vector<std::string> corpus = seeds();
  for (int i = 0; i < 20'000; ++i) {
    replay(mutate(corpus[static_cast<std::size_t>(i) % corpus.size()], rng));
  }
}

TEST(ScenarioJsonFuzz, DeepNesting) {
  for (const std::size_t depth : {1u, 64u, 255u, 256u, 257u, 5'000u,
                                  200'000u}) {
    replay(std::string(depth, '[') + std::string(depth, ']'));
    replay(std::string(depth, '['));  // unterminated
    std::string objects;
    for (std::size_t d = 0; d < depth; ++d) objects += "{\"k\":";
    objects += "0";
    objects += std::string(depth, '}');
    replay(objects);
  }
}

}  // namespace
}  // namespace polaris::scenario
