#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "polaris/support/json_escape.hpp"

namespace polaris::bench {

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  std::string body;
  support::append_json_escaped(body, s);
  os << '"' << body << '"';
}

void write_number(std::ostream& os, double v) {
  // JSON has no NaN/Inf; null keeps the file parseable if a measurement
  // went sideways.
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

void Report::note_host() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        cpu = line.substr(colon + 2);
      }
      break;
    }
  }
  note("host.cpu_model", cpu);
  note("host.hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency()));
#if defined(__clang__)
  note("host.compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  note("host.compiler", std::string("gcc ") + __VERSION__);
#endif
#if defined(__OPTIMIZE__)
  note("host.optimized", "yes");
#else
  note("host.optimized", "no");
#endif
#if defined(NDEBUG)
  note("host.ndebug", "yes");
#else
  note("host.ndebug", "no");
#endif
}

void Report::write(std::ostream& os) const {
  os << "{\n";
  os << "  \"tool\": ";
  write_escaped(os, tool_);
  os << ",\n  \"description\": ";
  write_escaped(os, description_);
  os << ",\n  \"schema_version\": 1";
  os << ",\n  \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    os << (i ? ", " : "");
    write_escaped(os, notes_[i].first);
    os << ": ";
    write_escaped(os, notes_[i].second);
  }
  os << "},\n  \"results\": [";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    os << (i ? ",\n    " : "\n    ");
    os << "{\"name\": ";
    write_escaped(os, results_[i].name);
    os << ", \"value\": ";
    write_number(os, results_[i].value);
    os << ", \"unit\": ";
    write_escaped(os, results_[i].unit);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

bool Report::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write(out);
  return static_cast<bool>(out);
}

}  // namespace polaris::bench
