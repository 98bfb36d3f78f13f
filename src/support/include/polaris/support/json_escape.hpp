// JSON string escaping, shared by every JSON writer: the Chrome trace
// export, the scenario document dumper and the BENCH_*.json reports.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace polaris::support {

/// Appends `s` to `out` as the body of a JSON string, without the
/// surrounding quotes.  Quote, backslash, \n, \t and \r take their short
/// escapes; any other control byte becomes \u00XX; every other byte,
/// UTF-8 included, passes through unchanged.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace polaris::support
