// Just enough JSON output for results.json: ordered objects, numbers in
// their shortest round-trip form (every digit as measured), escaped
// strings. Non-finite numbers become null so a bug never writes invalid
// JSON; run.py treats a null metric as missing and fails the run.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eyw::bench {

[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

[[nodiscard]] inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[nodiscard]] inline std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i)
    out += (i ? ", " : "") + json_number(xs[i]);
  return out + "]";
}

/// An ordered JSON object under construction.
class JsonObject {
 public:
  JsonObject& num(std::string key, double v) {
    return raw(std::move(key), json_number(v));
  }
  JsonObject& count(std::string key, std::uint64_t v) {
    return raw(std::move(key), std::to_string(v));
  }
  JsonObject& flag(std::string key, bool v) {
    return raw(std::move(key), v ? "true" : "false");
  }
  JsonObject& str(std::string key, std::string_view v) {
    return raw(std::move(key), json_string(v));
  }
  JsonObject& obj(std::string key, const JsonObject& v) {
    return raw(std::move(key), v.dump());
  }
  JsonObject& raw(std::string key, std::string rendered) {
    fields_.emplace_back(std::move(key), std::move(rendered));
    return *this;
  }

  [[nodiscard]] std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i)
      out += (i ? ", " : "") + json_string(fields_[i].first) + ": " +
             fields_[i].second;
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace eyw::bench
