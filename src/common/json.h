#pragma once
// Minimal JSON writing, shared by the bench JSON-lines rows and the
// vcmr::obs exporters — one escaping implementation for the whole repo.
//
// JsonWriter builds a single JSON object: chain field() calls, then str()
// or emit(). Keys are emitted in insertion order so lines diff cleanly
// across runs, and the numeric formatting (%.6g doubles, plain integers)
// is the one every committed bench row uses, regression-pinned in
// tests/test_obs.cpp.

#include <cstdint>
#include <string>

namespace vcmr::common {

class JsonWriter {
 public:
  JsonWriter& field(const std::string& key, const std::string& v);
  JsonWriter& field(const std::string& key, const char* v) {
    return field(key, std::string(v));
  }
  JsonWriter& field(const std::string& key, double v);
  JsonWriter& field(const std::string& key, std::int64_t v);
  JsonWriter& field(const std::string& key, int v) {
    return field(key, static_cast<std::int64_t>(v));
  }
  JsonWriter& field(const std::string& key, bool v);
  /// Pre-rendered JSON (an array or nested object) under `key`; the caller
  /// guarantees `raw_json` is itself valid JSON.
  JsonWriter& field_json(const std::string& key, const std::string& raw_json);

  std::string str() const { return "{" + body_ + "}"; }
  /// Prints the object as one line on stdout.
  void emit() const;

  /// String-escaping for JSON: backslash-escapes '"' and '\', renders
  /// control characters as \u00XX.
  static std::string escaped(const std::string& s);
  /// `escaped` wrapped in double quotes.
  static std::string quoted(const std::string& s);

 private:
  JsonWriter& raw(const std::string& key, const std::string& value);
  std::string body_;
};

}  // namespace vcmr::common
