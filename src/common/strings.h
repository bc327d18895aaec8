#pragma once
// Small string utilities used across the project; no allocations beyond
// what the results require.

#include <string>
#include <string_view>
#include <vector>

namespace vcmr::common {

/// Split on a single delimiter; empty fields preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on runs of ASCII whitespace; no empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable byte count ("12.3 MiB").
std::string format_bytes(std::int64_t bytes);

/// Parse helpers returning false on malformed input instead of throwing.
bool parse_i64(std::string_view s, std::int64_t* out);
bool parse_double(std::string_view s, double* out);

}  // namespace vcmr::common
