// Copyright (c) 2026 GARCIA reproduction authors.
// Small string helpers shared across modules.

#ifndef GARCIA_CORE_STRING_UTIL_H_
#define GARCIA_CORE_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace garcia::core {

/// Splits on a single character; empty fields are kept.
std::vector<std::string> Split(const std::string& s, char delim);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// Lowercases ASCII letters.
std::string ToLower(const std::string& s);

/// True if s starts with prefix.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Parses a plain decimal unsigned integer no greater than max_value into
/// *out. Rejects an empty string, any sign, whitespace or trailing
/// character, and values past max_value (overflow included); *out is left
/// unchanged on failure. The checked replacement for atoi-style parsing of
/// command-line counts, where "-1" would otherwise wrap to 2^64 - 1.
bool ParseUnsigned(const std::string& s, uint64_t max_value, uint64_t* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a double with the given number of decimals ("0.8285").
std::string FormatFixed(double v, int decimals);

/// Formats a count with scientific-ish shorthand ("1.39e9" style) used in
/// the paper's tables.
std::string FormatScientific(double v, int decimals = 2);

/// Jaccard similarity of whitespace-tokenized strings; the simplified
/// "semantic relevance" used by KTCL anchor mining (see DESIGN.md).
double TokenJaccard(const std::string& a, const std::string& b);

}  // namespace garcia::core

#endif  // GARCIA_CORE_STRING_UTIL_H_
