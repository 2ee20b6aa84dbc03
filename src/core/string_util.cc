#include "core/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <set>
#include <sstream>

namespace garcia::core {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool ParseUnsigned(const std::string& s, uint64_t max_value, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (digit > max_value || v > (max_value - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatFixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string FormatScientific(double v, int decimals) {
  if (v == 0.0) return "0";
  const double exp10 = std::floor(std::log10(std::fabs(v)));
  const double mant = v / std::pow(10.0, exp10);
  std::ostringstream os;
  os << FormatFixed(mant, decimals) << "e" << static_cast<long long>(exp10);
  return os.str();
}

double TokenJaccard(const std::string& a, const std::string& b) {
  auto tokenize = [](const std::string& s) {
    std::set<std::string> tokens;
    std::istringstream is(s);
    std::string tok;
    while (is >> tok) tokens.insert(ToLower(tok));
    return tokens;
  };
  const auto ta = tokenize(a);
  const auto tb = tokenize(b);
  if (ta.empty() && tb.empty()) return 0.0;
  size_t inter = 0;
  for (const auto& t : ta) inter += tb.count(t);
  const size_t uni = ta.size() + tb.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace garcia::core
