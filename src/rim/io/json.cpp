#include "rim/io/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <ostream>
#include <system_error>

namespace rim::io {

JsonObject::JsonObject(std::vector<value_type> members)
    : members_(std::move(members)) {
  const auto key_below = [](const value_type& a, const value_type& b) {
    return a.first < b.first;
  };
  const auto not_ascending = [](const value_type& a, const value_type& b) {
    return !(a.first < b.first);
  };
  if (std::adjacent_find(members_.begin(), members_.end(), not_ascending) ==
      members_.end()) {
    return;
  }
  std::stable_sort(members_.begin(), members_.end(), key_below);
  // Keep the last member of each run of equal keys.
  auto kept = members_.begin();
  for (auto it = members_.begin(); it != members_.end(); ++it) {
    const auto next = std::next(it);
    if (next != members_.end() && next->first == it->first) continue;
    if (kept != it) *kept = std::move(*it);
    ++kept;
  }
  members_.erase(kept, members_.end());
}

JsonObject::iterator JsonObject::lower_bound(std::string_view key) {
  if (members_.empty() || std::string_view(members_.back().first) < key) {
    return members_.end();
  }
  return std::lower_bound(members_.begin(), members_.end(), key,
                          [](const value_type& member, std::string_view k) {
                            return std::string_view(member.first) < k;
                          });
}

Json& JsonObject::operator[](std::string_view key) {
  const iterator it = lower_bound(key);
  if (it != members_.end() && it->first == key) return it->second;
  return members_.emplace(it, std::string(key), Json())->second;
}

JsonObject::iterator JsonObject::find(std::string_view key) {
  const iterator it = lower_bound(key);
  return it != members_.end() && it->first == key ? it : members_.end();
}

JsonObject::const_iterator JsonObject::find(std::string_view key) const {
  return const_cast<JsonObject*>(this)->find(key);
}

std::pair<JsonObject::iterator, bool> JsonObject::insert_or_assign(
    std::string key, Json value) {
  const iterator it = lower_bound(key);
  if (it != members_.end() && it->first == key) {
    it->second = std::move(value);
    return {it, false};
  }
  return {members_.emplace(it, std::move(key), std::move(value)), true};
}

namespace {

/// Append \p raw escaped per RFC 8259, copying runs that need no escape.
void append_escaped(std::string& out, std::string_view raw) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(raw.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u',          '0',
                               '0',  kHex[c >> 4], kHex[c & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(raw.data() + run, raw.size() - run);
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no Inf/NaN
    return;
  }
  char buffer[32];  // "%.17g" needs at most 24
  std::to_chars_result written{};
  // Integral doubles print without a fraction for readability.
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    written = std::to_chars(buffer, buffer + sizeof buffer,
                            static_cast<long long>(d));
  } else {
    // Specified as printf's "%.17g": the same bytes, without a locale.
    written = std::to_chars(buffer, buffer + sizeof buffer, d,
                            std::chars_format::general, 17);
  }
  out.append(buffer, written.ptr);
}

}  // namespace

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  append_escaped(out, raw);
  return out;
}

void Json::append_to(std::string& out) const {
  struct Visitor {
    std::string& out;
    void operator()(std::nullptr_t) const { out += "null"; }
    void operator()(bool b) const { out += b ? "true" : "false"; }
    void operator()(double d) const { append_number(out, d); }
    void operator()(const std::string& s) const {
      out += '"';
      append_escaped(out, s);
      out += '"';
    }
    void operator()(const JsonArray& a) const {
      out += '[';
      bool first = true;
      for (const Json& v : a) {
        if (!first) out += ',';
        first = false;
        v.append_to(out);
      }
      out += ']';
    }
    void operator()(const JsonObject& o) const {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : o) {
        if (!first) out += ',';
        first = false;
        out += '"';
        append_escaped(out, key);
        out += "\":";
        value.append_to(out);
      }
      out += '}';
    }
  };
  std::visit(Visitor{out}, value_);
}

std::string Json::dump() const {
  std::string out;
  append_to(out);
  return out;
}

void Json::write(std::ostream& out) const { out << dump(); }

namespace detail {

/// Recursive-descent parser over a string_view cursor. Depth-limited so a
/// hostile document (e.g. a corrupted snapshot full of '[') cannot blow the
/// stack — parse failures must be errors, never UB. A null output pointer
/// walks the same grammar without building a value (Json::validate).
class JsonParser {
 public:
  JsonParser(std::string_view text, std::string& error)
      : text_(text), error_(error) {}

  bool run(Json* out, std::size_t depth) {
    if (!parse_value(out, depth)) return false;
    skip_whitespace();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    error_ = "JSON parse error at offset " + std::to_string(pos_) + ": " + what;
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool peek(char& c) {
    skip_whitespace();
    if (pos_ >= text_.size()) return false;
    c = text_[pos_];
    return true;
  }

  bool literal(std::string_view word, Json value, Json* out) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    if (out != nullptr) *out = std::move(value);
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      // Copy the run up to the next quote, backslash or control character.
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\' &&
             static_cast<unsigned char>(text_[run]) >= 0x20) {
        ++run;
      }
      out.append(text_.data() + pos_, run - pos_);
      pos_ = run;
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') return fail("unescaped control character in string");
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writer; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Json* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected number");
    // JSON numbers begin with '-' or a digit; from_chars is laxer (".5",
    // "infinity") — reject those spellings before it sees them.
    const std::size_t digit_at = text_[start] == '-' ? start + 1 : start;
    if (digit_at >= pos_ || text_[digit_at] < '0' || text_[digit_at] > '9') {
      pos_ = start;
      return fail("malformed number");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    const std::from_chars_result read =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (read.ptr != token.data() + token.size()) {
      pos_ = start;
      return fail("malformed number");
    }
    // from_chars reports out-of-range both for overflow and for underflow
    // and leaves the value unset; strtod tells them apart. JSON has no
    // Inf/NaN and the writer never emits them, so an overflowing literal
    // is hostile or corrupt input: reject it rather than smuggle a
    // non-finite through. An underflow reads as strtod's signed zero.
    if (read.ec == std::errc::result_out_of_range) {
      value = std::strtod(std::string(token).c_str(), nullptr);
      if (!std::isfinite(value)) {
        pos_ = start;
        return fail("number overflows double");
      }
    }
    if (out != nullptr) *out = Json(value);
    return true;
  }

  bool parse_value(Json* out, std::size_t depth) {
    if (depth > Json::kMaxParseDepth) return fail("nesting too deep");
    char c = 0;
    if (!peek(c)) return fail("unexpected end of input");
    switch (c) {
      case 'n': return literal("null", Json(nullptr), out);
      case 't': return literal("true", Json(true), out);
      case 'f': return literal("false", Json(false), out);
      case '"': {
        if (out == nullptr) return parse_string(scratch_);
        std::string s;
        if (!parse_string(s)) return false;
        *out = Json(std::move(s));
        return true;
      }
      case '[': {
        ++pos_;
        JsonArray array;
        char next = 0;
        if (!peek(next)) return fail("unterminated array");
        if (next == ']') {
          ++pos_;
          if (out != nullptr) *out = Json(std::move(array));
          return true;
        }
        while (true) {
          Json* element = nullptr;
          if (out != nullptr) element = &array.emplace_back();
          if (!parse_value(element, depth + 1)) return false;
          if (!peek(next)) return fail("unterminated array");
          ++pos_;
          if (next == ']') break;
          if (next != ',') return fail("expected ',' or ']' in array");
        }
        if (out != nullptr) *out = Json(std::move(array));
        return true;
      }
      case '{': {
        ++pos_;
        // Members in arrival order; the object sorts them once at the end
        // (wire documents arrive sorted, so this is usually a no-op).
        std::vector<JsonObject::value_type> members;
        char next = 0;
        if (!peek(next)) return fail("unterminated object");
        if (next == '}') {
          ++pos_;
          if (out != nullptr) *out = Json(JsonObject());
          return true;
        }
        while (true) {
          if (!peek(next) || next != '"') return fail("expected object key");
          std::string key;
          if (!parse_string(out != nullptr ? key : scratch_)) return false;
          if (!peek(next) || next != ':') return fail("expected ':'");
          ++pos_;
          Json* value = nullptr;
          if (out != nullptr) {
            value = &members.emplace_back(std::move(key), Json()).second;
          }
          if (!parse_value(value, depth + 1)) return false;
          if (!peek(next)) return fail("unterminated object");
          ++pos_;
          if (next == '}') break;
          if (next != ',') return fail("expected ',' or '}' in object");
        }
        if (out != nullptr) *out = Json(JsonObject(std::move(members)));
        return true;
      }
      default:
        return parse_number(out);
    }
  }

  std::string_view text_;
  std::string& error_;
  std::size_t pos_ = 0;
  /// Where validation decodes strings it does not keep (one buffer,
  /// reused, so the walk does not allocate per string).
  std::string scratch_;
};

}  // namespace detail

bool Json::parse(std::string_view text, Json& out, std::string& error) {
  error.clear();
  return detail::JsonParser(text, error).run(&out, 0);
}

bool Json::validate(std::string_view text, std::string& error,
                    std::size_t depth) {
  error.clear();
  return detail::JsonParser(text, error).run(nullptr, depth);
}

bool json_to_u64(const Json& json, std::uint64_t max, std::uint64_t& out) {
  if (!json.is_number()) return false;
  const double value = json.as_number();
  if (!(value >= 0.0) || value != std::floor(value)) return false;
  if (value > 9007199254740992.0) return false;
  const auto integral = static_cast<std::uint64_t>(value);
  if (integral > max) return false;
  out = integral;
  return true;
}

}  // namespace rim::io
