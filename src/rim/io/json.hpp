#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

/// \file json.hpp
/// Minimal JSON value, writer, and parser: machine-readable experiment
/// output next to the human-readable tables (no external dependencies).
/// The parser exists for the robustness tooling — snapshots (core::Snapshot)
/// and fuzz traces (sim::FuzzTrace) serialise to JSON and must be read back
/// to replay; everything else in the library only ever writes.

namespace rim::io {

class Json;
using JsonArray = std::vector<Json>;

namespace detail {
class JsonParser;
}  // namespace detail

/// A JSON object: its members in one flat vector sorted by key, compared
/// bytewise as unsigned chars (std::string's order), so iteration, and with
/// it dump(), visits keys in a deterministic order. It keeps the part of
/// the std::map interface the library uses. Unlike a map, inserting a new
/// key shifts the members after it: every insertion invalidates all
/// references, pointers and iterators into the object. Assigning through
/// an existing member does not.
class JsonObject {
 public:
  using value_type = std::pair<std::string, Json>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  JsonObject() = default;

  /// The member named \p key, default-constructed (null) if absent.
  Json& operator[](std::string_view key);

  [[nodiscard]] iterator find(std::string_view key);
  [[nodiscard]] const_iterator find(std::string_view key) const;

  /// Insert \p key or overwrite its value. A key above every present one
  /// appends without a search, so sorted input builds in linear time.
  std::pair<iterator, bool> insert_or_assign(std::string key, Json value);

  // Defined below Json: the member vector's element type is incomplete
  // here, and C++20 vector members are constexpr, so a compiler may
  // instantiate them as soon as they are named.
  [[nodiscard]] iterator begin();
  [[nodiscard]] iterator end();
  [[nodiscard]] const_iterator begin() const;
  [[nodiscard]] const_iterator end() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const;

 private:
  friend class detail::JsonParser;

  /// Adopt \p members in the order a document listed them: stable-sorted
  /// by key unless already strictly ascending, and for a repeated key the
  /// last member kept. Linear for sorted input, O(n log n) otherwise.
  explicit JsonObject(std::vector<value_type> members);

  /// First member whose key is not below \p key.
  [[nodiscard]] iterator lower_bound(std::string_view key);

  std::vector<value_type> members_;
};

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(unsigned i) : value_(static_cast<double>(i)) {}
  Json(long long i) : value_(static_cast<double>(i)) {}
  Json(unsigned long i) : value_(static_cast<double>(i)) {}
  Json(unsigned long long i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  /// Serialise compactly (no insignificant whitespace); object keys are
  /// emitted in sorted order, so output is deterministic. Integral values
  /// below 1e15 in magnitude print as integers, other finite numbers as
  /// printf's "%.17g" would (the shortest text is not used: the bytes
  /// are part of the wire contract), and Inf/NaN as null.
  [[nodiscard]] std::string dump() const;

  /// dump() written to \p out.
  void write(std::ostream& out) const;

  /// Maximum container nesting parse() accepts. The parser recurses once
  /// per nesting level, so this bounds stack use against hostile input (a
  /// kilobyte of '[' must be a parse error, not a stack overflow). 64 is
  /// far beyond any document the library writes (snapshots nest < 8 deep)
  /// while keeping worst-case recursion trivially safe on any thread's
  /// stack. Part of the wire contract: svc transports reject frames whose
  /// payloads exceed it with "bad_frame".
  static constexpr std::size_t kMaxParseDepth = 64;

  /// Parse \p text into \p out. Returns false (with a position-annotated
  /// message in \p error) on malformed input — never UB, never throws.
  /// Accepts exactly what write() emits plus standard JSON whitespace.
  /// Hardened for untrusted input: nesting beyond kMaxParseDepth and
  /// numbers that overflow double (JSON has no Inf/NaN) are parse errors.
  /// Numbers read as the correctly rounded double (strtod's value); one
  /// too small for a subnormal reads as a zero of its sign. For a
  /// repeated object key the last member wins.
  [[nodiscard]] static bool parse(std::string_view text, Json& out,
                                  std::string& error);

  /// parse() without building the value: the same grammar, limits and
  /// error messages, so true iff parse() would accept \p text. \p depth is
  /// the nesting level \p text sits at inside an enclosing document, so a
  /// value cut out of one keeps the kMaxParseDepth budget it had there.
  [[nodiscard]] static bool validate(std::string_view text, std::string& error,
                                     std::size_t depth = 0);

  // --- read accessors (for parsed documents) -----------------------------

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<JsonArray>(value_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<JsonObject>(value_);
  }

  [[nodiscard]] bool as_bool(bool fallback = false) const {
    const bool* b = std::get_if<bool>(&value_);
    return b != nullptr ? *b : fallback;
  }
  [[nodiscard]] double as_number(double fallback = 0.0) const {
    const double* d = std::get_if<double>(&value_);
    return d != nullptr ? *d : fallback;
  }
  /// nullptr when the value is not of the requested shape.
  [[nodiscard]] const std::string* as_string() const {
    return std::get_if<std::string>(&value_);
  }
  [[nodiscard]] const JsonArray* as_array() const {
    return std::get_if<JsonArray>(&value_);
  }
  [[nodiscard]] const JsonObject* as_object() const {
    return std::get_if<JsonObject>(&value_);
  }
  /// Mutable access, for rewriting or moving out of a parsed document.
  [[nodiscard]] JsonObject* as_object() {
    return std::get_if<JsonObject>(&value_);
  }

  /// Object member lookup; nullptr when not an object or the key is absent.
  [[nodiscard]] const Json* find(std::string_view key) const {
    const JsonObject* o = as_object();
    if (o == nullptr) return nullptr;
    const auto it = o->find(key);
    return it != o->end() ? &it->second : nullptr;
  }
  [[nodiscard]] Json* find(std::string_view key) {
    return const_cast<Json*>(std::as_const(*this).find(key));
  }

 private:
  void append_to(std::string& out) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>
      value_;
};

inline JsonObject::iterator JsonObject::begin() { return members_.begin(); }
inline JsonObject::iterator JsonObject::end() { return members_.end(); }
inline JsonObject::const_iterator JsonObject::begin() const {
  return members_.begin();
}
inline JsonObject::const_iterator JsonObject::end() const {
  return members_.end();
}
inline std::size_t JsonObject::size() const { return members_.size(); }
inline bool JsonObject::empty() const { return members_.empty(); }

/// Escape a string per RFC 8259 (quotes, backslash, control characters).
[[nodiscard]] std::string json_escape(const std::string& raw);

/// The one integer-in-range checker for untrusted documents (wire requests,
/// snapshots): true iff \p json is a number with an exact integral value in
/// [0, max] and at most 2^53, where every integer is exact in a double.
/// Negative, fractional, NaN and oversized values are refused, so callers
/// never cast an out-of-range double to an integer type.
[[nodiscard]] bool json_to_u64(const Json& json, std::uint64_t max,
                               std::uint64_t& out);

}  // namespace rim::io
