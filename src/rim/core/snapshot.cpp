#include "rim/core/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace rim::core {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
constexpr char kMagic[8] = {'R', 'I', 'M', 'S', 'N', 'A', 'P', '1'};

/// FNV-1a, one byte at a time.
class Fnv1a {
 public:
  void put(std::uint8_t b) {
    h_ ^= b;
    h_ *= kFnvPrime;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

std::uint64_t fnv1a_bytes(std::span<const std::uint8_t> bytes) {
  Fnv1a h;
  for (const std::uint8_t b : bytes) h.put(b);
  return h.value();
}

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

double bits_double(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

/// The 16 lowercase hex digits of \p value's bit pattern, written to
/// out[0..16).
void write_hex_bits(double value, char* out) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const std::uint64_t bits = double_bits(value);
  for (int i = 0; i < 16; ++i) out[i] = kDigits[(bits >> (4 * (15 - i))) & 0xF];
}

/// Appends to a byte vector (to_bytes).
struct ByteSink {
  std::vector<std::uint8_t> bytes;
  void put(std::uint8_t b) { bytes.push_back(b); }
};

/// Little-endian field writer over a byte sink: a ByteSink to keep the
/// bytes, an Fnv1a to hash them as they are written (payload_checksum).
template <typename Sink>
class ByteWriter {
 public:
  explicit ByteWriter(Sink& sink) : sink_(sink) {}

  void u8(std::uint8_t v) { sink_.put(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(double_bits(v)); }

 private:
  Sink& sink_;
};

/// Bounds-checked little-endian reader; every accessor reports truncation
/// instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool u8(std::uint8_t& v) {
    if (pos_ + 1 > bytes_.size()) return false;
    v = bytes_[pos_++];
    return true;
  }
  [[nodiscard]] bool u32(std::uint32_t& v) {
    if (pos_ + 4 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    }
    return true;
  }
  [[nodiscard]] bool u64(std::uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    }
    return true;
  }
  [[nodiscard]] bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = bits_double(bits);
    return true;
  }

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Serialise everything except the trailing checksum into \p sink.
template <typename Sink>
void encode_payload(const Snapshot& s, Sink& sink) {
  ByteWriter<Sink> w(sink);
  for (const char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(Snapshot::kVersion);
  w.u32((s.cache_valid ? 1u : 0u) | (s.grid_built ? 2u : 0u));
  w.u64(s.points.size());
  w.u64(s.edge_count);
  w.f64(s.cell_size);
  w.u8(static_cast<std::uint8_t>(s.options.strategy));
  w.u64(s.options.auto_brute_max_nodes);
  w.u64(s.options.auto_grid_max_nodes);
  w.f64(s.options.max_touched_fraction);
  w.u64(s.options.touched_floor);
  w.u64(s.options.batch_min_parallel_tasks);
  for (const geom::Vec2 p : s.points) {
    w.f64(p.x);
    w.f64(p.y);
  }
  for (const double r2 : s.radii2) w.f64(r2);
  for (const auto& neighbors : s.adjacency) {
    w.u32(static_cast<std::uint32_t>(neighbors.size()));
    for (const NodeId v : neighbors) w.u32(v);
  }
  if (s.cache_valid) {
    for (const std::uint32_t i : s.interference) w.u32(i);
  }
}

bool decode_fail(std::string& error, const std::string& what) {
  error = "snapshot decode error: " + what;
  return false;
}

/// Read an untrusted JSON integer into \p out: absent, negative,
/// fractional, or beyond T's range is a decode error, never a cast.
template <typename T>
bool read_uint(const io::Json* node, T& out) {
  std::uint64_t value = 0;
  if (node == nullptr ||
      !io::json_to_u64(*node, std::numeric_limits<T>::max(), value)) {
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

}  // namespace

std::uint64_t fnv1a_words(std::span<const std::uint32_t> words) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint32_t v : words) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (v >> shift) & 0xFFU;
      h *= kFnvPrime;
    }
  }
  return h;
}

std::string double_to_hex_bits(double value) {
  std::string out(16, '0');
  write_hex_bits(value, out.data());
  return out;
}

bool double_from_hex_bits(std::string_view hex, double& value) {
  if (hex.size() != 16) return false;
  std::uint64_t bits = 0;
  for (const char c : hex) {
    bits <<= 4;
    if (c >= '0' && c <= '9') {
      bits |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      bits |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      bits |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  value = bits_double(bits);
  return true;
}

std::uint64_t Snapshot::payload_checksum() const {
  Fnv1a hash;
  encode_payload(*this, hash);
  return hash.value();
}

std::uint64_t Snapshot::interference_checksum() const {
  if (!cache_valid) return 0;
  return fnv1a_words(interference);
}

bool Snapshot::validate(std::string& error) const {
  const std::size_t n = points.size();
  if (radii2.size() != n) {
    return decode_fail(error, "radii2 size mismatch");
  }
  if (adjacency.size() != n) {
    return decode_fail(error, "adjacency size mismatch");
  }
  if (cache_valid ? interference.size() != n : !interference.empty()) {
    return decode_fail(error, "interference size mismatch");
  }
  if (grid_built && !(cell_size > 0.0)) {
    return decode_fail(error, "grid marked built but cell_size not positive");
  }
  std::size_t degree_sum = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto& neighbors = adjacency[u];
    degree_sum += neighbors.size();
    for (const NodeId v : neighbors) {
      if (v >= n) return decode_fail(error, "neighbor id out of range");
      if (v == u) return decode_fail(error, "self-loop in adjacency");
      if (std::count(neighbors.begin(), neighbors.end(), v) != 1) {
        return decode_fail(error, "duplicate neighbor entry");
      }
      const auto& back = adjacency[v];
      if (std::find(back.begin(), back.end(), u) == back.end()) {
        return decode_fail(error, "asymmetric adjacency");
      }
    }
  }
  if (degree_sum != 2 * edge_count) {
    return decode_fail(error, "edge count disagrees with adjacency");
  }
  return true;
}

std::vector<std::uint8_t> Snapshot::to_bytes() const {
  ByteSink sink;
  encode_payload(*this, sink);
  const std::uint64_t checksum = fnv1a_bytes(sink.bytes);
  ByteWriter<ByteSink>(sink).u64(checksum);
  return std::move(sink.bytes);
}

bool Snapshot::from_bytes(std::span<const std::uint8_t> bytes, Snapshot& out,
                          std::string& error) {
  out = Snapshot{};
  if (bytes.size() < sizeof kMagic + 8) {
    return decode_fail(error, "truncated (shorter than header)");
  }
  // Checksum first: everything before the trailing u64 must hash to it.
  const std::span<const std::uint8_t> payload =
      bytes.subspan(0, bytes.size() - 8);
  {
    ByteReader tail(bytes.subspan(bytes.size() - 8));
    std::uint64_t stored = 0;
    (void)tail.u64(stored);
    if (fnv1a_bytes(payload) != stored) {
      return decode_fail(error, "checksum mismatch (corrupted or truncated)");
    }
  }
  ByteReader r(payload);
  for (const char c : kMagic) {
    std::uint8_t b = 0;
    if (!r.u8(b) || b != static_cast<std::uint8_t>(c)) {
      return decode_fail(error, "bad magic (not a rim snapshot)");
    }
  }
  std::uint32_t version = 0;
  if (!r.u32(version)) return decode_fail(error, "truncated version");
  if (version != kVersion) {
    return decode_fail(error,
                       "unsupported version " + std::to_string(version) +
                           " (this build reads version " +
                           std::to_string(kVersion) + ")");
  }
  std::uint32_t flags = 0;
  std::uint64_t node_count = 0;
  std::uint64_t edge_count = 0;
  if (!r.u32(flags) || !r.u64(node_count) || !r.u64(edge_count) ||
      !r.f64(out.cell_size)) {
    return decode_fail(error, "truncated header");
  }
  out.cache_valid = (flags & 1u) != 0;
  out.grid_built = (flags & 2u) != 0;
  out.edge_count = static_cast<std::size_t>(edge_count);
  std::uint8_t strategy = 0;
  if (!r.u8(strategy) || !r.u64(out.options.auto_brute_max_nodes) ||
      !r.u64(out.options.auto_grid_max_nodes) ||
      !r.f64(out.options.max_touched_fraction) ||
      !r.u64(out.options.touched_floor) ||
      !r.u64(out.options.batch_min_parallel_tasks)) {
    return decode_fail(error, "truncated options");
  }
  if (strategy > static_cast<std::uint8_t>(Strategy::kAuto)) {
    return decode_fail(error, "invalid strategy value");
  }
  out.options.with_strategy(static_cast<Strategy>(strategy));
  // Cheap sanity bound before reserving: every node needs at least
  // 24 payload bytes (point + radius), so a huge count is corruption.
  if (node_count > r.remaining() / 24 + 1) {
    return decode_fail(error, "node count exceeds payload size");
  }
  const auto n = static_cast<std::size_t>(node_count);
  out.points.resize(n);
  for (geom::Vec2& p : out.points) {
    if (!r.f64(p.x) || !r.f64(p.y)) {
      return decode_fail(error, "truncated points");
    }
  }
  out.radii2.resize(n);
  for (double& r2 : out.radii2) {
    if (!r.f64(r2)) return decode_fail(error, "truncated radii");
  }
  out.adjacency.resize(n);
  for (auto& neighbors : out.adjacency) {
    std::uint32_t degree = 0;
    if (!r.u32(degree)) return decode_fail(error, "truncated adjacency");
    if (degree > r.remaining() / 4) {
      return decode_fail(error, "degree exceeds payload size");
    }
    neighbors.resize(degree);
    for (NodeId& v : neighbors) {
      if (!r.u32(v)) return decode_fail(error, "truncated adjacency list");
    }
  }
  if (out.cache_valid) {
    out.interference.resize(n);
    for (std::uint32_t& i : out.interference) {
      if (!r.u32(i)) return decode_fail(error, "truncated interference");
    }
  }
  if (r.remaining() != 0) {
    return decode_fail(error, "trailing bytes after payload");
  }
  return out.validate(error);
}

io::Json Snapshot::to_json() const {
  io::JsonObject o;
  o["format"] = io::Json("rim-snapshot");
  o["version"] = io::Json(kVersion);
  o["cache_valid"] = io::Json(cache_valid);
  o["grid_built"] = io::Json(grid_built);
  o["cell_size_bits"] = io::Json(double_to_hex_bits(cell_size));
  o["node_count"] = io::Json(points.size());
  o["edge_count"] = io::Json(edge_count);
  {
    io::JsonObject opt;
    opt["strategy"] = io::Json(static_cast<unsigned>(options.strategy));
    opt["auto_brute_max_nodes"] = io::Json(options.auto_brute_max_nodes);
    opt["auto_grid_max_nodes"] = io::Json(options.auto_grid_max_nodes);
    opt["max_touched_fraction_bits"] =
        io::Json(double_to_hex_bits(options.max_touched_fraction));
    opt["touched_floor"] = io::Json(options.touched_floor);
    opt["batch_min_parallel_tasks"] =
        io::Json(options.batch_min_parallel_tasks);
    o["options"] = io::Json(std::move(opt));
  }
  {
    io::JsonArray points_bits;
    points_bits.reserve(points.size());
    for (const geom::Vec2 p : points) {
      std::string bits(32, '0');
      write_hex_bits(p.x, bits.data());
      write_hex_bits(p.y, bits.data() + 16);
      points_bits.emplace_back(std::move(bits));
    }
    o["points_bits"] = io::Json(std::move(points_bits));
  }
  {
    io::JsonArray radii_bits;
    radii_bits.reserve(radii2.size());
    for (const double r2 : radii2) {
      radii_bits.emplace_back(double_to_hex_bits(r2));
    }
    o["radii2_bits"] = io::Json(std::move(radii_bits));
  }
  {
    io::JsonArray adjacency_rows;
    adjacency_rows.reserve(adjacency.size());
    for (const auto& neighbors : adjacency) {
      io::JsonArray row;
      row.reserve(neighbors.size());
      for (const NodeId v : neighbors) row.emplace_back(v);
      adjacency_rows.emplace_back(std::move(row));
    }
    o["adjacency"] = io::Json(std::move(adjacency_rows));
  }
  if (cache_valid) {
    io::JsonArray cache;
    cache.reserve(interference.size());
    for (const std::uint32_t i : interference) cache.emplace_back(i);
    o["interference"] = io::Json(std::move(cache));
  }
  o["payload_checksum"] = io::Json(double_to_hex_bits(
      bits_double(payload_checksum())));
  return io::Json(std::move(o));
}

bool Snapshot::from_json(const io::Json& json, Snapshot& out,
                         std::string& error, std::uint64_t* checksum) {
  out = Snapshot{};
  const auto* format = json.find("format");
  if (format == nullptr || format->as_string() == nullptr ||
      *format->as_string() != "rim-snapshot") {
    return decode_fail(error, "not a rim-snapshot document");
  }
  std::uint32_t version = 0;
  if (!read_uint(json.find("version"), version) || version != kVersion) {
    return decode_fail(error, "unsupported or missing version");
  }
  const auto read_hex_double = [&](const io::Json* node, double& value) {
    return node != nullptr && node->as_string() != nullptr &&
           double_from_hex_bits(*node->as_string(), value);
  };
  const auto* cache_valid = json.find("cache_valid");
  const auto* grid_built = json.find("grid_built");
  if (cache_valid == nullptr || !cache_valid->is_bool() ||
      grid_built == nullptr || !grid_built->is_bool()) {
    return decode_fail(error, "missing cache_valid/grid_built flags");
  }
  out.cache_valid = cache_valid->as_bool();
  out.grid_built = grid_built->as_bool();
  if (!read_hex_double(json.find("cell_size_bits"), out.cell_size)) {
    return decode_fail(error, "missing or malformed cell_size_bits");
  }
  if (!read_uint(json.find("edge_count"), out.edge_count)) {
    return decode_fail(error, "missing or malformed edge_count");
  }
  const auto* opt = json.find("options");
  if (opt == nullptr || !opt->is_object()) {
    return decode_fail(error, "missing options object");
  }
  std::uint8_t strategy = 0;
  if (!read_uint(opt->find("strategy"), strategy) ||
      strategy > static_cast<std::uint8_t>(Strategy::kAuto)) {
    return decode_fail(error, "invalid options.strategy");
  }
  out.options.with_strategy(static_cast<Strategy>(strategy));
  if (!read_uint(opt->find("auto_brute_max_nodes"),
                 out.options.auto_brute_max_nodes) ||
      !read_uint(opt->find("auto_grid_max_nodes"),
                 out.options.auto_grid_max_nodes) ||
      !read_uint(opt->find("touched_floor"), out.options.touched_floor) ||
      !read_uint(opt->find("batch_min_parallel_tasks"),
                 out.options.batch_min_parallel_tasks) ||
      !read_hex_double(opt->find("max_touched_fraction_bits"),
                       out.options.max_touched_fraction)) {
    return decode_fail(error, "missing or malformed options fields");
  }
  const auto* points_bits = json.find("points_bits");
  if (points_bits == nullptr || !points_bits->is_array()) {
    return decode_fail(error, "missing points_bits");
  }
  out.points.reserve(points_bits->as_array()->size());
  for (const io::Json& entry : *points_bits->as_array()) {
    const std::string* s = entry.as_string();
    geom::Vec2 p;
    if (s == nullptr || s->size() != 32 ||
        !double_from_hex_bits(std::string_view(*s).substr(0, 16), p.x) ||
        !double_from_hex_bits(std::string_view(*s).substr(16, 16), p.y)) {
      return decode_fail(error, "malformed points_bits entry");
    }
    out.points.push_back(p);
  }
  std::size_t node_count = 0;
  if (!read_uint(json.find("node_count"), node_count) ||
      node_count != out.points.size()) {
    return decode_fail(error, "node_count disagrees with points_bits");
  }
  const auto* radii_bits = json.find("radii2_bits");
  if (radii_bits == nullptr || !radii_bits->is_array()) {
    return decode_fail(error, "missing radii2_bits");
  }
  out.radii2.reserve(radii_bits->as_array()->size());
  for (const io::Json& entry : *radii_bits->as_array()) {
    double r2 = 0.0;
    if (!read_hex_double(&entry, r2)) {
      return decode_fail(error, "malformed radii2_bits entry");
    }
    out.radii2.push_back(r2);
  }
  const auto* adjacency = json.find("adjacency");
  if (adjacency == nullptr || !adjacency->is_array()) {
    return decode_fail(error, "missing adjacency");
  }
  out.adjacency.reserve(adjacency->as_array()->size());
  for (const io::Json& row : *adjacency->as_array()) {
    if (!row.is_array()) return decode_fail(error, "malformed adjacency row");
    std::vector<NodeId> neighbors;
    neighbors.reserve(row.as_array()->size());
    for (const io::Json& v : *row.as_array()) {
      NodeId id = kInvalidNode;
      if (!read_uint(&v, id)) {
        return decode_fail(error, "malformed adjacency entry");
      }
      neighbors.push_back(id);
    }
    out.adjacency.push_back(std::move(neighbors));
  }
  if (out.cache_valid) {
    const auto* interference = json.find("interference");
    if (interference == nullptr || !interference->is_array()) {
      return decode_fail(error, "missing interference (cache_valid set)");
    }
    out.interference.reserve(interference->as_array()->size());
    for (const io::Json& v : *interference->as_array()) {
      std::uint32_t count = 0;
      if (!read_uint(&v, count)) {
        return decode_fail(error, "malformed interference entry");
      }
      out.interference.push_back(count);
    }
  }
  if (!out.validate(error)) return false;
  double stored_checksum = 0.0;
  const std::uint64_t computed = out.payload_checksum();
  if (!read_hex_double(json.find("payload_checksum"), stored_checksum) ||
      double_bits(stored_checksum) != computed) {
    return decode_fail(error, "payload checksum mismatch (tampered document)");
  }
  if (checksum != nullptr) *checksum = computed;
  return true;
}

}  // namespace rim::core
