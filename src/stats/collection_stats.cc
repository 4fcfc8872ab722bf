#include "stats/collection_stats.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/env.h"

namespace jpar {

namespace {

// Sidecar layout mirrors the PR 9 tapes (storage_tier.cc): 8-byte
// magic + u64 size + u64 mtime_ns header stamped with the signature of
// the data file the stats describe, then the versioned payload.
constexpr char kStatsMagic[8] = {'J', 'P', 'S', 'T', 'A', 'T', '1', '\n'};
constexpr uint8_t kPayloadVersion = 1;
constexpr size_t kMaxStatsEntries = 4096;  // files tracked in memory

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (i * 8)));
}

bool GetU64(std::string_view data, size_t* pos, uint64_t* v) {
  if (data.size() - *pos < 8) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<uint8_t>(data[*pos + i]))
         << (i * 8);
  }
  *pos += 8;
  *v = r;
  return true;
}

void PutDouble(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

bool GetDouble(std::string_view data, size_t* pos, double* v) {
  uint64_t bits;
  if (!GetU64(data, pos, &bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Avalanche finalizer (the 64-bit murmur3 fmix). FNV-1a alone is too
// weak for HLL register selection: over short, similar keys its top
// byte barely varies, collapsing distinct values into a handful of
// registers and collapsing the estimate with them.
uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

std::string Fnv1aHex(std::string_view s) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(s)));
  return std::string(buf);
}

void AppendHeader(const FileSignature& sig, std::string* out) {
  out->append(kStatsMagic, sizeof(kStatsMagic));
  PutU64(sig.size, out);
  PutU64(static_cast<uint64_t>(sig.mtime_ns), out);
}

bool CheckHeader(const FileSignature& sig, std::string_view data,
                 size_t* pos) {
  if (data.size() < sizeof(kStatsMagic) + 16) return false;
  if (std::memcmp(data.data(), kStatsMagic, sizeof(kStatsMagic)) != 0) {
    return false;
  }
  *pos = sizeof(kStatsMagic);
  uint64_t size = 0, mtime = 0;
  if (!GetU64(data, pos, &size) || !GetU64(data, pos, &mtime)) return false;
  return size == sig.size && mtime == static_cast<uint64_t>(sig.mtime_ns);
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return !in.bad();
}

// Atomic tmp+rename; failures are swallowed — the sidecar is a cache,
// not the source of truth.
void WriteSidecar(const std::string& dest, const std::string& bytes) {
  std::string tmp = dest + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return;
    }
  }
  if (std::rename(tmp.c_str(), dest.c_str()) != 0) std::remove(tmp.c_str());
}

}  // namespace

bool StatsDisabledByEnv() {
  static const bool disabled = EnvFlagSet("JPAR_DISABLE_STATS");
  return disabled;
}

bool StatsEnabled(StatsMode mode) {
  return mode != StatsMode::kOff && !StatsDisabledByEnv();
}

void PathStats::Observe(const Item& item) {
  const uint64_t row = rows++;
  if (row >= kSampleFullRows && row % kSampleStride != 0) return;
  ++sampled;
  if (item.is_numeric()) {
    ++count_numeric;
    const double v = item.AsDouble();
    if (!has_minmax) {
      has_minmax = 1;
      min_value = max_value = v;
    } else {
      min_value = std::min(min_value, v);
      max_value = std::max(max_value, v);
    }
  } else if (item.is_string()) {
    ++count_string;
  } else if (item.is_boolean()) {
    ++count_bool;
  } else if (item.is_null()) {
    ++count_null;
  } else if (item.is_object()) {
    ++count_object;
  } else if (item.is_array()) {
    ++count_array;
  }
  // HLL over the group-key encoding — the same value-identity the
  // engine's group-by uses, so "distinct" here means what GROUPBY
  // would count.
  std::string key;
  item.AppendGroupKeyTo(&key);
  const uint64_t h = Mix64(Fnv1a64(key));
  const size_t reg = static_cast<size_t>(h >> 56);  // top 8 bits
  const uint64_t rest = (h << 8) | 1;               // rank <= 57
  const uint8_t rank =
      static_cast<uint8_t>(1 + __builtin_clzll(rest));
  hll[reg] = std::max(hll[reg], rank);
}

void PathStats::MergeFrom(const PathStats& other) {
  rows += other.rows;
  documents += other.documents;
  file_bytes = std::max(file_bytes, other.file_bytes);
  sampled += other.sampled;
  count_numeric += other.count_numeric;
  count_string += other.count_string;
  count_bool += other.count_bool;
  count_null += other.count_null;
  count_object += other.count_object;
  count_array += other.count_array;
  if (other.has_minmax) {
    if (!has_minmax) {
      has_minmax = 1;
      min_value = other.min_value;
      max_value = other.max_value;
    } else {
      min_value = std::min(min_value, other.min_value);
      max_value = std::max(max_value, other.max_value);
    }
  }
  for (size_t i = 0; i < kHllRegisters; ++i) {
    hll[i] = std::max(hll[i], other.hll[i]);
  }
}

double PathStats::DistinctEstimate() const {
  if (sampled == 0) return 0;
  constexpr double m = static_cast<double>(kHllRegisters);
  constexpr double alpha = 0.7213 / (1.0 + 1.079 / m);  // alpha_256
  double sum = 0;
  size_t zeros = 0;
  for (uint8_t r : hll) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double est = alpha * m * m / sum;
  if (est <= 2.5 * m && zeros > 0) {
    est = m * std::log(m / static_cast<double>(zeros));  // linear counting
  }
  // The sketch only saw `sampled` rows, so it can never honestly claim
  // more distincts than that.
  return std::min(est, static_cast<double>(sampled));
}

double PathStats::PresenceFraction() const {
  if (documents == 0) return rows > 0 ? 1.0 : 0.0;
  return std::min(1.0, static_cast<double>(rows) /
                           static_cast<double>(documents));
}

double PathStats::NumericFraction() const {
  if (sampled == 0) return 0;
  return static_cast<double>(count_numeric) / static_cast<double>(sampled);
}

double PathStats::MeanRowsPerDocument() const {
  if (documents == 0) return 0;
  return static_cast<double>(rows) / static_cast<double>(documents);
}

void AppendPathStatsPayload(const PathStats& stats, std::string* out) {
  const size_t start = out->size();
  out->push_back(static_cast<char>(kPayloadVersion));
  PutU64(stats.rows, out);
  PutU64(stats.documents, out);
  PutU64(stats.file_bytes, out);
  PutU64(stats.sampled, out);
  PutU64(stats.count_numeric, out);
  PutU64(stats.count_string, out);
  PutU64(stats.count_bool, out);
  PutU64(stats.count_null, out);
  PutU64(stats.count_object, out);
  PutU64(stats.count_array, out);
  out->push_back(static_cast<char>(stats.has_minmax));
  PutDouble(stats.min_value, out);
  PutDouble(stats.max_value, out);
  out->append(reinterpret_cast<const char*>(stats.hll.data()),
              stats.hll.size());
  // Trailing payload checksum. Most of the payload is the raw register
  // array, where any byte value parses "successfully" — without the
  // checksum, flipped register bits would silently skew the distinct
  // estimate instead of missing cleanly.
  PutU64(Fnv1a64(std::string_view(out->data() + start, out->size() - start)),
         out);
}

bool ParsePathStatsPayload(std::string_view data, PathStats* out) {
  if (data.size() < 8) return false;
  size_t pos = data.size() - 8;
  uint64_t checksum = 0;
  if (!GetU64(data, &pos, &checksum) ||
      checksum != Fnv1a64(data.substr(0, data.size() - 8))) {
    return false;
  }
  data = data.substr(0, data.size() - 8);
  pos = 0;
  if (data.empty() ||
      static_cast<uint8_t>(data[0]) != kPayloadVersion) {
    return false;
  }
  pos = 1;
  PathStats s;
  if (!GetU64(data, &pos, &s.rows) || !GetU64(data, &pos, &s.documents) ||
      !GetU64(data, &pos, &s.file_bytes) || !GetU64(data, &pos, &s.sampled) ||
      !GetU64(data, &pos, &s.count_numeric) ||
      !GetU64(data, &pos, &s.count_string) ||
      !GetU64(data, &pos, &s.count_bool) ||
      !GetU64(data, &pos, &s.count_null) ||
      !GetU64(data, &pos, &s.count_object) ||
      !GetU64(data, &pos, &s.count_array)) {
    return false;
  }
  if (data.size() - pos < 1) return false;
  s.has_minmax = static_cast<uint8_t>(data[pos++]) != 0 ? 1 : 0;
  if (!GetDouble(data, &pos, &s.min_value) ||
      !GetDouble(data, &pos, &s.max_value)) {
    return false;
  }
  if (data.size() - pos != PathStats::kHllRegisters) return false;
  std::memcpy(s.hll.data(), data.data() + pos, PathStats::kHllRegisters);
  // Internal consistency: the sample can't exceed the rows, and
  // non-finite bounds mean a corrupt payload, not data.
  if (s.sampled > s.rows) return false;
  if (s.has_minmax &&
      (!std::isfinite(s.min_value) || !std::isfinite(s.max_value) ||
       s.min_value > s.max_value)) {
    return false;
  }
  *out = s;
  return true;
}

StatsStore& StatsStore::Instance() {
  static StatsStore* store = new StatsStore();
  return *store;
}

void StatsStore::ApplyConfigLocked(const StatsConfig& cfg) {
  if (!cfg.cache_dir.empty()) cache_dir_ = cfg.cache_dir;
}

std::string StatsStore::SidecarBaseLocked(const std::string& path) const {
  if (cache_dir_.empty()) return path;
  return cache_dir_ + "/" + Fnv1aHex(path);
}

std::string StatsStore::SidecarPathFor(const std::string& path,
                                       const std::string& path_str,
                                       const StatsConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyConfigLocked(cfg);
  return SidecarBaseLocked(path) + "." + Fnv1aHex(path_str) + ".jstats";
}

StatsStore::Entry* StatsStore::TouchLocked(const std::string& path) {
  auto it = entries_.find(path);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return &it->second;
}

void StatsStore::DropEntryLocked(const std::string& path) {
  auto it = entries_.find(path);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru);
  entries_.erase(it);
  ++epoch_;
}

void StatsStore::EvictOverCapLocked() {
  while (entries_.size() > kMaxStatsEntries && !lru_.empty()) {
    std::string victim = lru_.back();
    auto it = entries_.find(victim);
    if (it != entries_.end()) {
      lru_.erase(it->second.lru);
      entries_.erase(it);
    } else {
      lru_.pop_back();
    }
  }
}

std::shared_ptr<const PathStats> StatsStore::Get(const std::string& path,
                                                 const std::string& path_str,
                                                 const StatsConfig& cfg) {
  if (StatsDisabledByEnv()) return nullptr;
  auto sig = StatFileSignature(path);
  std::lock_guard<std::mutex> lock(mu_);
  ApplyConfigLocked(cfg);
  if (!sig.ok()) {
    DropEntryLocked(path);
    return nullptr;
  }
  Entry* e = TouchLocked(path);
  if (e != nullptr && e->sig != *sig) {
    DropEntryLocked(path);
    e = nullptr;
  }
  if (e != nullptr) {
    auto it = e->paths.find(path_str);
    if (it != e->paths.end()) return it->second;
  }
  // Miss in memory: try the sidecar, validating against the live file.
  const std::string sidecar_path =
      SidecarBaseLocked(path) + "." + Fnv1aHex(path_str) + ".jstats";
  std::string bytes;
  if (!ReadFileBytes(sidecar_path, &bytes)) return nullptr;
  size_t pos = 0;
  if (!CheckHeader(*sig, bytes, &pos)) return nullptr;
  auto stats = std::make_shared<PathStats>();
  if (!ParsePathStatsPayload(
          std::string_view(bytes).substr(pos), stats.get())) {
    return nullptr;
  }
  if (e == nullptr) {
    lru_.push_front(path);
    Entry fresh;
    fresh.sig = *sig;
    fresh.lru = lru_.begin();
    e = &entries_.emplace(path, std::move(fresh)).first->second;
    EvictOverCapLocked();
  }
  auto installed =
      e->paths.emplace(path_str, std::move(stats)).first->second;
  return installed;
}

void StatsStore::Put(const std::string& path, const std::string& path_str,
                     PathStats stats, const FileSignature& built_for,
                     const StatsConfig& cfg) {
  if (StatsDisabledByEnv()) return;
  auto sig = StatFileSignature(path);
  std::string sidecar_path;
  std::string sidecar;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ApplyConfigLocked(cfg);
    // The file changed while the scan ran: the sample describes bytes
    // that no longer exist.
    if (!sig.ok() || *sig != built_for) {
      DropEntryLocked(path);
      return;
    }
    Entry* e = TouchLocked(path);
    if (e != nullptr && e->sig != built_for) {
      DropEntryLocked(path);
      e = nullptr;
    }
    if (e == nullptr) {
      lru_.push_front(path);
      Entry fresh;
      fresh.sig = built_for;
      fresh.lru = lru_.begin();
      e = &entries_.emplace(path, std::move(fresh)).first->second;
      EvictOverCapLocked();
    }
    // Two scans racing to learn the same path: first writer wins, the
    // samples are equivalent.
    if (!e->paths.emplace(path_str, std::make_shared<PathStats>(stats))
             .second) {
      return;
    }
    ++epoch_;
    sidecar_path =
        SidecarBaseLocked(path) + "." + Fnv1aHex(path_str) + ".jstats";
    AppendHeader(built_for, &sidecar);
    AppendPathStatsPayload(stats, &sidecar);
  }
  WriteSidecar(sidecar_path, sidecar);
}

uint64_t StatsStore::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void StatsStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  ++epoch_;
}

StatsStore::Totals StatsStore::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t;
  t.files = entries_.size();
  for (const auto& [path, e] : entries_) t.paths += e.paths.size();
  return t;
}

}  // namespace jpar
