#ifndef JPAR_STATS_COLLECTION_STATS_H_
#define JPAR_STATS_COLLECTION_STATS_H_

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "json/item.h"
#include "storage/storage_tier.h"

namespace jpar {

/// Whether the planner may read and the executor may build sampled
/// collection statistics (DESIGN.md §15).
///   kAuto   — build during cold scans, consume when the sample is
///             large enough to trust; the default.
///   kOff    — no stats reads, no stats builds; plans fall back to the
///             pre-PR-10 heuristics.
///   kForced — consume whatever stats exist, however small the sample;
///             benchmarking/testing aid.
/// The JPAR_DISABLE_STATS environment variable overrides every mode to
/// kOff — the operational kill-switch, mirroring
/// JPAR_DISABLE_STORAGE_CACHE.
enum class StatsMode : uint8_t { kAuto = 0, kOff = 1, kForced = 2 };

/// True when JPAR_DISABLE_STATS is set per EnvFlagSet (checked once per
/// process).
bool StatsDisabledByEnv();

/// True when `mode` (after the env kill-switch) permits building or
/// reading stats at all.
bool StatsEnabled(StatsMode mode);

/// Per-(file, projected path) sampled statistics, gathered as a tee on
/// the projecting reader during cold scans. Row and document counts
/// are exact (every emitted item ticks them); value-shape facts
/// (type mix, min/max, the distinct sketch) come from a deterministic
/// stride sample — the first kSampleFullRows rows, then every
/// kSampleStride-th — so the cost of observation is O(1) amortized and
/// independent of randomness (stats built on any host, under any
/// thread count, converge to mergeable sketches).
struct PathStats {
  static constexpr size_t kHllRegisters = 256;
  static constexpr uint64_t kSampleFullRows = 8192;
  static constexpr uint64_t kSampleStride = 16;

  uint64_t rows = 0;        // items emitted for the projected path
  uint64_t documents = 0;   // top-level documents scanned
  uint64_t file_bytes = 0;  // size of the file the sample came from
  uint64_t sampled = 0;     // rows that contributed to the shape facts

  uint64_t count_numeric = 0;
  uint64_t count_string = 0;
  uint64_t count_bool = 0;
  uint64_t count_null = 0;
  uint64_t count_object = 0;
  uint64_t count_array = 0;

  uint8_t has_minmax = 0;  // numeric min/max observed at least once
  double min_value = 0;
  double max_value = 0;

  // HyperLogLog registers over the group-key encoding of each sampled
  // value (m=256, ~6.5% relative error); register-max merge makes the
  // sketch order-independent across morsels and files.
  std::array<uint8_t, kHllRegisters> hll{};

  /// Folds one emitted item into the stats (row count always; shape
  /// facts when the stride admits it).
  void Observe(const Item& item);

  /// Register-max / sum merge; order-independent.
  void MergeFrom(const PathStats& other);

  /// HLL estimate with the standard small-range linear-counting
  /// correction. Zero when nothing was sampled.
  double DistinctEstimate() const;

  /// Fraction of documents that produced at least one item for the
  /// path, clamped to [0, 1]. (rows/documents can exceed 1 under array
  /// fan-out; see MeanRowsPerDocument for the unclamped ratio.)
  double PresenceFraction() const;

  /// Fraction of sampled values that were numeric.
  double NumericFraction() const;

  /// rows / documents, the fan-out estimate (0 when no documents).
  double MeanRowsPerDocument() const;
};

/// Serialize/parse the PathStats payload (everything after the sidecar
/// header). Public so the serde tests can corrupt precisely.
void AppendPathStatsPayload(const PathStats& stats, std::string* out);
bool ParsePathStatsPayload(std::string_view data, PathStats* out);

/// Per-query stats knobs resolved from ExecOptions; an empty cache_dir
/// keeps the store's current setting (the sidecars land beside the
/// data files, or under storage_cache_dir when that is set — stats
/// sidecars follow the same placement rule as the PR 9 tapes).
struct StatsConfig {
  std::string cache_dir;
};

/// Process-global store of sampled PathStats, keyed by (file path,
/// projected path string) and validated against the live file
/// (size, mtime_ns) on every access — exactly the StorageManager
/// discipline: stale entries drop, sidecars (`.jstats`,
/// signature-stamped, atomically written) warm fresh processes, and a
/// monotonic epoch joins the plan-cache key so cached plans recompile
/// when the stats they were costed against drift.
class StatsStore {
 public:
  static StatsStore& Instance();

  /// The stats for (path, path_str), or null when absent, stale, or
  /// unreadable. Never parses JSON — only a stat and, at most once, a
  /// sidecar read.
  std::shared_ptr<const PathStats> Get(const std::string& path,
                                       const std::string& path_str,
                                       const StatsConfig& cfg);

  /// Installs stats built by a scan over bytes with signature
  /// `built_for`; silently dropped when the live file no longer
  /// matches. Bumps the epoch and writes the sidecar.
  void Put(const std::string& path, const std::string& path_str,
           PathStats stats, const FileSignature& built_for,
           const StatsConfig& cfg);

  /// Monotonic counter bumped when stats are learned or dropped.
  uint64_t epoch() const;

  /// Drops every in-memory entry (sidecars stay). Bumps the epoch.
  void Clear();

  /// Where the sidecar for (path, path_str) lands under `cfg` — public
  /// so the differential tests can corrupt/forge it byte-precisely.
  std::string SidecarPathFor(const std::string& path,
                             const std::string& path_str,
                             const StatsConfig& cfg);

  struct Totals {
    uint64_t files = 0;
    uint64_t paths = 0;
  };
  Totals totals() const;

 private:
  StatsStore() = default;

  struct Entry {
    FileSignature sig;
    std::unordered_map<std::string, std::shared_ptr<const PathStats>> paths;
    std::list<std::string>::iterator lru;
  };

  void ApplyConfigLocked(const StatsConfig& cfg);
  Entry* TouchLocked(const std::string& path);
  void DropEntryLocked(const std::string& path);
  void EvictOverCapLocked();
  std::string SidecarBaseLocked(const std::string& path) const;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  std::string cache_dir_;
  uint64_t epoch_ = 1;
};

}  // namespace jpar

#endif  // JPAR_STATS_COLLECTION_STATS_H_
