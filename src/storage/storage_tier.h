#ifndef JPAR_STORAGE_STORAGE_TIER_H_
#define JPAR_STORAGE_STORAGE_TIER_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "json/structural_index.h"
#include "storage/column_store.h"

namespace jpar {

/// Which warm-storage access paths a query may use (DESIGN.md §14).
///   kAuto     — tapes + columns; the default.
///   kOff      — always cold: no cache reads, no cache builds.
///   kTape     — structural-index tapes only; columns neither built
///               nor read (isolates the stage-1 win in benchmarks).
///   kColumnar — tapes + columns, same surface as kAuto but explicit.
/// The JPAR_DISABLE_STORAGE_CACHE environment variable overrides every
/// mode to kOff — the operational kill-switch, mirroring
/// JPAR_DISABLE_EXPR_BYTECODE.
enum class StorageMode : uint8_t { kAuto = 0, kOff = 1, kTape = 2,
                                   kColumnar = 3 };

/// True when JPAR_DISABLE_STORAGE_CACHE is set per EnvFlagSet (checked
/// once).
bool StorageCacheDisabledByEnv();

/// Per-query view of the manager's knobs, resolved from ExecOptions.
/// Zero/empty fields keep the manager's current (process-global)
/// setting; nonzero/nonempty fields update it — last writer wins, as
/// the cache itself is process-global.
struct StorageConfig {
  uint64_t budget_bytes = 0;
  std::string cache_dir;
};

/// Identity of the bytes a cache entry was built over. Two stats with
/// equal (size, mtime_ns) are presumed to be the same content — the
/// standard sidecar-cache tradeoff; any size change or mtime tick
/// invalidates.
struct FileSignature {
  uint64_t size = 0;
  int64_t mtime_ns = 0;

  friend bool operator==(const FileSignature& a, const FileSignature& b) {
    return a.size == b.size && a.mtime_ns == b.mtime_ns;
  }
  friend bool operator!=(const FileSignature& a, const FileSignature& b) {
    return !(a == b);
  }
};

/// Process-global two-level cache over collection files (DESIGN.md
/// §14): level 1 holds file bytes + the stage-1 structural-index tape,
/// level 2 holds per-path shredded columns with zone maps. Entries are
/// keyed by file path and validated against the live (size, mtime) on
/// every access; both levels persist to sidecar files so a fresh
/// process (or a distributed worker on the same host) warms from disk
/// instead of re-running stage 1. All methods are thread-safe; builds
/// run under the manager lock, so concurrent queries racing to build
/// the same tape serialize into one build plus hits.
class StorageManager {
 public:
  static StorageManager& Instance();

  /// A level-1 serving: the file's bytes plus its stage-1 tape. `hit`
  /// distinguishes cache/sidecar reuse from a fresh build (the
  /// tape_hits / tape_builds counters). `signature` is what the entry
  /// was validated against — pass it back to PutColumn so columns
  /// built from these bytes are dropped if the file changed mid-scan.
  struct Tape {
    std::shared_ptr<const std::string> text;
    std::shared_ptr<const StructuralIndex> index;
    FileSignature signature;
    bool hit = false;
  };

  /// Returns text + tape for `path`, building and caching on first
  /// use. A stale entry (file drifted) is dropped and rebuilt. Errors
  /// only when the file cannot be stat'ed or read.
  Result<Tape> AcquireTape(const std::string& path, const StorageConfig& cfg);

  /// The cached column for (file, projected-path string), or null when
  /// absent or stale. Never touches the file's JSON bytes — only a
  /// stat and, at most once, a column sidecar read.
  std::shared_ptr<const ColumnData> GetColumn(const std::string& path,
                                              const std::string& path_str,
                                              const StorageConfig& cfg);

  /// Installs a column built by a scan that consumed bytes with
  /// signature `built_for`; silently dropped when the live file no
  /// longer matches. Bumps the epoch.
  void PutColumn(const std::string& path, const std::string& path_str,
                 ColumnData column, const FileSignature& built_for,
                 const StorageConfig& cfg);

  /// Monotonic counter bumped when the tier learns a column or drops a
  /// stale entry; joins the plan-cache key so cached plans revalidate
  /// their access-path assumptions as the tier evolves.
  uint64_t epoch() const;

  /// Drops every in-memory entry (sidecar files stay — they are the
  /// persistence layer). Tests use this to simulate a fresh process.
  void Clear();

  struct Totals {
    uint64_t bytes = 0;
    uint64_t files = 0;
  };
  Totals totals() const;

  uint64_t budget_bytes() const;

 private:
  StorageManager() = default;

  struct Entry {
    FileSignature sig;
    std::shared_ptr<const std::string> text;
    std::shared_ptr<const StructuralIndex> tape;
    std::map<std::string, std::shared_ptr<const ColumnData>> columns;
    uint64_t bytes = 0;
    std::list<std::string>::iterator lru;
  };

  void ApplyConfigLocked(const StorageConfig& cfg);
  Entry* TouchLocked(const std::string& path);
  Entry* EnsureEntryLocked(const std::string& path, const FileSignature& sig);
  void DropEntryLocked(const std::string& path);
  void EvictOverBudgetLocked();
  std::string SidecarBaseLocked(const std::string& path) const;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  uint64_t total_bytes_ = 0;
  uint64_t budget_bytes_ = 256ull << 20;
  std::string cache_dir_;
  uint64_t epoch_ = 1;
};

/// Stats `path`; ok=false in the signature-holder sense is expressed by
/// the nullopt-like Result: NotFound / IOError when the file is absent
/// or unreadable.
Result<FileSignature> StatFileSignature(const std::string& path);

}  // namespace jpar

#endif  // JPAR_STORAGE_STORAGE_TIER_H_
