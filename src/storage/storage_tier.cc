#include "storage/storage_tier.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <utility>

#include "common/env.h"

namespace jpar {

namespace {

constexpr char kTapeMagic[8] = {'J', 'P', 'T', 'A', 'P', 'E', '1', '\n'};
constexpr char kColMagic[8] = {'J', 'P', 'C', 'O', 'L', '1', '\n', '\n'};

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool GetU64(std::string_view data, size_t* pos, uint64_t* v) {
  if (data.size() - *pos < 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(data[*pos + i]))
          << (8 * i);
  }
  *pos += 8;
  return true;
}

/// FNV-1a, hex — names column sidecars per path string and files in an
/// explicit cache dir.
std::string Fnv1aHex(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open collection file: " + path);
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IOError("read failed: " + path);
  return out;
}

/// Best-effort atomic write: temp file in the target directory, then
/// rename. Failures are swallowed — a sidecar is an accelerator, never
/// a correctness dependency.
void WriteSidecar(const std::string& dest, const std::string& bytes) {
  std::string tmp = dest + ".tmp." + std::to_string(::getpid());
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), dest.c_str()) != 0) {
    std::remove(tmp.c_str());
  }
}

Result<std::string> ReadSidecar(const std::string& path) {
  return ReadFileBytes(path);
}

/// Header shared by both sidecar kinds: magic, then the signature of
/// the data file the payload was built from.
void AppendHeader(const char magic[8], const FileSignature& sig,
                  std::string* out) {
  out->append(magic, 8);
  PutU64(sig.size, out);
  PutU64(static_cast<uint64_t>(sig.mtime_ns), out);
}

bool CheckHeader(const char magic[8], const FileSignature& sig,
                 std::string_view data, size_t* pos) {
  if (data.size() < 24 || std::memcmp(data.data(), magic, 8) != 0) {
    return false;
  }
  *pos = 8;
  uint64_t size = 0, mtime = 0;
  if (!GetU64(data, pos, &size) || !GetU64(data, pos, &mtime)) return false;
  return size == sig.size &&
         static_cast<int64_t>(mtime) == sig.mtime_ns;
}

}  // namespace

bool StorageCacheDisabledByEnv() {
  static const bool disabled = EnvFlagSet("JPAR_DISABLE_STORAGE_CACHE");
  return disabled;
}

Result<FileSignature> StatFileSignature(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("cannot stat collection file: " + path);
  }
  FileSignature sig;
  sig.size = static_cast<uint64_t>(st.st_size);
  sig.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                 static_cast<int64_t>(st.st_mtim.tv_nsec);
  return sig;
}

StorageManager& StorageManager::Instance() {
  static StorageManager* instance = new StorageManager();
  return *instance;
}

void StorageManager::ApplyConfigLocked(const StorageConfig& cfg) {
  if (cfg.budget_bytes != 0) budget_bytes_ = cfg.budget_bytes;
  if (!cfg.cache_dir.empty()) cache_dir_ = cfg.cache_dir;
}

StorageManager::Entry* StorageManager::TouchLocked(const std::string& path) {
  auto it = entries_.find(path);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return &it->second;
}

StorageManager::Entry* StorageManager::EnsureEntryLocked(
    const std::string& path, const FileSignature& sig) {
  Entry* e = TouchLocked(path);
  if (e != nullptr && e->sig != sig) {
    DropEntryLocked(path);
    e = nullptr;
  }
  if (e == nullptr) {
    lru_.push_front(path);
    Entry fresh;
    fresh.sig = sig;
    fresh.lru = lru_.begin();
    e = &entries_.emplace(path, std::move(fresh)).first->second;
  }
  return e;
}

void StorageManager::DropEntryLocked(const std::string& path) {
  auto it = entries_.find(path);
  if (it == entries_.end()) return;
  total_bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru);
  entries_.erase(it);
  ++epoch_;
}

void StorageManager::EvictOverBudgetLocked() {
  // Never evict the most-recent entry: the one being served must stay
  // resident even when it alone exceeds the budget.
  while (total_bytes_ > budget_bytes_ && lru_.size() > 1) {
    std::string victim = lru_.back();
    auto it = entries_.find(victim);
    total_bytes_ -= it->second.bytes;
    lru_.pop_back();
    entries_.erase(it);
  }
}

std::string StorageManager::SidecarBaseLocked(const std::string& path) const {
  if (cache_dir_.empty()) return path;
  return cache_dir_ + "/" + Fnv1aHex(path);
}

Result<StorageManager::Tape> StorageManager::AcquireTape(
    const std::string& path, const StorageConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyConfigLocked(cfg);
  JPAR_ASSIGN_OR_RETURN(FileSignature sig, StatFileSignature(path));

  Entry* e = EnsureEntryLocked(path, sig);
  if (e->text != nullptr && e->tape != nullptr) {
    Tape tape;
    tape.text = e->text;
    tape.index = e->tape;
    tape.signature = sig;
    tape.hit = true;
    return tape;
  }

  JPAR_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  auto text = std::make_shared<const std::string>(std::move(bytes));

  // Sidecar first: a valid tape for this exact (size, mtime) skips
  // stage 1 even in a fresh process.
  std::string sidecar_path = SidecarBaseLocked(path) + ".jtape";
  std::shared_ptr<const StructuralIndex> tape_index;
  bool hit = false;
  if (Result<std::string> sidecar = ReadSidecar(sidecar_path); sidecar.ok()) {
    size_t pos = 0;
    StructuralIndex idx;
    if (CheckHeader(kTapeMagic, sig, *sidecar, &pos) &&
        idx.LoadFrom(std::string_view(*sidecar).substr(pos)) &&
        idx.size() == text->size()) {
      tape_index = std::make_shared<const StructuralIndex>(std::move(idx));
      hit = true;
    }
  }
  if (tape_index == nullptr) {
    tape_index = std::make_shared<const StructuralIndex>(
        StructuralIndex::Build(*text));
    std::string sidecar;
    AppendHeader(kTapeMagic, sig, &sidecar);
    tape_index->AppendTo(&sidecar);
    WriteSidecar(sidecar_path, sidecar);
  }

  // Re-resolve the entry: EnsureEntryLocked iterators stay valid under
  // the lock, but be explicit about the accounting delta.
  e = EnsureEntryLocked(path, sig);
  uint64_t added = text->size() + StructuralIndex::SerializedBytes(text->size());
  e->text = text;
  e->tape = tape_index;
  e->bytes += added;
  total_bytes_ += added;
  EvictOverBudgetLocked();

  Tape tape;
  tape.text = text;
  tape.index = tape_index;
  tape.signature = sig;
  tape.hit = hit;
  return tape;
}

std::shared_ptr<const ColumnData> StorageManager::GetColumn(
    const std::string& path, const std::string& path_str,
    const StorageConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyConfigLocked(cfg);
  Result<FileSignature> sig = StatFileSignature(path);
  if (!sig.ok()) return nullptr;

  Entry* e = TouchLocked(path);
  if (e != nullptr && e->sig != *sig) {
    DropEntryLocked(path);
    e = nullptr;
  }
  if (e != nullptr) {
    auto it = e->columns.find(path_str);
    if (it != e->columns.end()) return it->second;
  }

  // Column sidecar: the only disk read on this path, done at most once
  // per (file, path) — a failed load leaves no entry marker, but the
  // subsequent scan installs the column anyway.
  std::string sidecar_path =
      SidecarBaseLocked(path) + "." + Fnv1aHex(path_str) + ".jcol";
  Result<std::string> sidecar = ReadSidecar(sidecar_path);
  if (!sidecar.ok()) return nullptr;
  size_t pos = 0;
  if (!CheckHeader(kColMagic, *sig, *sidecar, &pos)) return nullptr;
  ColumnData col;
  if (!ParseColumnPayload(std::string_view(*sidecar).substr(pos), &col)) {
    return nullptr;
  }
  auto sp = std::make_shared<const ColumnData>(std::move(col));
  e = EnsureEntryLocked(path, *sig);
  e->columns[path_str] = sp;
  e->bytes += sp->bytes;
  total_bytes_ += sp->bytes;
  EvictOverBudgetLocked();
  return sp;
}

void StorageManager::PutColumn(const std::string& path,
                               const std::string& path_str, ColumnData column,
                               const FileSignature& built_for,
                               const StorageConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyConfigLocked(cfg);
  Result<FileSignature> sig = StatFileSignature(path);
  // The scan consumed bytes with signature `built_for`; if the live
  // file moved on since, this column describes bytes that no longer
  // exist — drop it.
  if (!sig.ok() || *sig != built_for) return;

  auto sp = std::make_shared<const ColumnData>(std::move(column));
  Entry* e = EnsureEntryLocked(path, *sig);
  auto it = e->columns.find(path_str);
  if (it != e->columns.end()) {
    // Raced with another scan of the same file+path; keep the winner.
    return;
  }
  e->columns[path_str] = sp;
  e->bytes += sp->bytes;
  total_bytes_ += sp->bytes;
  ++epoch_;

  std::string sidecar;
  AppendHeader(kColMagic, *sig, &sidecar);
  AppendColumnPayload(*sp, &sidecar);
  WriteSidecar(SidecarBaseLocked(path) + "." + Fnv1aHex(path_str) + ".jcol",
               sidecar);
  EvictOverBudgetLocked();
}

uint64_t StorageManager::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void StorageManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  total_bytes_ = 0;
  ++epoch_;
}

StorageManager::Totals StorageManager::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t;
  t.bytes = total_bytes_;
  t.files = entries_.size();
  return t;
}

uint64_t StorageManager::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_bytes_;
}

}  // namespace jpar
