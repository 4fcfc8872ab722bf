#include "runtime/spill.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <random>
#include <set>
#include <system_error>
#include <utility>

namespace jpar {

namespace {

constexpr size_t kWriteBufferBytes = 256 * 1024;
constexpr size_t kReadChunkBytes = 256 * 1024;

/// Process-wide counter so concurrent queries (worker pool) never
/// collide on run file names.
std::atomic<uint64_t> g_run_counter{0};

/// Process-unique random token baked into every run file name. The PID
/// alone is not collision-proof when worker processes share a spill_dir:
/// a respawned worker can be handed the PID of a predecessor whose
/// files are still being consumed (or were leaked by a crash). The
/// token makes names unique per process *instance*; each manager still
/// sweeps only the files it created (live_files_).
const std::string& ProcessSpillToken() {
  static const std::string token = [] {
    std::random_device rd;
    uint64_t bits = (static_cast<uint64_t>(rd()) << 32) ^ rd();
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    return std::string(buf);
  }();
  return token;
}

}  // namespace

Result<std::string> ResolveSpillDir(const std::string& dir_hint) {
  std::string dir = dir_hint;
  if (dir.empty()) {
    std::error_code ec;
    std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
    if (ec) {
      return Status::Internal("cannot resolve system temp directory: " +
                              ec.message());
    }
    dir = tmp.string();
  }
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec) || ec) {
    return Status::InvalidArgument("spill_dir is not a directory: " + dir);
  }
  if (access(dir.c_str(), W_OK) != 0) {
    return Status::InvalidArgument("spill_dir is not writable: " + dir);
  }
  return dir;
}

void EncodeTupleTo(const Tuple& t, std::string* out) {
  ItemWriter writer(out);
  writer.Write(Item::Int64(static_cast<int64_t>(t.size())));
  for (const Item& item : t) writer.Write(item);
}

Status DecodeTupleFrom(ItemReader* reader, Tuple* out) {
  JPAR_ASSIGN_OR_RETURN(Item count, reader->Read());
  if (!count.is_int64() || count.int64_value() < 0) {
    return Status::Internal("corrupt spill record: bad tuple arity");
  }
  size_t n = static_cast<size_t>(count.int64_value());
  out->clear();
  out->reserve(n < 4096 ? n : 4096);  // untrusted count: capped reserve
  for (size_t i = 0; i < n; ++i) {
    JPAR_ASSIGN_OR_RETURN(Item item, reader->Read());
    out->push_back(std::move(item));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// SpillManager

int SweepOrphanedSpillFiles(const std::string& dir) {
  int removed = 0;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
    const std::string name = entry.path().filename().string();
    // jpar-spill-<pid>-<token>-<n>.run
    constexpr std::string_view kPrefix = "jpar-spill-";
    constexpr std::string_view kSuffix = ".run";
    if (name.rfind(kPrefix, 0) != 0 || name.size() <= kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    size_t pid_begin = kPrefix.size();
    size_t pid_end = name.find('-', pid_begin);
    if (pid_end == std::string::npos || pid_end == pid_begin) continue;
    pid_t pid = 0;
    bool numeric = true;
    for (size_t i = pid_begin; i < pid_end; ++i) {
      if (name[i] < '0' || name[i] > '9') {
        numeric = false;
        break;
      }
      pid = pid * 10 + (name[i] - '0');
    }
    if (!numeric || pid <= 0) continue;
    // kill(pid, 0) probes existence without signaling; EPERM still
    // means the process exists (someone else's), so only ESRCH counts.
    if (::kill(pid, 0) == 0 || errno != ESRCH) continue;
    std::error_code rm_ec;
    if (std::filesystem::remove(entry.path(), rm_ec) && !rm_ec) ++removed;
  }
  return removed;
}

Result<std::unique_ptr<SpillManager>> SpillManager::Create(
    const std::string& dir_hint, QueryContext* ctx) {
  JPAR_ASSIGN_OR_RETURN(std::string dir, ResolveSpillDir(dir_hint));
  // Reclaim run files leaked by SIGKILLed predecessors — once per
  // directory per process; a per-manager readdir would tax every
  // spilling operator for a startup-hygiene concern.
  {
    static std::mutex swept_mu;
    static std::set<std::string>* swept = new std::set<std::string>();
    bool first;
    {
      std::lock_guard<std::mutex> lock(swept_mu);
      first = swept->insert(dir).second;
    }
    if (first) SweepOrphanedSpillFiles(dir);
  }
  return std::unique_ptr<SpillManager>(new SpillManager(std::move(dir), ctx));
}

SpillManager::~SpillManager() {
  // Best-effort sweep: error paths (cancel, deadline, injected fault)
  // must not leave temp files behind.
  for (const std::string& path : live_files_) {
    std::remove(path.c_str());
  }
}

Result<std::unique_ptr<SpillRunWriter>> SpillManager::NewRun() {
  JPAR_RETURN_NOT_OK(Fault());
  std::string path =
      dir_ + "/jpar-spill-" + std::to_string(::getpid()) + "-" +
      ProcessSpillToken() + "-" +
      std::to_string(g_run_counter.fetch_add(1)) + ".run";
  std::unique_ptr<SpillRunWriter> writer(new SpillRunWriter(this, path));
  writer->out_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer->out_.is_open()) {
    return Status::IOError("cannot create spill run file: " + path);
  }
  live_files_.push_back(std::move(path));
  ++runs_created_;
  return writer;
}

Result<std::unique_ptr<SpillRunReader>> SpillManager::OpenRun(
    const std::string& path) {
  JPAR_RETURN_NOT_OK(Fault());
  std::unique_ptr<SpillRunReader> reader(new SpillRunReader(this, path));
  reader->in_.open(path, std::ios::binary);
  if (!reader->in_.is_open()) {
    return Status::IOError("cannot open spill run file: " + path);
  }
  return reader;
}

void SpillManager::Remove(const std::string& path) {
  std::remove(path.c_str());
  for (size_t i = 0; i < live_files_.size(); ++i) {
    if (live_files_[i] == path) {
      live_files_.erase(live_files_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
}

// ---------------------------------------------------------------------
// SpillRunWriter

Status SpillRunWriter::Append(std::string_view record) {
  JPAR_RETURN_NOT_OK(manager_->Fault());
  if (finished_) {
    return Status::Internal("append to a finished spill run: " + path_);
  }
  ItemWriter::AppendVarint(record.size(), &buffer_);
  buffer_.append(record.data(), record.size());
  ++records_;
  if (buffer_.size() >= kWriteBufferBytes) return FlushBuffer();
  return Status::OK();
}

Status SpillRunWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  if (!out_.good()) {
    return Status::IOError("write to spill run file failed: " + path_);
  }
  manager_->AddBytes(buffer_.size());
  buffer_.clear();
  return Status::OK();
}

Status SpillRunWriter::Finish() {
  if (finished_) return Status::OK();
  JPAR_RETURN_NOT_OK(FlushBuffer());
  out_.close();
  if (out_.fail()) {
    return Status::IOError("close of spill run file failed: " + path_);
  }
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------
// SpillRunReader

Result<bool> SpillRunReader::FillBuffer(size_t need) {
  while (buffer_.size() - pos_ < need && !eof_) {
    // Compact before growing so the buffer stays ~one chunk.
    if (pos_ > 0) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    size_t old = buffer_.size();
    buffer_.resize(old + kReadChunkBytes);
    in_.read(buffer_.data() + old,
             static_cast<std::streamsize>(kReadChunkBytes));
    std::streamsize got = in_.gcount();
    buffer_.resize(old + static_cast<size_t>(got));
    if (got == 0) {
      if (in_.bad()) {
        return Status::IOError("read of spill run file failed: " + path_);
      }
      eof_ = true;
    }
  }
  return buffer_.size() - pos_ >= need;
}

Result<bool> SpillRunReader::Next(std::string* record) {
  JPAR_RETURN_NOT_OK(manager_->Fault());
  // Decode the varint length prefix byte by byte.
  uint64_t len = 0;
  int shift = 0;
  while (true) {
    JPAR_ASSIGN_OR_RETURN(bool have, FillBuffer(1));
    if (!have) {
      if (shift == 0) return false;  // clean end of run
      return Status::Internal("truncated spill record length: " + path_);
    }
    uint8_t byte = static_cast<uint8_t>(buffer_[pos_++]);
    len |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) {
      return Status::Internal("corrupt spill record length: " + path_);
    }
  }
  JPAR_ASSIGN_OR_RETURN(bool have, FillBuffer(static_cast<size_t>(len)));
  if (!have) {
    return Status::Internal("truncated spill record: " + path_);
  }
  record->assign(buffer_.data() + pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return true;
}

}  // namespace jpar
