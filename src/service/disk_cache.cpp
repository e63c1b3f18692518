#include "service/disk_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "common/atomic_file.hpp"
#include "obs/obs.hpp"

namespace cnti::service {

namespace fs = std::filesystem;

namespace {

// Record layout (little-endian), one after another in the log:
//   magic[8] | u32 stage_len | stage | u32 schema_len | schema |
//   u64 key.hi | u64 key.lo | u64 payload_len | payload | u64 checksum
// The checksum is FNV-1a-64 over every preceding byte and sits at the
// *end* so any truncation moves or destroys it.
constexpr char kMagic[8] = {'C', 'N', 'T', 'I', 'C', 'A', 'C', '2'};
constexpr char kLogName[] = "entries.log";
/// Bytes a record spends outside its stage, schema and payload.
constexpr std::uint64_t kFrameBytes = sizeof(kMagic) + 4 + 4 + 3 * 8 + 8;
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
/// Window of the startup scan: it never holds more of the log than this.
constexpr std::size_t kScanWindow = 64 * 1024;

/// FNV-1a-64 of `bytes`, continuing from `h` so a hash can be streamed.
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h = kFnvBasis) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Bounds-checked little-endian cursor; any overrun latches failure.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  bool take(std::size_t n, std::string_view* out) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    if (out != nullptr) *out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  bool u32(std::uint32_t* out) {
    std::string_view raw;
    if (!take(4, &raw)) return false;
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(raw[static_cast<size_t>(i)]);
    }
    *out = v;
    return true;
  }

  bool u64(std::uint64_t* out) {
    std::string_view raw;
    if (!take(8, &raw)) return false;
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(raw[static_cast<size_t>(i)]);
    }
    *out = v;
    return true;
  }

  bool done() const { return ok_ && pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

std::string encode_entry(std::string_view stage, std::string_view schema,
                         const scenario::ContentKey& key,
                         std::string_view payload) {
  std::string out;
  out.reserve(sizeof(kMagic) + stage.size() + schema.size() + payload.size() +
              40);
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, static_cast<std::uint32_t>(stage.size()));
  out.append(stage);
  put_u32(out, static_cast<std::uint32_t>(schema.size()));
  out.append(schema);
  put_u64(out, key.hi);
  put_u64(out, key.lo);
  put_u64(out, payload.size());
  out.append(payload);
  put_u64(out, fnv1a64(out));
  return out;
}

/// Validates a raw record against the expected identity; returns the
/// payload, or nullopt on *any* mismatch (corrupt, truncated, different
/// schema version, foreign key).
std::optional<std::string> decode_entry(std::string_view raw,
                                        std::string_view stage,
                                        std::string_view schema,
                                        const scenario::ContentKey& key) {
  if (raw.size() < 8) return std::nullopt;
  const std::string_view body = raw.substr(0, raw.size() - 8);
  Cursor trailer(raw.substr(raw.size() - 8));
  std::uint64_t checksum = 0;
  trailer.u64(&checksum);
  if (checksum != fnv1a64(body)) return std::nullopt;

  Cursor c(body);
  std::string_view magic;
  if (!c.take(sizeof(kMagic), &magic) ||
      magic != std::string_view(kMagic, sizeof(kMagic))) {
    return std::nullopt;
  }
  std::uint32_t len = 0;
  std::string_view got_stage;
  if (!c.u32(&len) || !c.take(len, &got_stage) || got_stage != stage) {
    return std::nullopt;
  }
  std::string_view got_schema;
  if (!c.u32(&len) || !c.take(len, &got_schema) || got_schema != schema) {
    return std::nullopt;
  }
  std::uint64_t hi = 0, lo = 0;
  if (!c.u64(&hi) || !c.u64(&lo) || hi != key.hi || lo != key.lo) {
    return std::nullopt;
  }
  std::uint64_t payload_len = 0;
  std::string_view payload;
  if (!c.u64(&payload_len) || !c.take(payload_len, &payload) || !c.done()) {
    return std::nullopt;
  }
  return std::string(payload);
}

/// Reads exactly `n` bytes at `offset`; false on an error or at EOF.
bool pread_full(int fd, char* out, std::size_t n, std::uint64_t offset) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    n -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

/// Read-ahead window over the first `end` bytes of the log for the startup
/// scan, so the scan's memory grows with neither the log nor a record.
class LogWindow {
 public:
  LogWindow(int fd, std::uint64_t end) : fd_(fd), end_(end) {}

  /// Bytes [offset, offset + n), n <= kScanWindow; nullopt when they run
  /// past the end or cannot be read (then failed() is set).
  std::optional<std::string_view> view(std::uint64_t offset, std::uint64_t n) {
    if (n > kScanWindow || n > end_ || offset > end_ - n) return std::nullopt;
    if (offset < start_ || offset + n > start_ + buf_.size()) {
      buf_.resize(std::min<std::uint64_t>(kScanWindow, end_ - offset));
      start_ = offset;
      if (!pread_full(fd_, buf_.data(), buf_.size(), offset)) {
        buf_.clear();
        failed_ = true;
        return std::nullopt;
      }
    }
    return std::string_view(buf_).substr(offset - start_, n);
  }

  /// FNV-1a-64 of bytes [offset, offset + n), streamed through the window.
  std::optional<std::uint64_t> hash(std::uint64_t offset, std::uint64_t n) {
    std::uint64_t h = kFnvBasis;
    while (n > 0) {
      const std::uint64_t piece = std::min<std::uint64_t>(n, kScanWindow);
      const auto bytes = view(offset, piece);
      if (!bytes) return std::nullopt;
      h = fnv1a64(*bytes, h);
      offset += piece;
      n -= piece;
    }
    return h;
  }

  bool failed() const { return failed_; }
  std::uint64_t end() const { return end_; }

 private:
  int fd_;
  std::uint64_t end_;
  std::uint64_t start_ = 0;
  std::string buf_;
  bool failed_ = false;
};

/// What the startup scan finds at one offset of the log.
struct Frame {
  enum class Kind {
    kRecord,   ///< A whole record whose checksum holds.
    kCorrupt,  ///< An intact frame whose checksum fails: skip `size` bytes.
    kBroken,   ///< Bad magic or a length past the end: the torn tail.
  };
  Kind kind = Kind::kBroken;
  std::uint64_t size = 0;
  std::string stage;
  scenario::ContentKey key;
};

Frame read_frame(LogWindow& log, std::uint64_t at) {
  Frame f;
  const auto head = log.view(at, sizeof(kMagic) + 4);
  if (!head || head->substr(0, sizeof(kMagic)) !=
                   std::string_view(kMagic, sizeof(kMagic))) {
    return f;
  }
  std::uint32_t stage_len = 0;
  Cursor(head->substr(sizeof(kMagic))).u32(&stage_len);
  const std::uint64_t stage_at = at + sizeof(kMagic) + 4;
  const auto stage = log.view(stage_at, stage_len + 4ull);
  if (!stage) return f;
  f.stage = std::string(stage->substr(0, stage_len));
  std::uint32_t schema_len = 0;
  Cursor(stage->substr(stage_len)).u32(&schema_len);
  const auto tail = log.view(stage_at + stage_len + 4 + schema_len, 24);
  if (!tail) return f;
  Cursor c(*tail);
  std::uint64_t payload_len = 0;
  c.u64(&f.key.hi);
  c.u64(&f.key.lo);
  c.u64(&payload_len);
  if (payload_len > log.end()) return f;
  f.size = kFrameBytes + stage_len + schema_len + payload_len;
  const auto trailer = log.view(at + f.size - 8, 8);
  if (!trailer) return f;
  std::uint64_t checksum = 0;
  Cursor(*trailer).u64(&checksum);
  const auto hash = log.hash(at, f.size - 8);
  if (!hash) return f;
  f.kind = *hash == checksum ? Frame::Kind::kRecord : Frame::Kind::kCorrupt;
  return f;
}

/// Disk-tier obs handles (`cnti.cache.disk.*`); process-wide, shared by
/// every DiskCache instance (gauges are last-write-wins).
struct DiskObs {
  obs::Counter hits = obs::counter("cnti.cache.disk.hits");
  obs::Counter misses = obs::counter("cnti.cache.disk.misses");
  obs::Counter stores = obs::counter("cnti.cache.disk.stores");
  obs::Counter store_failures = obs::counter("cnti.cache.disk.store_failures");
  obs::Counter corrupt_evictions =
      obs::counter("cnti.cache.disk.corrupt_evictions");
  obs::Counter lru_evictions = obs::counter("cnti.cache.disk.lru_evictions");
  obs::Counter evicted_bytes = obs::counter("cnti.cache.disk.evicted_bytes");
  obs::Gauge bytes = obs::gauge("cnti.cache.disk.bytes");
  obs::Gauge entries = obs::gauge("cnti.cache.disk.entries");
  obs::Histogram load_hist = obs::histogram("cnti.cache.disk.load_ns");
  obs::Histogram store_hist = obs::histogram("cnti.cache.disk.store_ns");
};

const DiskObs& disk_obs() {
  static const DiskObs handles;
  return handles;
}

}  // namespace

DiskCache::DiskCache(DiskCacheOptions options)
    : options_(std::move(options)),
      log_path_(options_.dir + "/" + kLogName) {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    throw std::runtime_error("disk cache: cannot create directory " +
                             options_.dir + ": " + ec.message());
  }
  // Temps of a crashed compaction never got renamed, and legacy
  // one-file-per-entry `*.cache` files are no longer read: both are
  // garbage (the legacy entries cost a one-time recompute).
  for (const auto& de : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = de.path().filename().string();
    if (de.is_regular_file(ec) &&
        (name.find(kAtomicTempMarker) != std::string::npos ||
         name.ends_with(".cache"))) {
      fs::remove(de.path(), ec);
    }
  }
  fd_ = ::open(log_path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw std::runtime_error("disk cache: cannot open " + log_path_);
  }
  try {
    scan();
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

DiskCache::~DiskCache() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  if (log_bytes_ > live_bytes_) compact();
  ::close(fd_);
}

void DiskCache::scan() {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    throw std::runtime_error("disk cache: cannot stat " + log_path_);
  }
  log_bytes_ = static_cast<std::uint64_t>(st.st_size);
  LogWindow log(fd_, log_bytes_);
  std::uint64_t at = 0;
  bool corrupt = false;
  while (at < log_bytes_) {
    Frame f = read_frame(log, at);
    if (f.kind == Frame::Kind::kBroken) break;
    if (f.kind == Frame::Kind::kRecord) {
      add({std::move(f.stage), f.key}, at, f.size);
    } else {
      // Skipped, so a restart never resurrects it; its stage bytes cannot
      // be trusted, so no stage slice is charged.
      corrupt = true;
      ++stats_.corrupt_evictions;
      disk_obs().corrupt_evictions.add();
    }
    at += f.size;
  }
  if (at < log_bytes_ && !log.failed()) {
    // A broken frame is the torn tail a crash or power loss leaves: cut
    // it, so no later append sits behind it.
    if (::ftruncate(fd_, static_cast<off_t>(at)) != 0) {
      throw std::runtime_error("disk cache: cannot cut the torn tail of " +
                               log_path_);
    }
    log_bytes_ = at;
    ++stats_.corrupt_evictions;
    disk_obs().corrupt_evictions.add();
  }
  enforce_budget(index_.end());
  if (corrupt) {
    compact();
  } else {
    maybe_compact();
  }
  publish_sizes();
}

DiskCache::Index::iterator DiskCache::add(IndexKey key, std::uint64_t offset,
                                          std::uint64_t size) {
  const auto [it, fresh] = index_.try_emplace(std::move(key));
  if (!fresh) live_bytes_ -= it->second.size;  // superseded: dead bytes now
  it->second = Record{offset, size, ++use_counter_};
  live_bytes_ += size;
  return it;
}

void DiskCache::drop(Index::iterator it) {
  disk_obs().evicted_bytes.add(it->second.size);
  live_bytes_ -= it->second.size;
  index_.erase(it);
}

void DiskCache::enforce_budget(Index::const_iterator keep) {
  while (live_bytes_ > options_.max_bytes) {
    auto victim = index_.end();
    for (auto it = index_.begin(); it != index_.end(); ++it) {
      if (it == keep) continue;
      if (victim == index_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == index_.end()) break;
    drop(victim);
    ++stats_.lru_evictions;
    disk_obs().lru_evictions.add();
  }
}

void DiskCache::maybe_compact() {
  if (log_bytes_ > 2 * options_.max_bytes && log_bytes_ > live_bytes_) {
    compact();
  }
}

void DiskCache::compact() {
  try {
    const obs::ObsSpan compact_span("disk.compact", "cache");
    std::vector<Index::iterator> order;
    order.reserve(index_.size());
    for (auto it = index_.begin(); it != index_.end(); ++it) {
      order.push_back(it);
    }
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      return a->second.last_use < b->second.last_use;
    });
    std::vector<std::uint64_t> offsets;
    offsets.reserve(order.size());
    std::uint64_t size = 0;
    write_file_atomic(log_path_, [&](std::ostream& out) {
      std::string record;
      for (const auto& it : order) {
        record.resize(it->second.size);
        if (!pread_full(fd_, record.data(), record.size(),
                        it->second.offset)) {
          throw std::runtime_error("disk cache: cannot read " + log_path_);
        }
        out.write(record.data(), static_cast<std::streamsize>(record.size()));
        offsets.push_back(size);
        size += record.size();
      }
    });
    // Until the new log is open, the old descriptor still reads every
    // record at its old offset, so a failure here loses nothing.
    const int fd = ::open(log_path_.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
    if (fd < 0) return;
    ::close(fd_);
    fd_ = fd;
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i]->second.offset = offsets[i];
    }
    log_bytes_ = size;
  } catch (...) {
    // Best-effort: the old log stays in use, dead bytes and all.
  }
}

void DiskCache::publish_sizes() {
  stats_.entries = index_.size();
  stats_.bytes = live_bytes_;
  disk_obs().entries.set(static_cast<double>(stats_.entries));
  disk_obs().bytes.set(static_cast<double>(stats_.bytes));
}

std::optional<std::string> DiskCache::load(std::string_view stage,
                                           std::string_view value_schema,
                                           const scenario::ContentKey& key) {
  const obs::ObsSpan load_span("disk.load", "cache", disk_obs().load_hist);
  const std::lock_guard<std::mutex> lock(mu_);
  DiskStageStats& slice = stage_stats_[std::string(stage)];
  const auto it = index_.find(IndexKey{std::string(stage), key});
  std::optional<std::string> payload;
  if (it != index_.end()) {
    std::string raw(it->second.size, '\0');
    if (pread_full(fd_, raw.data(), raw.size(), it->second.offset)) {
      payload = decode_entry(raw, stage, value_schema, key);
    }
    if (!payload) {
      // Corrupt, truncated, or written under a different schema version:
      // its record is dead bytes now, and the value is recomputed.
      drop(it);
      publish_sizes();
      ++stats_.corrupt_evictions;
      ++slice.corrupt_evictions;
      disk_obs().corrupt_evictions.add();
    }
  }
  if (!payload) {
    ++stats_.misses;
    ++slice.misses;
    disk_obs().misses.add();
    return std::nullopt;
  }
  it->second.last_use = ++use_counter_;
  ++stats_.hits;
  ++slice.hits;
  disk_obs().hits.add();
  return payload;
}

void DiskCache::store(std::string_view stage, std::string_view value_schema,
                      const scenario::ContentKey& key,
                      std::string_view bytes) {
  const obs::ObsSpan store_span("disk.store", "cache", disk_obs().store_hist);
  const std::string record = encode_entry(stage, value_schema, key, bytes);
  const std::lock_guard<std::mutex> lock(mu_);
  DiskStageStats& slice = stage_stats_[std::string(stage)];
  const ssize_t written =
      fd_ < 0 ? -1 : ::write(fd_, record.data(), record.size());
  // O_APPEND leaves the file offset at the end of what was just written,
  // wherever another instance's appends put it.
  const off_t end = written < 0 ? -1 : ::lseek(fd_, 0, SEEK_CUR);
  if (written != static_cast<ssize_t>(record.size()) || end < 0) {
    if (written > 0) {
      // Roll a short append back: a torn record must never sit in front
      // of later good ones. If even that fails, stop using the log.
      if (end >= 0 && ::ftruncate(fd_, end - written) == 0) {
        log_bytes_ = static_cast<std::uint64_t>(end - written);
      } else {
        ::close(fd_);
        fd_ = -1;
        index_.clear();
        live_bytes_ = 0;
        publish_sizes();
      }
    }
    ++stats_.store_failures;
    ++slice.store_failures;
    disk_obs().store_failures.add();
    return;
  }
  log_bytes_ = static_cast<std::uint64_t>(end);
  const auto it = add({std::string(stage), key}, log_bytes_ - record.size(),
                      record.size());
  ++stats_.stores;
  ++slice.stores;
  disk_obs().stores.add();
  enforce_budget(it);
  maybe_compact();
  publish_sizes();
}
DiskCacheStats DiskCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::map<std::string, DiskStageStats> DiskCache::stats_by_stage() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {stage_stats_.begin(), stage_stats_.end()};
}

}  // namespace cnti::service
