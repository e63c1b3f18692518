// Persistent second-level cache tier: content-addressed files under one
// directory, keyed by the engine's (stage, ContentKey) pairs with the
// value-codec schema stored alongside. Survives daemon restarts — the warm
// path of the scenario service — while staying crash-safe and self-healing:
//
//   - writes publish atomically (temp sibling + rename, nothing synced),
//     so a reader or a crashed writer sees either the old entry or none,
//     never a torn file. A power loss may leave a renamed entry whose data
//     never reached the disk (empty, zero-filled or cut short); the next
//     bullet turns that into a recompute. Entries are content-addressed and
//     deterministic, so the bytes at a path are the right bytes or garbage;
//   - every read re-validates magic, stage/schema/key echo, payload length
//     and a trailing FNV-1a-64 checksum (trailing, so truncation always
//     breaks it); anything invalid is deleted and reported as a miss, which
//     makes corruption cost a recompute, never a wrong answer;
//   - total payload bytes are LRU-bounded: storing past max_bytes evicts
//     least-recently-used entries (never the one just stored).
//
// store() never throws — a failing disk degrades the service to
// memory-only caching rather than failing scenario computations.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "scenario/memo_cache.hpp"

namespace cnti::service {

struct DiskCacheOptions {
  std::string dir;  ///< Cache directory (created if absent).
  /// Bound on the total size of entry files; least-recently-used entries
  /// are evicted when a store pushes past it.
  std::uint64_t max_bytes = 256ull * 1024 * 1024;
};

struct DiskCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;
  /// Entries deleted because validation failed (corrupt/truncated/stale
  /// schema/key collision across schema versions).
  std::uint64_t corrupt_evictions = 0;
  std::uint64_t lru_evictions = 0;
  std::uint64_t bytes = 0;    ///< Current total size of entry files.
  std::uint64_t entries = 0;  ///< Current entry count.
};

/// Per-stage slice of the disk-tier counters, so a warm-restart gap (one
/// stage missing on disk while its siblings hit) is attributable from the
/// service `stats` verb. LRU evictions and the current bytes/entries sizes
/// stay aggregate-only: eviction picks victims by recency across stages.
struct DiskStageStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;
  std::uint64_t corrupt_evictions = 0;
};

class DiskCache final : public scenario::CacheTier {
 public:
  /// Creates the directory if needed, removes stray atomic-write temp
  /// files from a crashed predecessor, and indexes the surviving entries
  /// (seeded in last-modified order so LRU eviction stays sensible across
  /// restarts). Entry contents are validated lazily, on load.
  explicit DiskCache(DiskCacheOptions options);

  std::optional<std::string> load(std::string_view stage,
                                  std::string_view value_schema,
                                  const scenario::ContentKey& key) override;

  void store(std::string_view stage, std::string_view value_schema,
             const scenario::ContentKey& key,
             std::string_view bytes) override;

  DiskCacheStats stats() const;
  /// Per-stage counter slices; stage keys are the engine's stage names.
  std::map<std::string, DiskStageStats> stats_by_stage() const;
  const std::string& dir() const { return options_.dir; }

 private:
  struct Entry {
    std::uint64_t size = 0;
    std::uint64_t last_use = 0;
  };

  std::string entry_path(std::string_view stage,
                         const scenario::ContentKey& key) const;
  /// Deletes an entry file and drops it from the index. Callers hold mu_.
  void drop_entry(const std::string& path);
  /// Evicts LRU entries until total <= max_bytes, sparing `keep`.
  /// Callers hold mu_.
  void enforce_budget(const std::string& keep);

  DiskCacheOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> index_;  // path -> size/recency
  std::uint64_t total_bytes_ = 0;
  std::uint64_t use_counter_ = 0;
  DiskCacheStats stats_;
  std::map<std::string, DiskStageStats, std::less<>> stage_stats_;
};

}  // namespace cnti::service
