// Persistent second-level cache tier: one append-only log per cache
// directory (`<dir>/entries.log`) of self-validating records keyed by the
// engine's (stage, ContentKey) pairs, with the value-codec schema stored
// alongside. Survives daemon restarts — the warm path of the scenario
// service — while staying crash-safe and self-healing:
//
//   - a store appends one record with one write() and creates no file; an
//     in-memory index maps (stage, key) to the record's offset, size and
//     recency, so a load is one pread() and a miss costs no syscall;
//   - every read re-validates magic, stage/schema/key echo, payload length
//     and a trailing FNV-1a-64 checksum (trailing, so truncation always
//     breaks it); an invalid record is dropped from the index and reported
//     as a miss, which makes corruption cost a recompute, never a wrong
//     answer;
//   - the startup scan indexes records in log order (a later record for a
//     key supersedes an earlier one, and log order is recency). It skips a
//     record whose frame is intact but whose checksum fails, and cuts the
//     log at the first broken frame (bad magic, or a length past the end):
//     the torn tail a crash or power loss leaves behind. Nothing is synced;
//     that validation is the whole crash contract;
//   - live bytes are LRU-bounded by max_bytes: storing past it evicts
//     least-recently-used entries (never the one just stored). Evicted,
//     superseded and corrupt records stay in the log as dead bytes until
//     the log passes 2 × max_bytes; then the live records are rewritten
//     oldest-first and published by rename (write_file_atomic). A clean
//     shutdown compacts a log holding dead bytes, so a restart indexes
//     exactly the live entries in LRU order.
//
// Two live instances on one directory (e.g. two daemons) never read a
// wrong value: O_APPEND keeps each from overwriting the other's records and
// every load re-validates the whole record and its identity. Each indexes
// only what it scanned or stored itself, and a compaction by one orphans
// the other's later appends, so either may miss or lose entries.
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
  /// Bound on the live bytes (the records the index serves); least-
  /// recently-used entries are evicted when a store pushes past it. The
  /// log file itself, dead records included, stays within 2 × max_bytes.
  std::uint64_t max_bytes = 256ull * 1024 * 1024;
};

struct DiskCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;
  /// Records dropped because validation failed (corrupt/truncated/stale
  /// schema/key collision across schema versions), at load or by the
  /// startup scan; a torn tail the scan cuts off counts once.
  std::uint64_t corrupt_evictions = 0;
  std::uint64_t lru_evictions = 0;
  /// Current live bytes: the records the index serves. Dead records may
  /// make the log file up to twice that bound.
  std::uint64_t bytes = 0;
  std::uint64_t entries = 0;  ///< Current entry count.
};

/// Per-stage slice of the disk-tier counters, so a warm-restart gap (one
/// stage missing on disk while its siblings hit) is attributable from the
/// service `stats` verb. LRU evictions and the current bytes/entries sizes
/// stay aggregate-only: eviction picks victims by recency across stages.
/// So do the startup scan's corrupt evictions, whose stage bytes cannot be
/// trusted.
struct DiskStageStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;
  std::uint64_t corrupt_evictions = 0;
};

class DiskCache final : public scenario::CacheTier {
 public:
  /// Creates the directory if needed, removes stray atomic-write temps and
  /// legacy one-file-per-entry `*.cache` files, opens the log and indexes
  /// its records (see the header comment). Throws when the directory or
  /// the log cannot be opened.
  explicit DiskCache(DiskCacheOptions options);
  /// Compacts the log if it holds dead bytes (best-effort) and closes it.
  ~DiskCache() override;

  DiskCache(const DiskCache&) = delete;
  DiskCache& operator=(const DiskCache&) = delete;

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
  using IndexKey = std::pair<std::string, scenario::ContentKey>;
  struct Record {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint64_t last_use = 0;
  };
  using Index = std::map<IndexKey, Record>;

  /// Reads the log and builds the index; cuts a torn tail. Called once by
  /// the constructor.
  void scan();
  /// Indexes the record at `offset` (superseding an older one for the same
  /// key) and bumps the recency counter. Callers hold mu_ or construct.
  Index::iterator add(IndexKey key, std::uint64_t offset, std::uint64_t size);
  /// Drops an index entry; its record becomes dead bytes. Callers hold mu_.
  void drop(Index::iterator it);
  /// Evicts LRU entries until the live bytes fit max_bytes, sparing
  /// `keep`. Callers hold mu_.
  void enforce_budget(Index::const_iterator keep);
  /// Compacts once the log has passed 2 × max_bytes. Callers hold mu_.
  void maybe_compact();
  /// Rewrites the live records oldest-first into a fresh log, published by
  /// rename, and reopens it. On failure the old log stays in use.
  /// Callers hold mu_.
  void compact();
  /// Refreshes the entries/bytes stats and gauges. Callers hold mu_.
  void publish_sizes();

  DiskCacheOptions options_;
  std::string log_path_;
  mutable std::mutex mu_;
  int fd_ = -1;                  // the log, O_APPEND; -1 once disabled
  std::uint64_t log_bytes_ = 0;  // log size as this instance knows it
  Index index_;
  std::uint64_t live_bytes_ = 0;
  std::uint64_t use_counter_ = 0;
  DiskCacheStats stats_;
  std::map<std::string, DiskStageStats, std::less<>> stage_stats_;
};

}  // namespace cnti::service
