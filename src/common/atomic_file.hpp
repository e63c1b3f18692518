// Atomic file publication: write the full contents to a unique temporary
// sibling, then rename() onto the final path. A concurrent reader, or a
// process that crashes mid-write, therefore only ever observes either the
// old file or the complete new one — never a half-written file at the
// final path. The bench JsonMetricSink publishes its results through this
// one writer, and the service DiskCache publishes each compaction of its
// entry log through it (stores append to the log and create no file).
//
// There is no durability promise across a power loss: nothing is synced
// to stable storage, so afterwards the final path may name a file whose
// data never reached the disk (empty, zero-filled or cut short). Readers
// validate what they read instead. Every DiskCache record carries its own
// length, identity echo and trailing checksum, so such a log is cut back
// at its first broken record and the lost entries are recomputed, never
// returned; a BENCH JSON file cut short fails to parse loudly and the
// bench is rerun. A process crash loses nothing, because the page cache
// survives it.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cnti {

/// Marker every in-flight temporary carries; a crash leaves such files
/// behind, and startup sweeps (e.g. DiskCache's) may delete them freely.
inline constexpr std::string_view kAtomicTempMarker = ".tmp.";

/// Streams the new contents of `path` into a temp sibling through `write`,
/// then renames it into place: readers see the old file or the complete new
/// one. Makes no durability promise across a power loss. Throws when the
/// bytes cannot be published (or rethrows what `write` threw); the target
/// is then left untouched and no temp file remains.
inline void write_file_atomic(const std::string& path,
                              const std::function<void(std::ostream&)>& write) {
  namespace fs = std::filesystem;
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp = path + std::string(kAtomicTempMarker) +
                          std::to_string(::getpid()) + "." +
                          std::to_string(sequence.fetch_add(1));
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("atomic write: cannot create temp file " + tmp);
    }
    try {
      write(out);
    } catch (...) {
      out.close();
      fs::remove(tmp, ec);
      throw;
    }
    out.close();
    if (!out) {
      fs::remove(tmp, ec);
      throw std::runtime_error("atomic write: cannot write " + tmp);
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    const std::string reason = ec.message();
    fs::remove(tmp, ec);
    throw std::runtime_error("atomic write: cannot rename " + tmp + " -> " +
                             path + ": " + reason);
  }
}

/// Writes `bytes` to `path` atomically; see the streaming form above.
inline void write_file_atomic(const std::string& path,
                              std::string_view bytes) {
  write_file_atomic(path, [bytes](std::ostream& out) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
}

}  // namespace cnti
