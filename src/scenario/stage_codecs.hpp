// StageCodecs for the engine's disk-persisted stage values, plus the
// little-endian byte pack/unpack helpers they are built from. Doubles are
// encoded by bit pattern (bit-identical round trip, the engine's core
// guarantee), integers as fixed-width little-endian words, so an encoded
// entry is byte-identical across platforms/runs — a requirement for
// content-addressed storage shared between processes.
//
// Only *leaf* stage values are persisted (scalars, BusCrosstalkResult,
// ThermalReport, ChannelStage). Heavyweight intermediate artifacts (bare
// bus netlists, parametrized ROMs) stay memory-only: the engine nests
// their computation inside the leaf stages' compute callbacks, so a disk
// hit on the leaf means the intermediate is never rebuilt at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "circuit/crosstalk.hpp"
#include "core/multiscale.hpp"
#include "scenario/memo_cache.hpp"
#include "scenario/stages.hpp"

namespace cnti::scenario {

/// Append-only little-endian byte packer.
class ByteWriter {
 public:
  ByteWriter& u64(std::uint64_t v);
  ByteWriter& f64(double v);
  ByteWriter& i32(int v);
  ByteWriter& boolean(bool v);
  ByteWriter& str(std::string_view s);  ///< u64 length + raw bytes.
  std::string take() { return std::move(buf_); }
  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked reader over an encoded buffer. Reads past the end (or a
/// malformed length) latch ok() to false and return zero values; callers
/// check done() — all bytes consumed and no fault — before trusting the
/// fields. This soft-fail shape is what lets codec decode() return nullopt
/// instead of throwing on stale layouts.
class ByteReader {
 public:
  explicit ByteReader(std::string_view buf) : buf_(buf) {}

  std::uint64_t u64();
  double f64();
  int i32();
  bool boolean();
  std::string str();

  bool ok() const { return ok_; }
  bool done() const { return ok_ && pos_ == buf_.size(); }

 private:
  bool take(std::size_t n);  ///< Advances pos_ or latches ok_ = false.

  std::string_view buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Codec for scalar stage values (TCAD capacitance, MNA delay).
const StageCodec<double>& scalar_codec();

/// Codec for the atomistic channel stage.
const StageCodec<core::ChannelStage>& channel_stage_codec();

/// Codec for bus noise results (both the full-MNA and ROM-evaluated
/// stages store this).
const StageCodec<circuit::BusCrosstalkResult>& bus_result_codec();

/// Codec for the thermal/EM stage report.
const StageCodec<ThermalReport>& thermal_report_codec();

}  // namespace cnti::scenario
