// Statistical-SI studies: deterministic Monte Carlo over a scenario's
// VariabilitySpec, sharded across processes and merged to one report.
//
// Determinism contract (what makes 1-, 2- and 8-shard runs byte-identical):
//   * Sample i's technology point is a pure function of
//     (variability.seed, i): Rng(seed).fork(i).fork(axis) — independent of
//     shard boundaries, thread count and draw order.
//   * Each sample is evaluated on the scenario's driven corner-anchored
//     ParametrizedBusRom (ROM cost per sample; see rom/parametrized_rom.hpp)
//     into per-sample KPI values carried verbatim in the shard report.
//   * reduce_shards validates that the shards exactly partition
//     [0, total_samples), concatenates the per-sample values in global
//     sample order and streams them through one Accumulator — the merge is
//     a pure function of the sample set, not of the shard decomposition.
//
// Shard reports round-trip through JSON with 17-significant-digit numbers
// (bit-exact via the strict service parser); a NaN delay — the
// never-crossed sentinel — is null on the wire and an invalid-sample count
// in the merged study, never a poisoned statistic.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "numerics/stats.hpp"
#include "rom/parametrized_rom.hpp"
#include "scenario/spec.hpp"

namespace cnti::scenario {

/// The axis-scale box a VariabilitySpec spans (the corners the
/// parametrized ROM anchors on). Spans must lie in [0, 1).
rom::BusTechBox tech_box(const VariabilitySpec& spec);

/// Technology point of sample `sample_id`: per-axis uniform multiplicative
/// scales in [1 - span, 1 + span), drawn from
/// Rng(spec.seed).fork(sample_id).fork(axis). Pure function of
/// (spec, sample_id) — the whole determinism contract hangs off this.
rom::BusTechPoint sample_tech_point(const VariabilitySpec& spec,
                                    std::uint64_t sample_id);

/// One shard's worth of a statistical study: per-sample KPI values for the
/// contiguous global sample range [begin, end).
struct StatisticalShard {
  ContentKey study_key{};  ///< content_key of the scenario (incl. spec).
  std::uint64_t total_samples = 0;
  std::uint64_t begin = 0, end = 0;
  std::vector<double> noise_v;  ///< Worst victim peak, sample begin+i.
  std::vector<double> delay_s;  ///< Aggressor 50% delay; NaN = no crossing.
};

/// Merged study statistics. The delay summary covers valid (finite)
/// samples only; delay_invalid counts the NaN-rejected ones. A study whose
/// every delay is invalid carries a zeroed delay summary with count 0.
struct StatisticalStudy {
  ContentKey study_key{};
  std::uint64_t samples = 0;
  std::uint64_t delay_valid = 0, delay_invalid = 0;
  numerics::Summary noise_v{};
  numerics::Summary delay_s{};
};

/// Contiguous sample range of shard `index` out of `count`:
/// [index * total / count, (index + 1) * total / count). Every global
/// sample id lands in exactly one shard for any count >= 1.
std::pair<std::uint64_t, std::uint64_t> shard_range(std::uint64_t total,
                                                    std::uint64_t index,
                                                    std::uint64_t count);

/// Validates that `shards` agree on the study and exactly partition
/// [0, total_samples), then reduces them in global sample order. Throws
/// PreconditionError on overlap, gap, or study mismatch.
StatisticalStudy reduce_shards(std::vector<StatisticalShard> shards);

/// Shard report JSON (schema cnti.shard.v1): bit-exact doubles, NaN delay
/// as null, the study key as a hex string.
void write_shard_json(std::ostream& out, const StatisticalShard& shard);
StatisticalShard read_shard_json(const std::string& text);

/// Merged study report: JSON (schema cnti.study.v1) and a summary CSV of
/// one row per KPI. Byte-identical for byte-identical studies.
void write_study_json(std::ostream& out, const StatisticalStudy& study);
void write_study_csv(std::ostream& out, const StatisticalStudy& study);

}  // namespace cnti::scenario
