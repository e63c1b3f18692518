// Scenario service tests: the JSON wire parser, the Scenario/Result
// serialization round trips (bit-identical doubles), the atomic file
// writer, the crash-safe disk cache (corruption/truncation/version and
// power-loss eviction, LRU bounds and recency, restart persistence), the
// MemoCache tier integration, and the daemon
// itself — including the acceptance contract that N concurrent wire
// clients receive results bit-identical to direct ScenarioEngine::run
// calls, cold or warm.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/json_sink.hpp"
#include "obs/obs.hpp"
#include "scenario/engine.hpp"
#include "scenario/stage_codecs.hpp"
#include "service/client.hpp"
#include "service/disk_cache.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace fs = std::filesystem;
namespace sc = cnti::scenario;
namespace sv = cnti::service;

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Unique scratch directory, removed on scope exit.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "cnti_service_XXXXXX").string();
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Small but full-coverage scenario: every disk-persisted stage engaged
/// (TCAD capacitance, MNA delay, ROM bus noise, thermal) on a tiny grid.
sc::Scenario full_scenario(int i = 0) {
  sc::Scenario s;
  s.label = "svc/" + std::to_string(i);
  s.tech.capacitance_model = sc::CapacitanceModel::kTcad;
  s.tech.dopant_concentration = 0.5;
  s.tech.contact_resistance_kohm = 20.0;
  s.workload.length_um = 20.0 + 5.0 * i;
  s.workload.driver_resistance_kohm = 5.0;
  s.workload.bus_lines = 4;
  s.workload.bus_segments = 8;
  s.analysis.delay_model = sc::DelayModel::kMnaTransient;
  s.analysis.delay_segments = 6;
  s.analysis.noise = true;
  s.analysis.thermal = true;
  s.analysis.time_steps = 150;
  return s;
}

std::vector<sc::Scenario> full_batch(int n) {
  std::vector<sc::Scenario> batch;
  for (int i = 0; i < n; ++i) batch.push_back(full_scenario(i));
  return batch;
}

void expect_bit_identical(const sc::ScenarioResult& a,
                          const sc::ScenarioResult& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(bits(a.line.fermi_shift_ev), bits(b.line.fermi_shift_ev));
  EXPECT_EQ(bits(a.line.channels_per_shell), bits(b.line.channels_per_shell));
  EXPECT_EQ(bits(a.line.mfp_um), bits(b.line.mfp_um));
  EXPECT_EQ(a.line.shells, b.line.shells);
  EXPECT_EQ(bits(a.line.resistance_kohm), bits(b.line.resistance_kohm));
  EXPECT_EQ(bits(a.line.capacitance_ff), bits(b.line.capacitance_ff));
  EXPECT_EQ(bits(a.line.electrostatic_cap_af_per_um),
            bits(b.line.electrostatic_cap_af_per_um));
  EXPECT_EQ(bits(a.line.delay_ps), bits(b.line.delay_ps));
  EXPECT_EQ(a.line.delay_method, b.line.delay_method);
  ASSERT_EQ(a.noise.has_value(), b.noise.has_value());
  if (a.noise) {
    EXPECT_EQ(bits(a.noise->peak_noise_v), bits(b.noise->peak_noise_v));
    EXPECT_EQ(bits(a.noise->peak_time_s), bits(b.noise->peak_time_s));
    EXPECT_EQ(a.noise->worst_victim, b.noise->worst_victim);
    EXPECT_EQ(bits(a.noise->aggressor_delay_s),
              bits(b.noise->aggressor_delay_s));
    EXPECT_EQ(a.noise->unknowns, b.noise->unknowns);
  }
  ASSERT_EQ(a.thermal.has_value(), b.thermal.has_value());
  if (a.thermal) {
    EXPECT_EQ(bits(a.thermal->peak_rise_k), bits(b.thermal->peak_rise_k));
    EXPECT_EQ(bits(a.thermal->hot_resistance_kohm),
              bits(b.thermal->hot_resistance_kohm));
    EXPECT_EQ(a.thermal->thermal_runaway, b.thermal->thermal_runaway);
    EXPECT_EQ(bits(a.thermal->ampacity_ua), bits(b.thermal->ampacity_ua));
    EXPECT_EQ(bits(a.thermal->current_density_a_cm2),
              bits(b.thermal->current_density_a_cm2));
    EXPECT_EQ(a.thermal->cnt_em_immune, b.thermal->cnt_em_immune);
    EXPECT_EQ(bits(a.thermal->cu_reference_mttf_s),
              bits(b.thermal->cu_reference_mttf_s));
  }
}

/// Raw wire access for protocol-level tests the typed client can't
/// express (malformed lines, schema-violating requests).
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  /// Best-effort framed send (a server-side close surfaces on read_line).
  void send_line(const std::string& body) {
    std::string framed = body + "\n";
    std::string_view rest = framed;
    while (!rest.empty()) {
      const ssize_t n = ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
      if (n <= 0) return;
      rest.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  std::string read_line() {
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::size_t nl = buffer_.find('\n');
    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return line;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Wire JSON parser.

TEST(ServiceJson, ParsesScalarsArraysAndNestedObjects) {
  const sv::JsonValue v = sv::parse_json(
      R"({"a": 1.5, "b": [true, false, null, "x"], "c": {"d": -2}})");
  EXPECT_EQ(v.at("a").as_number(), 1.5);
  const auto& arr = v.at("b").as_array();
  ASSERT_EQ(arr.size(), 4u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_FALSE(arr[1].as_bool());
  EXPECT_TRUE(arr[2].is_null());
  EXPECT_EQ(arr[3].as_string(), "x");
  EXPECT_EQ(v.at("c").at("d").as_number(), -2.0);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), sv::ProtocolError);
  EXPECT_THROW(v.at("a").as_string(), sv::ProtocolError);
}

TEST(ServiceJson, NumbersRoundTripDoubleBitsAt17Digits) {
  const double values[] = {1.0 / 3.0,  2.0 / 7.0, 1e-300,
                           6.02214e23, -0.0,      123456.789012345678};
  for (const double v : values) {
    const std::string text = cnti::json_number(v);
    const double back = sv::parse_json(text).as_number();
    EXPECT_EQ(bits(back), bits(v)) << text;
  }
}

TEST(ServiceJson, DecodesEscapesIncludingSurrogatePairs) {
  const sv::JsonValue v =
      sv::parse_json(R"("a\"b\\c\ndAé中😀")");
  EXPECT_EQ(v.as_string(),
            "a\"b\\c\nd"
            "A\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80");
}

TEST(ServiceJson, RejectsMalformedDocuments) {
  EXPECT_THROW(sv::parse_json("{"), sv::ProtocolError);
  EXPECT_THROW(sv::parse_json("{} trailing"), sv::ProtocolError);
  EXPECT_THROW(sv::parse_json(R"({"a": 1, "a": 2})"), sv::ProtocolError);
  EXPECT_THROW(sv::parse_json("\"\x01\""), sv::ProtocolError);
  EXPECT_THROW(sv::parse_json(R"("\ud800 lonely")"), sv::ProtocolError);
  EXPECT_THROW(sv::parse_json("truthy"), sv::ProtocolError);
  EXPECT_THROW(sv::parse_json("1.2.3"), sv::ProtocolError);
  EXPECT_THROW(sv::parse_json(""), sv::ProtocolError);
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_THROW(sv::parse_json(deep), sv::ProtocolError);
}

// ---------------------------------------------------------------------------
// Scenario / result wire serialization.

TEST(ServiceProtocol, ScenarioRoundTripPreservesContentKeyAndLabel) {
  sc::Scenario s = full_scenario(3);
  s.label = "weird \"label\"\nwith breaks";
  s.tech.dopant = cnti::atomistic::DopantSpecies::kPtCl4External;
  s.analysis.noise_model = sc::NoiseModel::kFullMna;
  const sc::Scenario back =
      sv::scenario_from_json(sv::parse_json(sv::scenario_to_json(s)));
  EXPECT_EQ(back.label, s.label);
  EXPECT_EQ(sc::content_key(back), sc::content_key(s));
  EXPECT_EQ(sc::content_key(back.tech), sc::content_key(s.tech));
  EXPECT_EQ(sc::content_key(back.workload), sc::content_key(s.workload));
  EXPECT_EQ(sc::content_key(back.analysis), sc::content_key(s.analysis));
}

TEST(ServiceProtocol, AbsentScenarioMembersKeepSpecDefaults) {
  const sc::Scenario parsed = sv::scenario_from_json(sv::parse_json("{}"));
  EXPECT_EQ(sc::content_key(parsed), sc::content_key(sc::Scenario{}));
  const sc::Scenario partial = sv::scenario_from_json(
      sv::parse_json(R"({"workload": {"length_um": 42.0}})"));
  EXPECT_EQ(partial.workload.length_um, 42.0);
  EXPECT_EQ(partial.workload.bus_lines, sc::WorkloadSpec{}.bus_lines);
}

TEST(ServiceProtocol, UnknownMembersAreRejectedEverywhere) {
  EXPECT_THROW(sv::scenario_from_json(sv::parse_json(R"({"bogus": 1})")),
               sv::ProtocolError);
  EXPECT_THROW(
      sv::scenario_from_json(sv::parse_json(R"({"tech": {"lenght": 1}})")),
      sv::ProtocolError);
  EXPECT_THROW(sv::scenario_from_json(sv::parse_json(
                   R"({"analysis": {"delay_segments": 1.5}})")),
               sv::ProtocolError);
  EXPECT_THROW(sv::scenario_from_json(sv::parse_json(
                   R"({"tech": {"dopant": "unobtainium"}})")),
               sv::ProtocolError);
}

TEST(ServiceProtocol, VariabilityRoundTripsIncludingFullWidthSeed) {
  sc::Scenario s = full_scenario(2);
  // A seed above 2^53 would lose low bits as a JSON double; the wire
  // carries it as a 16-hex-digit string instead.
  s.variability.seed = 0xdeadbeefcafebabeULL;
  s.variability.samples = 100000;
  s.variability.resistance_span = 0.15;
  s.variability.capacitance_span = 0.05;
  s.variability.coupling_span = 0.25;
  const std::string wire = sv::scenario_to_json(s);
  EXPECT_NE(wire.find("\"deadbeefcafebabe\""), std::string::npos);
  const sc::Scenario back = sv::scenario_from_json(sv::parse_json(wire));
  EXPECT_EQ(back.variability.seed, s.variability.seed);
  EXPECT_EQ(back.variability.samples, s.variability.samples);
  EXPECT_EQ(bits(back.variability.resistance_span),
            bits(s.variability.resistance_span));
  EXPECT_EQ(bits(back.variability.capacitance_span),
            bits(s.variability.capacitance_span));
  EXPECT_EQ(bits(back.variability.coupling_span),
            bits(s.variability.coupling_span));
  EXPECT_EQ(sc::content_key(back), sc::content_key(s));
  EXPECT_EQ(sc::content_key(back.variability), sc::content_key(s.variability));
}

TEST(ServiceProtocol, VariabilityRejectsUnknownMembersAndBadSeeds) {
  EXPECT_THROW(sv::scenario_from_json(sv::parse_json(
                   R"({"variability": {"sample": 3}})")),
               sv::ProtocolError);
  EXPECT_THROW(sv::scenario_from_json(sv::parse_json(
                   R"({"variability": {"seed": "not-hex-at-all!"}})")),
               sv::ProtocolError);
  EXPECT_THROW(sv::scenario_from_json(sv::parse_json(
                   R"({"variability": {"seed": 17}})")),
               sv::ProtocolError);
}

TEST(ServiceProtocol, NullAggressorDelayParsesBackToNaN) {
  sc::ScenarioResult r;
  r.label = "never-crossed";
  r.noise.emplace();
  r.noise->peak_noise_v = 0.012;
  r.noise->worst_victim = 1;
  r.noise->aggressor_delay_s = std::nan("");
  const std::string wire = sv::result_to_json(r);
  EXPECT_NE(wire.find("\"aggressor_delay_s\": null"), std::string::npos);
  const sc::ScenarioResult back = sv::result_from_json(sv::parse_json(wire));
  ASSERT_TRUE(back.noise.has_value());
  EXPECT_TRUE(std::isnan(back.noise->aggressor_delay_s));
  EXPECT_EQ(bits(back.noise->peak_noise_v), bits(r.noise->peak_noise_v));
  // And the round trip is stable: serializing again yields the same wire.
  EXPECT_EQ(sv::result_to_json(back), wire);
}

TEST(ServiceProtocol, ResultRoundTripIsBitIdentical) {
  const sc::ScenarioEngine engine;
  const sc::ScenarioResult r = engine.run(full_scenario());
  ASSERT_TRUE(r.noise.has_value());
  ASSERT_TRUE(r.thermal.has_value());
  const sc::ScenarioResult back =
      sv::result_from_json(sv::parse_json(sv::result_to_json(r)));
  expect_bit_identical(back, r);
}

TEST(ServiceProtocol, EnumWireNamesRoundTrip) {
  using cnti::atomistic::DopantSpecies;
  for (const auto d :
       {DopantSpecies::kIodineInternal, DopantSpecies::kIodineExternal,
        DopantSpecies::kPtCl4External, DopantSpecies::kPtClInternal}) {
    EXPECT_EQ(sv::dopant_from_wire(sv::to_wire(d)), d);
  }
  for (const auto m :
       {sc::CapacitanceModel::kAnalytic, sc::CapacitanceModel::kTcad}) {
    EXPECT_EQ(sv::capacitance_model_from_wire(sv::to_wire(m)), m);
  }
  for (const auto m :
       {sc::DelayModel::kElmore, sc::DelayModel::kMnaTransient}) {
    EXPECT_EQ(sv::delay_model_from_wire(sv::to_wire(m)), m);
  }
  for (const auto m :
       {sc::NoiseModel::kReducedOrder, sc::NoiseModel::kFullMna}) {
    EXPECT_EQ(sv::noise_model_from_wire(sv::to_wire(m)), m);
  }
}

// ---------------------------------------------------------------------------
// Atomic publication.

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(AtomicFile, OverwriteLeavesExactlyTheNewBytes) {
  const TempDir dir;
  const std::string path = dir.path() + "/target.bin";
  cnti::write_file_atomic(path, std::string(4096, 'o'));
  const std::string fresh("new\0bytes", 9);
  cnti::write_file_atomic(path, fresh);
  EXPECT_EQ(read_all(path), fresh);
  cnti::write_file_atomic(path, "");
  EXPECT_EQ(fs::file_size(path), 0u);
}

TEST(AtomicFile, NoTempSiblingRemainsAfterSuccess) {
  const TempDir dir;
  for (int i = 0; i < 3; ++i) {
    cnti::write_file_atomic(dir.path() + "/f" + std::to_string(i), "bytes");
  }
  cnti::write_file_atomic(dir.path() + "/f0", "overwritten");
  std::vector<std::string> names;
  for (const auto& de : fs::directory_iterator(dir.path())) {
    names.push_back(de.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"f0", "f1", "f2"}));
}

TEST(AtomicFile, MissingDirectoryThrowsAndLeavesNoTempFile) {
  const TempDir dir;
  const std::string missing = dir.path() + "/absent";
  EXPECT_THROW(cnti::write_file_atomic(missing + "/target.bin", "bytes"),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(missing));
  EXPECT_TRUE(fs::is_empty(dir.path()));
}

// ---------------------------------------------------------------------------
// Disk cache.

sc::ContentKey test_key(int i) {
  return sc::KeyHasher("test.v1").add(i).key();
}

/// The cache directory's one file: the append-only log of records.
fs::path log_of(const std::string& dir) {
  return fs::path(dir) / "entries.log";
}

/// Byte range [begin, end) of one record in the log.
struct RecordSpan {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// The log's records, found by the 8-byte magic each one opens with.
std::vector<RecordSpan> records_of(const fs::path& log) {
  const std::string bytes = read_all(log.string());
  const std::string_view magic = "CNTICAC2";
  std::vector<RecordSpan> out;
  for (auto at = bytes.find(magic); at != std::string::npos;
       at = bytes.find(magic, at + 1)) {
    if (!out.empty()) out.back().end = at;
    out.push_back({at, bytes.size()});
  }
  return out;
}

/// Zero-fills one record in place: what a power loss leaves when the log's
/// size reached the disk but the record's data did not.
void zero_fill(const fs::path& log, const RecordSpan& r) {
  std::fstream f(log, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(r.begin));
  f << std::string(r.end - r.begin, '\0');
}

/// XORs a record's last payload byte (the 8-byte checksum trailer follows
/// it), leaving its frame intact and its checksum broken.
void flip_payload_byte(const fs::path& log, const RecordSpan& r) {
  std::fstream f(log, std::ios::in | std::ios::out | std::ios::binary);
  const auto at = static_cast<std::streamoff>(r.end - 9);
  f.seekg(at);
  const char c = static_cast<char>(f.get());
  f.seekp(at);
  f.put(static_cast<char>(c ^ 0x5a));
}

/// Cuts the log in the middle of a record, as a power loss does when only
/// part of an append reached the disk.
void cut_mid(const fs::path& log, const RecordSpan& r) {
  fs::resize_file(log, (r.begin + r.end) / 2);
}

/// Damages one record of the log in place.
using RecordDamage = std::function<void(const fs::path&, const RecordSpan&)>;

/// Names of the files in a directory, sorted.
std::vector<std::string> files_in(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& de : fs::directory_iterator(dir)) {
    names.push_back(de.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(DiskCache, StoreLoadRoundTripAndStats) {
  const TempDir dir;
  sv::DiskCache cache({dir.path()});
  EXPECT_FALSE(cache.load("stage", "s.v1", test_key(1)).has_value());
  cache.store("stage", "s.v1", test_key(1), "payload bytes");
  const auto loaded = cache.load("stage", "s.v1", test_key(1));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "payload bytes");
  const sv::DiskCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.stores, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.bytes, 0u);
}

TEST(DiskCache, PerStageStatSlicesSumToTheAggregateCounters) {
  const TempDir dir;
  sv::DiskCache cache({dir.path()});
  EXPECT_TRUE(cache.stats_by_stage().empty());

  cache.store("alpha", "s.v1", test_key(1), "a");
  cache.store("beta", "s.v1", test_key(2), "b");
  EXPECT_FALSE(cache.load("alpha", "s.v1", test_key(9)).has_value());
  EXPECT_TRUE(cache.load("alpha", "s.v1", test_key(1)).has_value());
  EXPECT_TRUE(cache.load("beta", "s.v1", test_key(2)).has_value());
  // A schema bump on beta's entry reads as a corrupt eviction + miss,
  // attributed to beta only.
  EXPECT_FALSE(cache.load("beta", "s.v2", test_key(2)).has_value());

  const auto by_stage = cache.stats_by_stage();
  ASSERT_EQ(by_stage.size(), 2u);
  const sv::DiskStageStats& alpha = by_stage.at("alpha");
  EXPECT_EQ(alpha.hits, 1u);
  EXPECT_EQ(alpha.misses, 1u);
  EXPECT_EQ(alpha.stores, 1u);
  EXPECT_EQ(alpha.corrupt_evictions, 0u);
  const sv::DiskStageStats& beta = by_stage.at("beta");
  EXPECT_EQ(beta.hits, 1u);
  EXPECT_EQ(beta.misses, 1u);
  EXPECT_EQ(beta.stores, 1u);
  EXPECT_EQ(beta.corrupt_evictions, 1u);

  // The sliced counters partition the aggregates exactly.
  const sv::DiskCacheStats total = cache.stats();
  EXPECT_EQ(alpha.hits + beta.hits, total.hits);
  EXPECT_EQ(alpha.misses + beta.misses, total.misses);
  EXPECT_EQ(alpha.stores + beta.stores, total.stores);
  EXPECT_EQ(alpha.store_failures + beta.store_failures,
            total.store_failures);
  EXPECT_EQ(alpha.corrupt_evictions + beta.corrupt_evictions,
            total.corrupt_evictions);
}

TEST(DiskCache, PersistsAcrossInstances) {
  const TempDir dir;
  {
    sv::DiskCache cache({dir.path()});
    cache.store("stage", "s.v1", test_key(7), "survives restart");
  }
  sv::DiskCache reborn({dir.path()});
  const auto loaded = reborn.load("stage", "s.v1", test_key(7));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "survives restart");
  EXPECT_EQ(reborn.stats().entries, 1u);
}

TEST(DiskCache, WrongValueSchemaVersionIsEvictedAsStale) {
  const TempDir dir;
  sv::DiskCache cache({dir.path()});
  cache.store("stage", "s.v1", test_key(2), "old layout");
  // A value-schema bump must read as a clean miss (the stale file is
  // removed, never misdecoded).
  EXPECT_FALSE(cache.load("stage", "s.v2", test_key(2)).has_value());
  EXPECT_EQ(cache.stats().corrupt_evictions, 1u);
  EXPECT_FALSE(cache.load("stage", "s.v1", test_key(2)).has_value());
}

TEST(DiskCache, CorruptAndTruncatedEntriesAreEvicted) {
  const TempDir dir;
  const fs::path log = log_of(dir.path());
  {
    sv::DiskCache cache({dir.path()});
    cache.store("stage", "s.v1", test_key(3), "corrupt me");
    cache.store("stage", "s.v1", test_key(4), "truncate me");
    const auto records = records_of(log);
    ASSERT_EQ(records.size(), 2u);
    flip_payload_byte(log, records[0]);
    cut_mid(log, records[1]);

    EXPECT_FALSE(cache.load("stage", "s.v1", test_key(3)).has_value());
    EXPECT_FALSE(cache.load("stage", "s.v1", test_key(4)).has_value());
    EXPECT_EQ(cache.stats().corrupt_evictions, 2u);
    EXPECT_EQ(cache.stats().entries, 0u);
  }
  // The clean shutdown compacted both dead records away: nothing comes
  // back, and nothing is left to count.
  sv::DiskCache reborn({dir.path()});
  EXPECT_EQ(reborn.stats().corrupt_evictions, 0u);
  EXPECT_EQ(reborn.stats().entries, 0u);
  EXPECT_FALSE(reborn.load("stage", "s.v1", test_key(3)).has_value());
  EXPECT_FALSE(reborn.load("stage", "s.v1", test_key(4)).has_value());
  EXPECT_EQ(fs::file_size(log), 0u);
}

TEST(DiskCache, LruEvictionKeepsRecentEntriesUnderTheByteBudget) {
  const TempDir dir;
  sv::DiskCacheOptions options;
  options.dir = dir.path();
  const std::string payload(64, 'p');
  // Room for roughly three entries (payload + ~60B header per entry).
  options.max_bytes = 400;
  sv::DiskCache cache(options);
  for (int i = 0; i < 6; ++i) {
    cache.store("stage", "s.v1", test_key(i), payload);
  }
  const sv::DiskCacheStats st = cache.stats();
  EXPECT_GT(st.lru_evictions, 0u);
  EXPECT_LE(st.bytes, options.max_bytes);
  // The newest entry always survives; the oldest is gone.
  EXPECT_TRUE(cache.load("stage", "s.v1", test_key(5)).has_value());
  EXPECT_FALSE(cache.load("stage", "s.v1", test_key(0)).has_value());
}

TEST(DiskCache, PowerLossShapesAtTheFinalPathReadAsHealingMisses) {
  const std::string payload = "lost in a power cut";
  const std::vector<std::pair<std::string, RecordDamage>> shapes = {
      {"zero-filled", zero_fill},
      // The payload and the 8-byte checksum trailer are lost.
      {"cut to header",
       [&](const fs::path& log, const RecordSpan& r) {
         fs::resize_file(log, r.end - payload.size() - 8);
       }},
      {"never written", [](const fs::path& log, const RecordSpan& r) {
         fs::resize_file(log, r.begin);
       }}};
  for (const auto& [name, vandalize] : shapes) {
    SCOPED_TRACE(name);
    const TempDir dir;
    const fs::path log = log_of(dir.path());
    std::uint64_t first_record = 0;
    {
      sv::DiskCache cache({dir.path()});
      cache.store("stage", "s.v1", test_key(4), "written before");
      first_record = fs::file_size(log);
      cache.store("stage", "s.v1", test_key(5), payload);
      const std::string intact = read_all(log.string());
      vandalize(log, records_of(log).back());
      ASSERT_NE(read_all(log.string()), intact);

      EXPECT_FALSE(cache.load("stage", "s.v1", test_key(5)).has_value());
      const sv::DiskCacheStats st = cache.stats();
      EXPECT_EQ(st.corrupt_evictions, 1u);
      EXPECT_EQ(st.misses, 1u);
      EXPECT_EQ(st.entries, 1u);
    }
    // The clean shutdown compacted the log down to the record that stayed
    // whole, and only that one comes back.
    EXPECT_EQ(fs::file_size(log), first_record);
    sv::DiskCache reborn({dir.path()});
    EXPECT_EQ(reborn.stats().corrupt_evictions, 0u);
    EXPECT_FALSE(reborn.load("stage", "s.v1", test_key(5)).has_value());
    EXPECT_EQ(reborn.load("stage", "s.v1", test_key(4)), "written before");
  }
}

TEST(DiskCache, LoadRefreshesRecencySoATouchedOldEntrySurvives) {
  const TempDir dir;
  sv::DiskCacheOptions options;
  options.dir = dir.path();
  const std::string payload(64, 'p');
  // Exactly three entries fit (each is payload + 57 header/trailer bytes).
  options.max_bytes = 3 * (payload.size() + 57);
  sv::DiskCache cache(options);
  for (int i = 0; i < 3; ++i) {
    cache.store("stage", "s.v1", test_key(i), payload);
  }
  ASSERT_EQ(cache.stats().lru_evictions, 0u);
  // Touch the oldest entry; the next store must evict the untouched one.
  ASSERT_TRUE(cache.load("stage", "s.v1", test_key(0)).has_value());
  cache.store("stage", "s.v1", test_key(3), payload);
  EXPECT_EQ(cache.stats().lru_evictions, 1u);
  EXPECT_TRUE(cache.load("stage", "s.v1", test_key(0)).has_value());
  EXPECT_FALSE(cache.load("stage", "s.v1", test_key(1)).has_value());
  EXPECT_TRUE(cache.load("stage", "s.v1", test_key(2)).has_value());
  EXPECT_TRUE(cache.load("stage", "s.v1", test_key(3)).has_value());
}

TEST(DiskCache, StrayAtomicTempFilesAreSweptAtStartup) {
  const TempDir dir;
  const std::string stray = log_of(dir.path()).string() +
                            std::string(cnti::kAtomicTempMarker) + "123.0";
  std::ofstream(stray) << "a crashed compaction left this";
  ASSERT_TRUE(fs::exists(stray));
  sv::DiskCache cache({dir.path()});
  EXPECT_FALSE(fs::exists(stray));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(DiskCache, LegacyEntryFilesAreSweptAndOtherFilesKept) {
  const TempDir dir;
  // One-file-per-entry leftovers: an entry and the temp of its rename.
  std::ofstream(dir.path() + "/stage.00000000deadbeef00000000feedf00d.cache")
      << "an entry in the old layout";
  std::ofstream(dir.path() + "/stage.0123.cache" +
                std::string(cnti::kAtomicTempMarker) + "7.1")
      << "its temp";
  std::ofstream(dir.path() + "/notes.txt") << "not the cache's";
  sv::DiskCache cache({dir.path()});
  EXPECT_EQ(files_in(dir.path()),
            (std::vector<std::string>{"entries.log", "notes.txt"}));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(DiskCache, StoresAppendToOneLogFile) {
  const TempDir dir;
  {
    sv::DiskCache cache({dir.path()});
    for (int i = 0; i < 20; ++i) {
      cache.store(i % 2 == 0 ? "alpha" : "beta", "s.v1", test_key(i),
                  std::string(16 + i, 'x'));
    }
    EXPECT_EQ(cache.stats().stores, 20u);
    EXPECT_EQ(files_in(dir.path()), std::vector<std::string>{"entries.log"});
  }
  sv::DiskCache reborn({dir.path()});
  reborn.store("alpha", "s.v1", test_key(20), "after the restart");
  EXPECT_EQ(files_in(dir.path()), std::vector<std::string>{"entries.log"});
  EXPECT_EQ(reborn.stats().entries, 21u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(reborn.load(i % 2 == 0 ? "alpha" : "beta", "s.v1", test_key(i)),
              std::string(16 + i, 'x'));
  }
}

TEST(DiskCache, FlippedPayloadByteMidLogIsOneMissAndNeverResurrects) {
  const TempDir dir;
  const fs::path log = log_of(dir.path());
  const auto payload = [](int i) { return std::string(40, char('a' + i)); };
  {
    sv::DiskCache cache({dir.path()});
    for (int i = 0; i < 3; ++i) {
      cache.store("stage", "s.v1", test_key(i), payload(i));
    }
  }
  const auto records = records_of(log);
  ASSERT_EQ(records.size(), 3u);
  flip_payload_byte(log, records[1]);
  for (const std::uint64_t scan_evictions : {1u, 0u}) {
    // The first restart skips the record and compacts it away; the second
    // finds a clean log.
    SCOPED_TRACE(scan_evictions);
    sv::DiskCache reborn({dir.path()});
    EXPECT_EQ(reborn.stats().corrupt_evictions, scan_evictions);
    EXPECT_EQ(reborn.stats().entries, 2u);
    EXPECT_EQ(records_of(log).size(), 2u);
    EXPECT_FALSE(reborn.load("stage", "s.v1", test_key(1)).has_value());
    EXPECT_EQ(reborn.load("stage", "s.v1", test_key(0)), payload(0));
    EXPECT_EQ(reborn.load("stage", "s.v1", test_key(2)), payload(2));
    EXPECT_EQ(reborn.stats().misses, 1u);
  }
}

TEST(DiskCache, TornTailIsCutAndLaterAppendsSurviveRestarts) {
  const std::vector<std::pair<std::string, RecordDamage>> shapes = {
      {"zero-filled last record", zero_fill}, {"cut mid-record", cut_mid}};
  for (const auto& [name, vandalize] : shapes) {
    SCOPED_TRACE(name);
    const TempDir dir;
    const fs::path log = log_of(dir.path());
    {
      sv::DiskCache cache({dir.path()});
      for (int i = 0; i < 3; ++i) {
        cache.store("stage", "s.v1", test_key(i),
                    "value " + std::to_string(i));
      }
    }
    const RecordSpan last = records_of(log).back();
    vandalize(log, last);
    {
      sv::DiskCache cache({dir.path()});
      EXPECT_EQ(cache.stats().corrupt_evictions, 1u);
      EXPECT_EQ(fs::file_size(log), last.begin);
      EXPECT_EQ(cache.load("stage", "s.v1", test_key(0)), "value 0");
      EXPECT_EQ(cache.load("stage", "s.v1", test_key(1)), "value 1");
      EXPECT_FALSE(cache.load("stage", "s.v1", test_key(2)).has_value());
      cache.store("stage", "s.v1", test_key(2), "value 2");
      cache.store("stage", "s.v1", test_key(3), "value 3");
    }
    sv::DiskCache again({dir.path()});
    EXPECT_EQ(again.stats().corrupt_evictions, 0u);
    EXPECT_EQ(again.stats().entries, 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(again.load("stage", "s.v1", test_key(i)),
                "value " + std::to_string(i));
    }
  }
}

TEST(DiskCache, CompactionBoundsTheLogAndKeepsEveryLiveRecordInLruOrder) {
  const TempDir dir;
  const fs::path log = log_of(dir.path());
  const auto payload = [](int i) {
    return "payload " + std::to_string(100 + i) + std::string(53, char(i));
  };
  constexpr std::uint64_t kRecord = 64 + 57;  // payload + header/trailer
  sv::DiskCacheOptions options;
  options.dir = dir.path();
  options.max_bytes = 4 * kRecord;
  // Model of the LRU order, oldest first: a store appends its key and
  // evicts the front past four entries; a load moves its key to the back.
  std::vector<int> lru;
  {
    sv::DiskCache cache(options);
    std::uint64_t largest_log = 0;
    bool shrank = false;
    for (int i = 0; i < 40; ++i) {
      cache.store("stage", "s.v1", test_key(i), payload(i));
      lru.push_back(i);
      if (lru.size() > 4) lru.erase(lru.begin());
      if (i % 3 == 2) {
        // Refresh the oldest entry, so LRU order is not store order.
        ASSERT_EQ(cache.load("stage", "s.v1", test_key(lru.front())),
                  payload(lru.front()));
        std::rotate(lru.begin(), lru.begin() + 1, lru.end());
      }
      const std::uint64_t size = fs::file_size(log);
      ASSERT_LE(size, 2 * options.max_bytes) << "after store " << i;
      shrank = shrank || size < largest_log;
      largest_log = std::max(largest_log, size);
      ASSERT_LE(cache.stats().bytes, options.max_bytes);
    }
    EXPECT_TRUE(shrank) << "the log was never compacted";
    EXPECT_EQ(cache.stats().lru_evictions, 36u);
    EXPECT_EQ(files_in(dir.path()), std::vector<std::string>{"entries.log"});
  }
  // The clean shutdown left exactly the live records.
  ASSERT_EQ(fs::file_size(log), 4 * kRecord);
  // A restart keeps the LRU order: m fresh stores evict exactly the m
  // oldest entries, and the rest come back bitwise.
  for (std::size_t m = 0; m <= lru.size(); ++m) {
    SCOPED_TRACE(m);
    const TempDir copy;
    fs::copy_file(log, log_of(copy.path()));
    sv::DiskCache reborn({copy.path(), options.max_bytes});
    for (std::size_t j = 0; j < m; ++j) {
      reborn.store("stage", "s.v1", test_key(1000 + static_cast<int>(j)),
                   payload(0));
    }
    for (std::size_t k = 0; k < lru.size(); ++k) {
      const auto got = reborn.load("stage", "s.v1", test_key(lru[k]));
      if (k < m) {
        EXPECT_FALSE(got.has_value()) << "key " << lru[k];
      } else {
        EXPECT_EQ(got, payload(lru[k])) << "key " << lru[k];
      }
    }
  }
}

TEST(DiskCache, ShortAppendIsRolledBackAndCountedAsAStoreFailure) {
  const TempDir dir;
  const fs::path log = log_of(dir.path());
  sv::DiskCache cache({dir.path()});
  cache.store("stage", "s.v1", test_key(0), "fits");
  const std::uint64_t before = fs::file_size(log);
  // A file-size limit a few bytes past the log's end turns the next append
  // into a short write (no SIGXFSZ: the write starts below the limit).
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit small = saved;
  small.rlim_cur = before + 10;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
  cache.store("stage", "s.v1", test_key(1), std::string(100, 'y'));
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  EXPECT_EQ(cache.stats().store_failures, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(fs::file_size(log), before);

  cache.store("stage", "s.v1", test_key(2), "after the failure");
  sv::DiskCache reborn({dir.path()});
  EXPECT_EQ(reborn.stats().corrupt_evictions, 0u);
  EXPECT_EQ(reborn.load("stage", "s.v1", test_key(0)), "fits");
  EXPECT_FALSE(reborn.load("stage", "s.v1", test_key(1)).has_value());
  EXPECT_EQ(reborn.load("stage", "s.v1", test_key(2)), "after the failure");
}

// ---------------------------------------------------------------------------
// MemoCache + tier integration.

TEST(MemoCacheTier, RevivesValuesAcrossCacheInstances) {
  const TempDir dir;
  auto tier = std::make_shared<sv::DiskCache>(
      sv::DiskCacheOptions{dir.path()});
  const sc::ContentKey key = test_key(11);
  {
    sc::MemoCache warm(true, tier);
    const auto v = warm.get_or_compute<double>(
        "stage", key, [] { return 42.5; }, &sc::scalar_codec());
    EXPECT_EQ(*v, 42.5);
    EXPECT_EQ(warm.stats("stage").misses, 1u);
  }
  sc::MemoCache fresh(true, tier);
  bool computed = false;
  const auto v = fresh.get_or_compute<double>(
      "stage", key,
      [&] {
        computed = true;
        return -1.0;
      },
      &sc::scalar_codec());
  EXPECT_FALSE(computed);
  EXPECT_EQ(bits(*v), bits(42.5));
  EXPECT_EQ(fresh.stats("stage").disk_hits, 1u);
  EXPECT_EQ(fresh.stats("stage").misses, 0u);
}

TEST(MemoCacheTier, DecodeFailureFallsBackToCompute) {
  const TempDir dir;
  auto tier = std::make_shared<sv::DiskCache>(
      sv::DiskCacheOptions{dir.path()});
  // Same value schema, but a decoder that rejects everything: the tier's
  // bytes are intact, so this models codec/schema drift the checksum
  // cannot see — it must recompute, not trust the bytes.
  sc::StageCodec<double> broken = sc::scalar_codec();
  broken.decode = [](std::string_view) { return std::optional<double>{}; };
  tier->store("stage", broken.schema, test_key(12), "not a double");
  sc::MemoCache cache(true, tier);
  const auto v = cache.get_or_compute<double>(
      "stage", test_key(12), [] { return 7.0; }, &broken);
  EXPECT_EQ(*v, 7.0);
  EXPECT_EQ(cache.stats("stage").misses, 1u);
  EXPECT_EQ(cache.stats("stage").disk_hits, 0u);
}

TEST(MemoCacheTier, DisabledCacheNeverTouchesTheTier) {
  const TempDir dir;
  auto tier = std::make_shared<sv::DiskCache>(
      sv::DiskCacheOptions{dir.path()});
  sc::MemoCache disabled(false, tier);
  const auto v = disabled.get_or_compute<double>(
      "stage", test_key(13), [] { return 1.0; }, &sc::scalar_codec());
  EXPECT_EQ(*v, 1.0);
  EXPECT_EQ(tier->stats().stores, 0u);
  EXPECT_EQ(tier->stats().misses, 0u);
}

// ---------------------------------------------------------------------------
// Engine warm restart through the tier.

sc::EngineOptions tiered_options(const std::string& dir) {
  sc::EngineOptions options;
  options.tier =
      std::make_shared<sv::DiskCache>(sv::DiskCacheOptions{dir});
  return options;
}

TEST(EngineTier, WarmRestartRecomputesNothingAndMatchesBitwise) {
  const TempDir dir;
  const auto batch = full_batch(3);
  std::vector<sc::ScenarioResult> cold;
  {
    const sc::ScenarioEngine engine(tiered_options(dir.path()));
    cold = engine.run_batch(batch);
  }
  // "Restart": a fresh engine + fresh DiskCache over the same directory.
  const cnti::obs::Counter reductions =
      cnti::obs::counter("cnti.rom.reductions");
  const std::uint64_t reductions_before = reductions.value();
  const sc::ScenarioEngine warm_engine(tiered_options(dir.path()));
  const auto warm = warm_engine.run_batch(batch);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    expect_bit_identical(warm[i], cold[i]);
  }
  // Zero recomputes anywhere: every leaf was a disk hit, so the memory-only
  // stages nested inside the leaves were never even entered.
  std::uint64_t disk_hits = 0;
  for (const auto& [stage, st] : warm_engine.cache().all_stats()) {
    EXPECT_EQ(st.misses, 0u) << "stage " << stage << " recomputed";
    disk_hits += st.disk_hits;
  }
  EXPECT_GT(disk_hits, 0u);
  EXPECT_EQ(reductions.value(), reductions_before);
}

/// Damages the cache log in place; returns the corrupt evictions the next
/// startup's scan must count.
using Vandalize = std::function<std::uint64_t(const fs::path& log)>;

/// Runs a batch cold into a fresh disk tier, applies `vandalize` to its
/// log, then requires a second engine to recompute what was lost, bitwise
/// equal to the cold results, and a third engine to see all hits.
void expect_engine_heals(const Vandalize& vandalize) {
  const TempDir dir;
  const auto batch = full_batch(2);
  std::vector<sc::ScenarioResult> cold;
  {
    const sc::ScenarioEngine engine(tiered_options(dir.path()));
    cold = engine.run_batch(batch);
  }
  ASSERT_GT(records_of(log_of(dir.path())).size(), 1u);
  const std::uint64_t evictions = vandalize(log_of(dir.path()));
  const auto options = tiered_options(dir.path());
  const sc::ScenarioEngine engine(options);
  const auto healed = engine.run_batch(batch);
  ASSERT_EQ(healed.size(), cold.size());
  for (std::size_t k = 0; k < healed.size(); ++k) {
    expect_bit_identical(healed[k], cold[k]);
  }
  const auto* disk = dynamic_cast<sv::DiskCache*>(options.tier.get());
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(disk->stats().corrupt_evictions, evictions);
  EXPECT_GT(disk->stats().misses, 0u);
  const sc::ScenarioEngine again(tiered_options(dir.path()));
  const auto warm = again.run_batch(batch);
  for (std::size_t k = 0; k < warm.size(); ++k) {
    expect_bit_identical(warm[k], cold[k]);
  }
  for (const auto& [stage, st] : again.cache().all_stats()) {
    EXPECT_EQ(st.misses, 0u) << "stage " << stage;
  }
}

TEST(EngineTier, CorruptedEntrySelfHealsWithIdenticalResults) {
  // Flip a payload byte in every record but the last, and cut the last one
  // in half: each flipped record is skipped, the torn tail is cut.
  expect_engine_heals([](const fs::path& log) -> std::uint64_t {
    const auto records = records_of(log);
    for (std::size_t i = 0; i + 1 < records.size(); ++i) {
      flip_payload_byte(log, records[i]);
    }
    cut_mid(log, records.back());
    return records.size();
  });
}

TEST(EngineTier, PowerLossShapedEntriesRecomputeBitwiseAndHeal) {
  {
    SCOPED_TRACE("emptied");
    expect_engine_heals([](const fs::path& log) -> std::uint64_t {
      fs::resize_file(log, 0);
      return 0;
    });
  }
  {
    SCOPED_TRACE("zero-filled");
    expect_engine_heals([](const fs::path& log) -> std::uint64_t {
      zero_fill(log, {0, fs::file_size(log)});
      return 1;
    });
  }
  {
    SCOPED_TRACE("last record zero-filled");
    expect_engine_heals([](const fs::path& log) -> std::uint64_t {
      zero_fill(log, records_of(log).back());
      return 1;
    });
  }
  {
    SCOPED_TRACE("cut mid-log");
    expect_engine_heals([](const fs::path& log) -> std::uint64_t {
      const auto records = records_of(log);
      cut_mid(log, records[records.size() / 2]);
      return 1;
    });
  }
}

// ---------------------------------------------------------------------------
// Daemon + wire client.

TEST(ScenarioService, PingStatsAndShutdownRequest) {
  sv::ScenarioServer server(sv::ServerOptions{});
  server.start();
  ASSERT_GT(server.port(), 0);
  sv::ScenarioClient client(server.port());
  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(client.stats().empty());  // nothing run yet
  EXPECT_FALSE(
      server.wait_for_shutdown_request(std::chrono::milliseconds(10)));
  client.request_shutdown();
  EXPECT_TRUE(
      server.wait_for_shutdown_request(std::chrono::milliseconds(2000)));
  server.stop();
}

TEST(ScenarioService, MalformedRequestsErrorAndKeepTheConnectionUsable) {
  sv::ScenarioServer server(sv::ServerOptions{});
  server.start();
  RawConnection conn(server.port());
  ASSERT_TRUE(conn.ok());

  conn.send_line("this is not json");
  sv::JsonValue reply = sv::parse_json(conn.read_line());
  EXPECT_EQ(reply.at("type").as_string(), "error");

  conn.send_line(R"({"type": "run", "scenarios": [{"bogus": 1}]})");
  reply = sv::parse_json(conn.read_line());
  EXPECT_EQ(reply.at("type").as_string(), "error");
  EXPECT_NE(reply.at("message").as_string().find("bogus"),
            std::string::npos);

  // An invalid spec value fails validation per request, not in the batch.
  conn.send_line(
      R"({"type": "run", "scenarios": [{"tech": {"outer_diameter_nm": -5}}]})");
  reply = sv::parse_json(conn.read_line());
  EXPECT_EQ(reply.at("type").as_string(), "error");

  // The connection is still alive and serves valid requests.
  conn.send_line(R"({"type": "ping"})");
  reply = sv::parse_json(conn.read_line());
  EXPECT_EQ(reply.at("type").as_string(), "pong");
  server.stop();
}

TEST(ScenarioService, SingleClientMatchesDirectEngineBitwise) {
  sv::ScenarioServer server(sv::ServerOptions{});
  server.start();
  const auto batch = full_batch(3);
  sv::ScenarioClient client(server.port());
  const auto via_wire = client.run(batch);
  server.stop();

  const sc::ScenarioEngine direct;
  ASSERT_EQ(via_wire.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_bit_identical(via_wire[i], direct.run(batch[i]));
  }
  // The done message carried the engine's cache stats.
  EXPECT_FALSE(client.last_cache_stats().empty());
}

TEST(ScenarioService, ConcurrentClientsAreBitIdenticalToDirectRuns) {
  sv::ScenarioServer server(sv::ServerOptions{});
  server.start();
  constexpr int kClients = 4;
  const auto batch = full_batch(3);
  std::vector<std::vector<sc::ScenarioResult>> received(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        sv::ScenarioClient client(server.port());
        received[static_cast<std::size_t>(c)] = client.run(batch);
      });
    }
    for (auto& t : threads) t.join();
  }
  const std::uint64_t batches = server.batches_dispatched();
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, static_cast<std::uint64_t>(kClients));
  server.stop();

  const sc::ScenarioEngine direct;
  const auto want = direct.run_batch(batch);
  for (const auto& got : received) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_bit_identical(got[i], want[i]);
    }
  }
}

TEST(ScenarioService, WarmRestartedDaemonServesFromDiskBitIdentically) {
  const TempDir dir;
  const auto batch = full_batch(3);
  std::vector<sc::ScenarioResult> cold;
  {
    sv::ServerOptions options;
    options.engine = tiered_options(dir.path());
    sv::ScenarioServer server(options);
    server.start();
    sv::ScenarioClient client(server.port());
    cold = client.run(batch);
    server.stop();  // graceful: queue drained before exit
  }
  sv::ServerOptions options;
  options.engine = tiered_options(dir.path());
  sv::ScenarioServer server(options);
  server.start();
  sv::ScenarioClient client(server.port());
  const auto warm = client.run(batch);
  for (const auto& [stage, st] : client.last_cache_stats()) {
    EXPECT_EQ(st.misses, 0u) << "stage " << stage << " recomputed";
  }
  server.stop();
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    expect_bit_identical(warm[i], cold[i]);
  }
}

TEST(ScenarioService, StatsVerbCarriesTheDiskTierBreakdown) {
  const TempDir dir;
  sv::ServerOptions options;
  options.engine = tiered_options(dir.path());
  sv::ScenarioServer server(options);
  server.start();
  sv::ScenarioClient client(server.port());
  (void)client.run(full_batch(2));

  const sv::JsonValue raw = client.stats_raw();
  const sv::JsonValue* disk = raw.find("disk");
  ASSERT_NE(disk, nullptr) << "tiered server must report disk stats";
  const auto& totals = disk->at("totals");
  EXPECT_GT(totals.at("stores").as_number(), 0.0);
  EXPECT_GT(totals.at("bytes").as_number(), 0.0);
  // Every per-stage slice names an engine stage and sums into the totals.
  double stage_stores = 0.0;
  for (const auto& [stage, slice] : disk->at("stages").as_object()) {
    EXPECT_FALSE(stage.empty());
    stage_stores += slice.at("stores").as_number();
  }
  EXPECT_EQ(stage_stores, totals.at("stores").as_number());
  server.stop();

  // A memory-only server omits the section rather than lying with zeros.
  sv::ScenarioServer plain(sv::ServerOptions{});
  plain.start();
  sv::ScenarioClient plain_client(plain.port());
  EXPECT_EQ(plain_client.stats_raw().find("disk"), nullptr);
  plain.stop();
}

TEST(ScenarioService, MetricsVerbReturnsALiveRegistrySnapshot) {
  sv::ScenarioServer server(sv::ServerOptions{});
  server.start();
  sv::ScenarioClient client(server.port());
  (void)client.run(full_batch(2));

  const sv::JsonValue raw = client.metrics();
  const cnti::obs::MetricsSnapshot snap =
      sv::metrics_snapshot_from_json(raw);
  ASSERT_FALSE(snap.counters.empty());
  // The service tier counted this connection's requests...
  EXPECT_GE(snap.counters.at("cnti.service.requests"), 2u);
  EXPECT_GE(snap.counters.at("cnti.service.scenarios"), 2u);
  // ...and the engine/cache tiers were reached through the same registry.
  EXPECT_GE(snap.counters.at("cnti.engine.scenarios"), 2u);
  // The daemon holds a timing reference while running, so request
  // latencies are live even without a trace session.
  // (>= 1: the metrics request's own span is still open when the snapshot
  // is taken, but the run request completed before it.)
  const auto& req = snap.histograms.at("cnti.service.request_ns");
  EXPECT_GE(req.count, 1u);
  EXPECT_GT(req.sum_ns, 0u);
  server.stop();
}

TEST(ScenarioService, RunReplyIsOneSocketWrite) {
  // Every result line and the done line leave in a single write: one
  // write per line let Nagle's algorithm and the client's delayed ACK hold
  // each reply ~40 ms. The write count is deterministic, unlike latency.
  sv::ScenarioServer server(sv::ServerOptions{});
  server.start();
  sv::ScenarioClient client(server.port());
  const auto writes = [] {
    return cnti::obs::metrics_snapshot().counters.at("cnti.service.writes");
  };
  (void)client.run(full_batch(1));  // registers the counter
  const std::uint64_t before = writes();
  const auto results = client.run(full_batch(8));
  EXPECT_EQ(results.size(), 8u);
  EXPECT_EQ(writes() - before, 1u);
  server.stop();
}

TEST(ScenarioService, RunAfterStopIsRefusedNotHung) {
  sv::ScenarioServer server(sv::ServerOptions{});
  server.start();
  RawConnection conn(server.port());
  ASSERT_TRUE(conn.ok());
  std::thread stopper([&] { server.stop(); });
  stopper.join();
  // The connection was shut down read-side; a run request now either
  // errors or the socket reads EOF — never a hang.
  conn.send_line(R"({"type": "ping"})");
  (void)conn.read_line();
  SUCCEED();
}

}  // namespace
