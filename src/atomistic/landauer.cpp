#include "atomistic/landauer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cnti::atomistic {

namespace {

double kt_ev(double temperature_k) {
  return phys::kBoltzmann * temperature_k / phys::kElectronVolt;
}

double fermi(double x) {
  // 1 / (1 + exp(x)) evaluated stably.
  if (x > 40.0) return std::exp(-x);
  if (x < -40.0) return 1.0;
  return 1.0 / (1.0 + std::exp(x));
}

}  // namespace

double fermi_derivative(double energy_ev, double mu_ev, double temperature_k) {
  CNTI_EXPECTS(temperature_k > 0, "temperature must be positive");
  const double kt = kt_ev(temperature_k);
  const double x = (energy_ev - mu_ev) / kt;
  if (std::abs(x) > 40.0) return 0.0;
  const double c = std::cosh(0.5 * x);
  return 1.0 / (4.0 * kt * c * c);
}

double ballistic_conductance_t0(const BandStructure& bands, double mu_ev) {
  return phys::kConductanceQuantum * bands.count_modes(mu_ev);
}

double ballistic_conductance(const BandStructure& bands, double mu_ev,
                             double temperature_k) {
  CNTI_EXPECTS(temperature_k > 0, "temperature must be positive");
  const double kt = kt_ev(temperature_k);
  // The thermal window must reach past the band edges of semiconducting
  // tubes, or activated conduction across the gap is lost entirely.
  const double half = 10.0 * kt + 0.5 * bands.band_gap();
  const double lo = mu_ev - half;
  const double hi = mu_ev + half;
  // M(E) is a staircase; a dense trapezoid resolves the steps against the
  // smooth thermal window without adaptive-refinement stalls. Keep the
  // grid density of the +-10 kT metallic case as the window widens.
  const int n = static_cast<int>(
      std::min(4001.0, std::max(601.0, std::ceil(60.0 * half / kt))));
  const double de = (hi - lo) / (n - 1);
  const ModeTable modes(bands, 1201);
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    const double e = lo + i * de;
    const double w = (i == 0 || i == n - 1) ? 0.5 : 1.0;
    acc += w * modes.count(e) * fermi_derivative(e, mu_ev, temperature_k);
  }
  return phys::kConductanceQuantum * acc * de;
}

double conducting_channels(const BandStructure& bands, double mu_ev,
                           double temperature_k) {
  return ballistic_conductance(bands, mu_ev, temperature_k) /
         phys::kConductanceQuantum;
}

double average_metallic_channels(double diameter_m, double temperature_k) {
  CNTI_EXPECTS(diameter_m > 0, "diameter must be positive");
  // Analytic vHs ladder of a metallic shell: doubly degenerate edges at
  // E_j ~ sqrt(3) a gamma0 j / d (j = 1, 2, ...), each adding 4 modes when
  // occupied; thermal occupancy of the |E| > E_j window is 2 f(E_j / kT).
  const double d_nm = diameter_m * 1e9;
  const double kt = kt_ev(temperature_k);
  const double e1 = std::sqrt(3.0) * 0.246 * cntconst::kHoppingEv / d_nm;
  double nc = 2.0;
  for (int j = 1; j <= 50; ++j) {
    const double occ = fermi(j * e1 / kt);
    if (occ < 1e-12) break;
    nc += 8.0 * occ;
  }
  return nc;
}

double average_mixed_channels(double diameter_m, double temperature_k) {
  CNTI_EXPECTS(diameter_m > 0, "diameter must be positive");
  const double d_nm = diameter_m * 1e9;
  const double kt = kt_ev(temperature_k);
  // Semiconducting shell: edges at E_j = (sqrt(3) a gamma0 / 3 d) j for
  // j not divisible by 3; each doubly degenerate edge adds 2 modes.
  const double e0 = std::sqrt(3.0) * 0.246 * cntconst::kHoppingEv / (3.0 * d_nm);
  double nc_semi = 0.0;
  for (int j = 1; j <= 150; ++j) {
    if (j % 3 == 0) continue;
    const double occ = fermi(j * e0 / kt);
    if (occ < 1e-12) break;
    nc_semi += 4.0 * occ;
  }
  const double metallic_fraction = 1.0 - cntconst::kSemiconductingFraction;
  return metallic_fraction * average_metallic_channels(diameter_m,
                                                       temperature_k) +
         cntconst::kSemiconductingFraction * nc_semi;
}

}  // namespace cnti::atomistic
