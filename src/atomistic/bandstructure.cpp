#include "atomistic/bandstructure.hpp"

#include <algorithm>
#include <cmath>

namespace cnti::atomistic {

BandStructure::BandStructure(Chirality ch, TightBindingParams tb)
    : ch_(ch), tb_(tb) {
  // Allowed wavevectors under zone folding: k = q K1 + kappa K2hat with
  //   K1 = (-t2 b1 + t1 b2) / N,  K2 = (m b1 - n b2) / N,  |K2| = 2 pi / |T|.
  // Using b_i . a_j = 2 pi delta_ij:
  //   k.a1 = (2 pi / N) (-t2) q + kappa * (m / N) * |T|
  //   k.a2 = (2 pi / N) ( t1) q + kappa * (-n / N) * |T|
  const double n_hex = ch_.hexagons_per_cell();
  const double t_len = ch_.translation_length();
  c1q_ = -2.0 * M_PI * ch_.t2() / n_hex;
  c2q_ = 2.0 * M_PI * ch_.t1() / n_hex;
  c1k_ = t_len * ch_.m() / n_hex;
  c2k_ = -t_len * ch_.n() / n_hex;
}

double BandStructure::subband_energy(int q, double kappa) const {
  const double ka1 = c1q_ * q + c1k_ * kappa;
  const double ka2 = c2q_ * q + c2k_ * kappa;
  // |f(k)|^2 = 3 + 2 cos(k.a1) + 2 cos(k.a2) + 2 cos(k.a1 - k.a2).
  const double f2 = 3.0 + 2.0 * std::cos(ka1) + 2.0 * std::cos(ka2) +
                    2.0 * std::cos(ka1 - ka2);
  return tb_.gamma0_ev * std::sqrt(std::max(0.0, f2));
}

double BandStructure::k_max() const {
  return M_PI / ch_.translation_length();
}

double BandStructure::subband_minimum(int q, int samples) const {
  const double kmax = k_max();
  const double dk = 2.0 * kmax / (samples - 1);
  double emin = subband_energy(q, -kmax);
  int imin = 0;
  for (int i = 1; i < samples; ++i) {
    const double e = subband_energy(q, -kmax + dk * i);
    if (e < emin) {
      emin = e;
      imin = i;
    }
  }
  // Ternary-search refinement around the coarse minimum: resolves Dirac
  // points (V-shaped |E|) and smooth vHs edges to machine precision.
  double lo = -kmax + dk * std::max(0, imin - 1);
  double hi = -kmax + dk * std::min(samples - 1, imin + 1);
  for (int it = 0; it < 200 && (hi - lo) > 1e-15 * kmax; ++it) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (subband_energy(q, m1) <= subband_energy(q, m2)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return std::min(emin, subband_energy(q, 0.5 * (lo + hi)));
}

double BandStructure::band_gap(int samples) const {
  double emin = subband_minimum(0, samples);
  for (int q = 1; q < subband_count(); ++q) {
    emin = std::min(emin, subband_minimum(q, samples));
  }
  // Gap = 2 * min conduction energy by electron-hole symmetry; clamp the
  // metallic sampling floor to exactly zero.
  const double gap = 2.0 * emin;
  return (gap < 1e-6) ? 0.0 : gap;
}

std::vector<double> BandStructure::van_hove_energies(int samples) const {
  std::vector<double> edges;
  edges.reserve(subband_count());
  for (int q = 0; q < subband_count(); ++q) {
    edges.push_back(subband_minimum(q, samples));
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

int BandStructure::count_modes(double energy_ev, int samples) const {
  return ModeTable(*this, samples).count(energy_ev);
}

ModeTable::ModeTable(const BandStructure& bands, int samples)
    : metallic_(bands.chirality().is_metallic()),
      samples_(static_cast<std::size_t>(samples)) {
  const double kmax = bands.k_max();
  energy_.reserve(static_cast<std::size_t>(bands.subband_count()) *
                  samples_);
  for (int q = 0; q < bands.subband_count(); ++q) {
    for (int i = 0; i < samples; ++i) {
      energy_.push_back(
          bands.subband_energy(q, -kmax + 2.0 * kmax * i / (samples - 1)));
    }
  }
}

int ModeTable::count(double energy_ev) const {
  const double e = std::abs(energy_ev);
  // Below the sampling resolution the dip of a linear crossing band cannot
  // be detected numerically; zone folding gives the answer exactly there:
  // two crossing modes for metallic tubes, none inside a semiconducting gap
  // (gaps are >= ~0.38 eV nm / d, i.e. > 10 meV for any tube below ~38 nm).
  if (e < 1e-2) {
    return metallic_ ? 2 : 0;
  }
  int crossings = 0;
  for (std::size_t start = 0; start < energy_.size(); start += samples_) {
    bool below = energy_[start] - e < 0.0;
    for (std::size_t i = start + 1; i < start + samples_; ++i) {
      const bool now_below = energy_[i] - e < 0.0;
      crossings += below != now_below;
      below = now_below;
    }
  }
  // Each conducting mode contributes two crossings over the full zone
  // (time-reversal pairs live at (q, kappa) and (N - q, -kappa)).
  return crossings / 2;
}

}  // namespace cnti::atomistic
