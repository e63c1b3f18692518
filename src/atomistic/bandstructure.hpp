// Zone-folded nearest-neighbour tight-binding band structure of an (n, m)
// SWCNT. Substitutes for the paper's DFT band structures (Fig. 8b/c):
// nearest-neighbour TB on the rolled graphene sheet reproduces metallicity,
// subband structure, van Hove edges and the N_c ~ 2 mode count that the
// paper's compact models consume.
#pragma once

#include <cstddef>
#include <vector>

#include "atomistic/swcnt_geometry.hpp"

namespace cnti::atomistic {

/// Tight-binding parameters (gamma0 in eV).
struct TightBindingParams {
  double gamma0_ev = cntconst::kHoppingEv;
};

/// Zone-folded pi-band dispersion of subband q at longitudinal wavevector
/// kappa (in units where kappa spans [-pi/T, pi/T]).
class BandStructure {
 public:
  explicit BandStructure(Chirality ch, TightBindingParams tb = {});

  const Chirality& chirality() const { return ch_; }

  /// Conduction-band energy E >= 0 of subband q at longitudinal wavevector
  /// kappa [1/m], kappa in [-pi/T, pi/T]. Valence band is -E (e-h symmetric
  /// nearest-neighbour TB). Units: eV.
  double subband_energy(int q, double kappa) const;

  int subband_count() const { return ch_.hexagons_per_cell(); }

  /// Half Brillouin-zone edge pi/|T| [1/m].
  double k_max() const;

  /// Minimum of subband q over the full zone (its van Hove edge) [eV].
  double subband_minimum(int q, int samples = 4001) const;

  /// Band gap [eV]: 0 for metallic tubes (within sampling tolerance).
  double band_gap(int samples = 4001) const;

  /// Sorted list of distinct van Hove edge energies (conduction side) [eV].
  std::vector<double> van_hove_energies(int samples = 4001) const;

  /// Number of conduction modes crossing energy |E| (counting over the full
  /// zone and halving, which is robust for chiral tubes where individual
  /// subbands are not kappa-symmetric). This equals the ballistic Landauer
  /// transmission at energy E (per spin pair, i.e. in units of G0). For
  /// many energies, build one ModeTable instead.
  int count_modes(double energy_ev, int samples = 4001) const;

  double gamma0_ev() const { return tb_.gamma0_ev; }

 private:
  Chirality ch_;
  TightBindingParams tb_;
  // Precomputed phase coefficients: k.a1 = c1q_ * q + c1k_ * kappa, etc.
  double c1q_, c1k_, c2q_, c2k_;
};

/// Every subband sampled once at `samples` evenly spaced wavevectors over
/// the full zone, so the mode count at any number of energies costs only
/// comparisons: count(E) equals bands.count_modes(E, samples) exactly.
class ModeTable {
 public:
  ModeTable(const BandStructure& bands, int samples);

  /// Modes crossing |E|: sign changes of E_q(kappa) - |E| along each
  /// subband, halved.
  int count(double energy_ev) const;

 private:
  bool metallic_;
  std::size_t samples_;
  std::vector<double> energy_;  ///< [subband * samples + i]
};

}  // namespace cnti::atomistic
