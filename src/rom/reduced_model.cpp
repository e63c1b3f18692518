#include "rom/reduced_model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <variant>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "rom/detail.hpp"

namespace cnti::rom {

namespace {

using numerics::LuFactorization;
using numerics::MatrixD;

std::vector<double> column(const MatrixD& m, int c) {
  std::vector<double> out(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    out[r] = m(r, static_cast<std::size_t>(c));
  }
  return out;
}

}  // namespace

ReducedModel::ReducedModel(MatrixD gr, MatrixD cr, MatrixD br, MatrixD lr,
                           std::vector<std::string> input_names,
                           std::vector<std::string> output_names,
                           int full_order)
    : gr_(std::move(gr)),
      cr_(std::move(cr)),
      br_(std::move(br)),
      lr_(std::move(lr)),
      input_names_(std::move(input_names)),
      output_names_(std::move(output_names)),
      full_order_(full_order) {
  const std::size_t q = gr_.rows();
  CNTI_EXPECTS(q > 0 && gr_.cols() == q, "ReducedModel: Gr must be square");
  CNTI_EXPECTS(cr_.rows() == q && cr_.cols() == q,
               "ReducedModel: Cr shape mismatch");
  CNTI_EXPECTS(br_.rows() == q && lr_.rows() == q,
               "ReducedModel: Br/Lr row mismatch");
  CNTI_EXPECTS(input_names_.size() == br_.cols(),
               "ReducedModel: input name count mismatch");
  CNTI_EXPECTS(output_names_.size() == lr_.cols(),
               "ReducedModel: output name count mismatch");
}

int ReducedModel::input_index(const std::string& name) const {
  return detail::find_name_index(input_names_, name, "ReducedModel", "input");
}

int ReducedModel::output_index(const std::string& name) const {
  return detail::find_name_index(output_names_, name, "ReducedModel",
                                 "output");
}

void detail::fold_terminations(MatrixD& g, MatrixD& c, const MatrixD& br,
                               const MatrixD& lr,
                               const std::vector<PortTermination>& loads) {
  const std::size_t q = g.rows();
  for (const auto& load : loads) {
    CNTI_EXPECTS(load.input >= 0 &&
                     static_cast<std::size_t>(load.input) < br.cols(),
                 "terminated: input index out of range");
    CNTI_EXPECTS(load.output >= 0 &&
                     static_cast<std::size_t>(load.output) < lr.cols(),
                 "terminated: output index out of range");
    CNTI_EXPECTS(load.conductance_s >= 0 && load.capacitance_f >= 0,
                 "terminated: shunt elements must be >= 0");
    // i_port = -(g + s c) v_port folds as the rank-1 congruence update
    // b l^T — exactly V^T (G_full + g e e^T) V when input and output map
    // the same node, so the terminated model is still a projection of a
    // passive network.
    const std::vector<double> l = column(lr, load.output);
    for (std::size_t i = 0; i < q; ++i) {
      const double bi = br(i, static_cast<std::size_t>(load.input));
      if (bi == 0.0) continue;
      if (load.conductance_s != 0.0) {
        detail::axpy(load.conductance_s * bi, l.data(), &g(i, 0), q);
      }
      if (load.capacitance_f != 0.0) {
        detail::axpy(load.capacitance_f * bi, l.data(), &c(i, 0), q);
      }
    }
  }
}

ReducedModel::Transient ReducedModel::simulate(
    const std::vector<circuit::Waveform>& input_waves, double t_stop_s,
    double dt_s) const {
  CNTI_EXPECTS(static_cast<int>(input_waves.size()) == inputs(),
               "simulate: need one waveform per input");
  CNTI_EXPECTS(t_stop_s > 0, "simulate: t_stop must be positive");
  CNTI_EXPECTS(dt_s > 0 && dt_s < t_stop_s,
               "simulate: dt must be positive and below t_stop");
  static const obs::Counter step_count = obs::counter("cnti.rom.steps");
  const std::size_t q = gr_.rows();
  const std::size_t m = br_.cols();
  const std::size_t p = lr_.cols();

  // Only driven inputs enter the propagator: an input held at 0 V / 0 A
  // contributes exactly nothing.
  std::vector<std::size_t> driven;
  for (std::size_t k = 0; k < m; ++k) {
    const auto* dc = std::get_if<circuit::DcWave>(&input_waves[k]);
    if (dc == nullptr || dc->value != 0.0) driven.push_back(k);
  }
  const std::size_t md = driven.size();

  // Trapezoidal: (2C/dt + G) x1 = (2C/dt - G) x0 + B (u0 + u1). One
  // multi-right-hand-side solve turns it into the explicit propagator
  //   x1 = M x0 + Bh (u0 + u1),  [M | Bh] = (2C/dt + G)^-1 [2C/dt - G | B],
  // stored transposed (column-major) so a step is q + md contiguous axpys.
  MatrixD lhs = cr_;
  lhs *= 2.0 / dt_s;
  MatrixD rhs(q, q + md);
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = 0; j < q; ++j) rhs(i, j) = lhs(i, j) - gr_(i, j);
    for (std::size_t k = 0; k < md; ++k) rhs(i, q + k) = br_(i, driven[k]);
  }
  lhs += gr_;
  const MatrixD prop = LuFactorization<double>(lhs).solve(rhs).transpose();

  // z = [x; u_prev + u] is the propagator's input vector. DC start:
  // Gr x0 = Br u(0), matching the full engine's operating-point
  // initialisation; with every input at 0 at t = 0, x0 is exactly 0.
  std::vector<double> z(q + md, 0.0);
  std::vector<double> u_prev(md);
  for (std::size_t k = 0; k < md; ++k) {
    u_prev[k] = circuit::waveform_value(input_waves[driven[k]], 0.0);
  }
  if (std::any_of(u_prev.begin(), u_prev.end(),
                  [](double u) { return u != 0.0; })) {
    std::vector<double> u0(m, 0.0);
    for (std::size_t k = 0; k < md; ++k) u0[driven[k]] = u_prev[k];
    const std::vector<double> x0 =
        LuFactorization<double>(gr_).solve(br_ * u0);
    std::copy(x0.begin(), x0.end(), z.begin());
  }

  // Same grid construction as circuit::simulate_transient, so ROM and full
  // MNA waveforms are directly comparable sample-by-sample.
  const auto steps =
      static_cast<std::size_t>(std::ceil(t_stop_s / dt_s - 1e-9)) + 1;
  step_count.add(steps - 1);
  Transient out;
  out.time.resize(steps);
  out.outputs.assign(p, std::vector<double>(steps, 0.0));
  std::vector<double> x_next(q), y(p);
  const auto record = [&](std::size_t step, double t) {
    out.time[step] = t;
    if (p == 0) return;
    std::fill(y.begin(), y.end(), 0.0);
    detail::axpy_rows(z.data(), &lr_(0, 0), p, q, y.data(), p);
    for (std::size_t j = 0; j < p; ++j) out.outputs[j][step] = y[j];
  };
  record(0, 0.0);

  for (std::size_t step = 1; step < steps; ++step) {
    const double t = static_cast<double>(step) * dt_s;
    for (std::size_t k = 0; k < md; ++k) {
      const double u = circuit::waveform_value(input_waves[driven[k]], t);
      z[q + k] = u_prev[k] + u;
      u_prev[k] = u;
    }
    std::fill(x_next.begin(), x_next.end(), 0.0);
    detail::axpy_rows(z.data(), &prop(0, 0), q, q + md, x_next.data(), q);
    std::copy(x_next.begin(), x_next.end(), z.begin());
    record(step, t);
  }
  return out;
}

}  // namespace cnti::rom
