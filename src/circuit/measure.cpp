#include "circuit/measure.hpp"

#include <algorithm>

namespace cnti::circuit {

using numerics::first_crossing_time;

double propagation_delay(const TransientResult& res, NodeId input,
                         NodeId output, double v_mid_in, double v_mid_out,
                         bool rising_in, double t_start) {
  const auto& t = res.time();
  const auto& vin = res.voltage(input);
  const auto& vout = res.voltage(output);
  const double t_in =
      first_crossing_time(t, vin, v_mid_in, rising_in, t_start);
  if (t_in < 0) return -1.0;
  // Try both output edge directions after the input event; take the first.
  const double t_rise = first_crossing_time(t, vout, v_mid_out, true, t_in);
  const double t_fall = first_crossing_time(t, vout, v_mid_out, false, t_in);
  double t_out = -1.0;
  if (t_rise >= 0 && t_fall >= 0) {
    t_out = std::min(t_rise, t_fall);
  } else {
    t_out = std::max(t_rise, t_fall);
  }
  if (t_out < 0) return -1.0;
  return t_out - t_in;
}

double average_propagation_delay(const TransientResult& res, NodeId input,
                                 NodeId output, double v_mid,
                                 double t_second_edge) {
  const double d1 =
      propagation_delay(res, input, output, v_mid, v_mid, true, 0.0);
  const double d2 = propagation_delay(res, input, output, v_mid, v_mid,
                                      false, t_second_edge);
  if (d1 < 0 || d2 < 0) return -1.0;
  return 0.5 * (d1 + d2);
}

}  // namespace cnti::circuit
