// Waveform measurements: the 50% propagation delays the paper's Fig. 12
// delay-ratio benchmark reports.
#pragma once

#include "circuit/mna.hpp"
#include "numerics/interp.hpp"

namespace cnti::circuit {

/// 50% propagation delay between an input and output crossing; `rising_in`
/// selects the input edge, the output edge direction is found automatically
/// from the output's initial/final levels around the event. Returns < 0
/// when either crossing is missing.
double propagation_delay(const TransientResult& res, NodeId input,
                         NodeId output, double v_mid_in, double v_mid_out,
                         bool rising_in, double t_start = 0.0);

/// Average of the rising- and falling-edge propagation delays of an
/// inverting or non-inverting stage driven by a full pulse.
/// `t_second_edge` must lie between the two input edges.
double average_propagation_delay(const TransientResult& res, NodeId input,
                                 NodeId output, double v_mid,
                                 double t_second_edge);

}  // namespace cnti::circuit
