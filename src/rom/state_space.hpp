// Descriptor state-space extraction for model-order reduction: stamps a
// linear circuit::Circuit into the passive MNA form
//
//   C dx/dt + G x = B u,   y = L^T x
//
// with x = [node voltages; vsource branch currents; inductor branch
// currents]. Unlike the transient engine's symmetric source stamping, the
// branch rows here use the skew-symmetric incidence convention, so
// G + G^T >= 0 and C = C^T >= 0 hold by construction — the structural
// properties PRIMA's congruence projection needs to guarantee stable (and,
// for symmetric port maps, passive) reduced models. Row scaling does not
// change the solution, so transfer functions agree exactly with
// circuit::ac_analysis.
//
// Inputs u are (in order) the circuit's voltage sources, its current
// sources, then any explicitly declared ports; outputs y are the port node
// voltages followed by any extra observed node voltages. A port is a
// current-injection / voltage-sense pair at one node (positive current
// flows into the node), which is what lets external driver and load
// elements be re-attached to the reduced model afterwards
// (detail::fold_terminations, terminate_bare_bus).
//
// Scope: linear networks only — circuits containing MOSFETs are rejected
// like circuit::ac_analysis.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "numerics/matrix.hpp"
#include "numerics/sparse.hpp"

namespace cnti::rom {

/// Current-injection / voltage-sense port at a named circuit node.
struct RomPort {
  std::string name;
  circuit::NodeId node = 0;
};

struct StateSpaceOptions {
  /// Ports (current in, voltage out). May be empty when the circuit's own
  /// sources provide the inputs.
  std::vector<RomPort> ports;
  /// Extra voltage outputs beyond the port voltages. Ground (node 0) is
  /// allowed and yields an identically-zero output.
  std::vector<circuit::NodeId> observe;
  /// When true (default), every voltage/current source in the circuit
  /// becomes an input ahead of the ports.
  bool include_sources = true;
};

/// Sparse descriptor system with named inputs and outputs.
struct StateSpace {
  numerics::SparseMatrix g;  ///< n x n conductance/incidence part.
  numerics::SparseMatrix c;  ///< n x n capacitance/inductance part.
  numerics::MatrixD b;       ///< n x m input map.
  numerics::MatrixD l;       ///< n x p output map (y = l^T x).
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  int nodes = 0;  ///< Non-ground node count.
  int size = 0;   ///< n = nodes + vsource branches + inductor branches.

  int inputs() const { return static_cast<int>(input_names.size()); }
  int outputs() const { return static_cast<int>(output_names.size()); }

  /// Index of the named input/output; throws PreconditionError if unknown.
  int input_index(const std::string& name) const;
  int output_index(const std::string& name) const;
};

/// Extracts the descriptor system from a linear circuit. Throws
/// PreconditionError on nonlinear circuits, empty circuits, circuits with
/// no inputs, or out-of-range port/observe nodes.
StateSpace extract_state_space(const circuit::Circuit& ckt,
                               const StateSpaceOptions& options = {});

}  // namespace cnti::rom
