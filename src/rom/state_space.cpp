#include "rom/state_space.hpp"

#include "common/error.hpp"
#include "rom/detail.hpp"

namespace cnti::rom {

namespace {

using circuit::Circuit;
using circuit::NodeId;
using numerics::SparseBuilder;

/// Row/column of a node voltage unknown, or -1 for ground.
int nv(NodeId n) { return n - 1; }

void add_sym(SparseBuilder& m, NodeId a, NodeId b, double v) {
  const int ra = nv(a), rb = nv(b);
  if (ra >= 0) m.add(static_cast<std::size_t>(ra),
                     static_cast<std::size_t>(ra), v);
  if (rb >= 0) m.add(static_cast<std::size_t>(rb),
                     static_cast<std::size_t>(rb), v);
  if (ra >= 0 && rb >= 0) {
    m.add(static_cast<std::size_t>(ra), static_cast<std::size_t>(rb), -v);
    m.add(static_cast<std::size_t>(rb), static_cast<std::size_t>(ra), -v);
  }
}

void add_entry(SparseBuilder& m, int row, int col, double v) {
  if (row >= 0 && col >= 0) {
    m.add(static_cast<std::size_t>(row), static_cast<std::size_t>(col), v);
  }
}

}  // namespace

int StateSpace::input_index(const std::string& name) const {
  return detail::find_name_index(input_names, name, "StateSpace", "input");
}

int StateSpace::output_index(const std::string& name) const {
  return detail::find_name_index(output_names, name, "StateSpace", "output");
}

StateSpace extract_state_space(const Circuit& ckt,
                               const StateSpaceOptions& options) {
  CNTI_EXPECTS(ckt.mosfets().empty(),
               "StateSpace: linear circuits only (MOSFETs rejected)");
  const int nodes = ckt.node_count();
  CNTI_EXPECTS(nodes > 0, "StateSpace: circuit has no non-ground nodes");
  const int nvs = static_cast<int>(ckt.vsources().size());
  const int nind = static_cast<int>(ckt.inductors().size());
  const int size = nodes + nvs + nind;
  const int vsrc_offset = nodes;
  const int ind_offset = nodes + nvs;

  StateSpace out;
  out.nodes = nodes;
  out.size = size;

  const auto un = static_cast<std::size_t>(size);
  SparseBuilder g(un, un);
  SparseBuilder c(un, un);

  for (int n = 1; n <= nodes; ++n) {
    g.add(static_cast<std::size_t>(n - 1), static_cast<std::size_t>(n - 1),
          detail::kGminFloor);
  }
  for (const auto& r : ckt.resistors()) {
    CNTI_EXPECTS(r.ohms > 0, "StateSpace: resistor must be positive");
    add_sym(g, r.a, r.b, 1.0 / r.ohms);
  }
  for (const auto& cap : ckt.capacitors()) {
    CNTI_EXPECTS(cap.farads >= 0, "StateSpace: capacitor must be >= 0");
    add_sym(c, cap.a, cap.b, cap.farads);
  }
  // Branch rows use the skew incidence convention: node rows carry +/-1 on
  // the branch current, branch rows carry the negated voltage difference.
  // This keeps G + G^T positive semidefinite (the branch blocks cancel).
  for (int k = 0; k < nvs; ++k) {
    const auto& v = ckt.vsources()[static_cast<std::size_t>(k)];
    const int br = vsrc_offset + k;
    add_entry(g, nv(v.plus), br, 1.0);
    add_entry(g, nv(v.minus), br, -1.0);
    add_entry(g, br, nv(v.plus), -1.0);
    add_entry(g, br, nv(v.minus), 1.0);
  }
  for (int k = 0; k < nind; ++k) {
    const auto& l = ckt.inductors()[static_cast<std::size_t>(k)];
    CNTI_EXPECTS(l.henries > 0, "StateSpace: inductor must be positive");
    const int br = ind_offset + k;
    add_entry(g, nv(l.a), br, 1.0);
    add_entry(g, nv(l.b), br, -1.0);
    add_entry(g, br, nv(l.a), -1.0);
    add_entry(g, br, nv(l.b), 1.0);
    c.add(static_cast<std::size_t>(br), static_cast<std::size_t>(br),
          l.henries);
  }
  out.g = g.build();
  out.c = c.build();

  // Inputs: vsources, isources, then ports.
  const int n_ports = static_cast<int>(options.ports.size());
  const int n_src_inputs = options.include_sources
                               ? nvs + static_cast<int>(ckt.isources().size())
                               : 0;
  const int m = n_src_inputs + n_ports;
  CNTI_EXPECTS(m > 0, "StateSpace: no inputs (no sources and no ports)");
  out.b = numerics::MatrixD(un, static_cast<std::size_t>(m));
  int col = 0;
  if (options.include_sources) {
    for (int k = 0; k < nvs; ++k) {
      // Branch row reads -(v+ - v-) = -u.
      out.b(static_cast<std::size_t>(vsrc_offset + k),
            static_cast<std::size_t>(col)) = -1.0;
      out.input_names.push_back(ckt.vsources()[static_cast<std::size_t>(k)].name);
      ++col;
    }
    for (const auto& i : ckt.isources()) {
      // Matches the transient engine: source current u leaves the plus node.
      if (nv(i.plus) >= 0) {
        out.b(static_cast<std::size_t>(nv(i.plus)),
              static_cast<std::size_t>(col)) = -1.0;
      }
      if (nv(i.minus) >= 0) {
        out.b(static_cast<std::size_t>(nv(i.minus)),
              static_cast<std::size_t>(col)) = 1.0;
      }
      out.input_names.push_back(i.name);
      ++col;
    }
  }
  for (const auto& port : options.ports) {
    CNTI_EXPECTS(port.node > 0 && port.node <= nodes,
                 "StateSpace: port node out of range (and not ground)");
    // Positive port current flows into the node.
    out.b(static_cast<std::size_t>(nv(port.node)),
          static_cast<std::size_t>(col)) = 1.0;
    out.input_names.push_back(port.name);
    ++col;
  }

  // Outputs: port voltages, then extra observed nodes. An output-less
  // system is allowed (pole/stability analysis needs no observation).
  const int p = n_ports + static_cast<int>(options.observe.size());
  out.l = numerics::MatrixD(un, static_cast<std::size_t>(p));
  int ocol = 0;
  for (const auto& port : options.ports) {
    out.l(static_cast<std::size_t>(nv(port.node)),
          static_cast<std::size_t>(ocol)) = 1.0;
    out.output_names.push_back(port.name);
    ++ocol;
  }
  for (const NodeId n : options.observe) {
    CNTI_EXPECTS(n >= 0 && n <= nodes,
                 "StateSpace: observe node out of range");
    if (nv(n) >= 0) {
      out.l(static_cast<std::size_t>(nv(n)),
            static_cast<std::size_t>(ocol)) = 1.0;
    }
    out.output_names.push_back(ckt.node_name(n));
    ++ocol;
  }
  return out;
}

}  // namespace cnti::rom
