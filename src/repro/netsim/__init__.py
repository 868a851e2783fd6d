"""Flow-level discrete-event network simulator.

This package replaces the paper's OMNeT++ packet-level simulator.  TCP
max-min flow fairness -- which the paper's simulator implements at packet
granularity -- is computed here exactly with a progressive-filling
(water-filling) solver, re-run at every flow arrival or completion event.

Public entry points:

- :class:`repro.netsim.network.Network` -- directed capacitated links;
- :class:`repro.netsim.simulator.FlowSim` -- the simulator itself;
- :class:`repro.netsim.simulator.FlowSpec` -- one flow (with optional
  streaming dependencies, used to model on-path aggregation trees);
- :func:`repro.netsim.fairness.max_min_rates` -- standalone solver.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.netsim.engine": ["EventQueue"],
    "repro.netsim.fairness": ["max_min_rates"],
    "repro.netsim.network": ["Link", "Network"],
    "repro.netsim.routing": ["EcmpRouter"],
    "repro.netsim.simulator": ["FlowSim", "FlowSpec", "SimulationResult"],
})
