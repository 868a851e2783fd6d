"""Deterministic emulator of the paper's 34-server testbed (§4.2).

The testbed: two racks of workers on 1 Gbps edge links, each rack with
a master and an agg box on a 10 Gbps link (:mod:`repro.cluster.deployment`
holds the hardware).  It is a queueing network -- NICs are rate servers,
CPU pools multi-server queues -- on the discrete-event engine.  Figs.
22-23's Hadoop job profiles are measured by real runs of the mini
engine; every other application cost is a constant.

- :mod:`repro.cluster.emulator` -- resources and transfer chains;
- :mod:`repro.cluster.deployment` -- the testbed configuration;
- :mod:`repro.cluster.solr_driver` -- closed-loop search workload
  (Figs. 16-21);
- :mod:`repro.cluster.hadoop_driver` -- batch job execution
  (Figs. 22-24).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.cluster.deployment": ["TestbedConfig"],
    "repro.cluster.emulator": ["Resource", "TransferChain"],
    "repro.cluster.hadoop_driver": ["HadoopEmulation", "HadoopRunResult"],
    "repro.cluster.solr_driver": ["SolrEmulation", "SolrRunResult"],
})
