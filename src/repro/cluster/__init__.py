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

from repro.cluster.deployment import TestbedConfig
from repro.cluster.emulator import Resource, TransferChain
from repro.cluster.hadoop_driver import HadoopEmulation, HadoopRunResult
from repro.cluster.solr_driver import SolrEmulation, SolrRunResult

__all__ = [
    "Resource",
    "TransferChain",
    "TestbedConfig",
    "SolrEmulation",
    "SolrRunResult",
    "HadoopEmulation",
    "HadoopRunResult",
]
