"""Testbed configuration (§4.2, "Testbed set-up").

Per rack: ten workers (``backends_per_rack``) of :data:`BACKEND_CORES`
= 8 cores, a master of :data:`MASTER_CORES` = 12, an agg box of
``box_cores`` on a :data:`BOX_LINK_RATE` link, servers on :data:`EDGE_RATE`
links.  The figures vary :class:`TestbedConfig` fields; the rest is a
constant below.  Clients are ``SolrEmulationParams.n_clients``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import Gbps, MB

#: Server link rate: every figure runs on the paper's 1 Gbps edge.
EDGE_RATE = Gbps(1.0)
#: Agg box link rate: the paper's boxes sit on 10 Gbps links.
BOX_LINK_RATE = Gbps(10.0)
#: Cores per worker (mapper, reducer or search backend) in the paper.
BACKEND_CORES = 8
#: Cores of the master that merges Solr responses in the paper.
MASTER_CORES = 12
#: Reducer output spill rate: one disk, never the figures' bottleneck.
DISK_RATE = 120 * MB


@dataclass(frozen=True)
class TestbedConfig:
    """Emulated testbed shape (defaults = one rack of the paper's testbed)."""

    __test__ = False  # not a pytest test class, despite the name

    racks: int = 1
    backends_per_rack: int = 10
    box_cores: int = 16
    boxes_per_rack: int = 1

    def __post_init__(self) -> None:
        if min(self.racks, self.backends_per_rack, self.box_cores,
               self.boxes_per_rack) < 1:
            raise ValueError("all counts must be >= 1")

    @property
    def n_backends(self) -> int:
        return self.racks * self.backends_per_rack
