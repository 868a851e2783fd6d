"""Testbed configuration (§4.2, "Testbed set-up").

The paper's hardware: per rack, one 12-core 2.9 GHz master with 32 GB,
ten 8-core 3.3 GHz workers, five client machines; 1 Gbps server links;
agg boxes with master-class hardware on 10 Gbps links.  We keep the
shape and expose every knob.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aggbox.functions import DEFAULT_CORE_RATE
from repro.units import Gbps, MB


@dataclass(frozen=True)
class TestbedConfig:
    """Emulated testbed parameters (defaults = the paper's testbed)."""

    __test__ = False  # not a pytest test class, despite the name

    racks: int = 1
    backends_per_rack: int = 10
    clients_per_rack: int = 5
    edge_rate: float = Gbps(1.0)
    box_link_rate: float = Gbps(10.0)
    box_cores: int = 16
    boxes_per_rack: int = 1
    backend_cores: int = 8
    master_cores: int = 12
    core_rate: float = DEFAULT_CORE_RATE  # bytes/second of merge work
    disk_rate: float = 120 * MB  # reducer output spill rate

    def __post_init__(self) -> None:
        if min(self.racks, self.backends_per_rack, self.box_cores,
               self.boxes_per_rack, self.backend_cores,
               self.master_cores) < 1:
            raise ValueError("all counts must be >= 1")
        if min(self.edge_rate, self.box_link_rate, self.core_rate,
               self.disk_rate) <= 0:
            raise ValueError("rates must be positive")

    @property
    def n_backends(self) -> int:
        return self.racks * self.backends_per_rack
