"""Capacitated directed links and the network container.

Links are identified by string ids.  By convention the topology builders
name them ``"<src>-><dst>"``; *virtual* links (e.g. the processing
capacity of an agg box) are named ``"proc:<box>"`` and behave exactly like
wire links as far as the fairness solver is concerned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional


@dataclass
class Link:
    """One directed capacitated link.

    Attributes:
        link_id: unique id, e.g. ``"host:3->tor:0"``.
        capacity: bytes per second.
        src: id of the upstream node ("" for virtual links).
        dst: id of the downstream node ("" for virtual links).
        virtual: True for non-wire constraints such as agg-box processing.
        bytes_carried: cumulative bytes accounted onto this link.
    """

    link_id: str
    capacity: float
    src: str = ""
    dst: str = ""
    virtual: bool = False
    bytes_carried: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link {self.link_id!r} needs capacity > 0")


class Network:
    """A set of named links, with per-link traffic accounting."""

    def __init__(self, links: Optional[Iterable[Link]] = None) -> None:
        self._links: Dict[str, Link] = {}
        for link in links or ():
            self.add_link(link)

    def add_link(self, link: Link) -> None:
        if link.link_id in self._links:
            raise ValueError(f"duplicate link id {link.link_id!r}")
        self._links[link.link_id] = link

    def __contains__(self, link_id: str) -> bool:
        return link_id in self._links

    def capacities(self) -> Dict[str, float]:
        """Link id -> capacity, in the shape the fairness solver wants."""
        return {link_id: link.capacity for link_id, link in self._links.items()}

    def account(self, link_id: str, nbytes: float) -> None:
        """Record ``nbytes`` carried by ``link_id`` (for Fig. 9 metrics)."""
        self._links[link_id].bytes_carried += nbytes

    def wire_links(self) -> Iterator[Link]:
        """Iterate physical links only (excludes processing constraints)."""
        return (link for link in self._links.values() if not link.virtual)
