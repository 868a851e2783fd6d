"""ECMP-style routing over pre-enumerated equal-cost paths.

The paper assumes ECMP [RFC 2992]: each flow is hashed onto one of the
equal-cost shortest paths between its endpoints.  Topology builders hand
this router the full set of equal-cost paths; the router picks one per
flow with a deterministic hash of the flow's 5-tuple-like key, so runs
are reproducible and flows of the same key stay on the same path (flow
affinity, as with real ECMP).
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Tuple


def stable_hash(key: str) -> int:
    """A process-stable 64-bit hash (``hash()`` is salted per process)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class SinglePathRouter:
    """Always take the first equal-cost path (the no-ECMP ablation)."""

    def choose(
        self, paths: Sequence[Tuple[str, ...]], flow_key: str
    ) -> Tuple[str, ...]:
        if not paths:
            raise ValueError(f"no paths available for flow {flow_key!r}")
        return tuple(paths[0])


class EcmpRouter:
    """Pick one of several equal-cost paths by hashing a flow key."""

    def choose(
        self, paths: Sequence[Tuple[str, ...]], flow_key: str
    ) -> Tuple[str, ...]:
        """Return the path selected for ``flow_key``.

        Raises ``ValueError`` for an empty path set: the caller is expected
        to only route between connected endpoints.
        """
        if not paths:
            raise ValueError(f"no paths available for flow {flow_key!r}")
        if len(paths) == 1:
            return tuple(paths[0])
        index = stable_hash(flow_key) % len(paths)
        return tuple(paths[index])
