"""Open-loop serving workload: Zipfian tenants, Poisson arrivals.

Closed, scripted experiments (``repro.workload.synthetic``) generate a
fixed set of jobs up front.  The serving layer (``repro.serve``) needs
the *open-loop* shape of §5's evaluation instead: a population of users
issues requests at an aggregate rate regardless of whether the service
keeps up, tenants are hit with Zipfian popularity (a few hot tenants
dominate), and each request is an independent Solr-style
partition/aggregate query or an mlgrad gradient round.

Everything is a pure function of (params, seed): the same parameters
replay the exact same arrival stream, tenant draws, request kinds and
payload seeds -- the property the deterministic-replay tests pin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

#: Request kinds the serving layer understands.
OP_QUERY = "query"     #: Solr-style partition/aggregate top-k query
OP_MLGRAD = "mlgrad"   #: one distributed gradient-aggregation round

OPS = (OP_QUERY, OP_MLGRAD)


@dataclass(frozen=True)
class OpenLoopParams:
    """Open-loop generator configuration.

    Attributes:
        users: size of the simulated user population.  The offered
            aggregate request rate is ``users * per_user_rate``
            requests per virtual second -- an open loop: arrivals keep
            coming whether or not the service keeps up.
        duration: virtual seconds of arrivals to generate.
        per_user_rate: sustained request rate of one user (req/s).
        tenants: number of distinct tenants sharing the deployment.
        zipf_s: Zipf exponent of tenant popularity (rank 1 hottest).
        query_fraction: fraction of requests that are Solr-style
            queries; the remainder are mlgrad rounds.
        workers: worker fan-in of each request (hosts holding partials).
        results_per_worker: per-worker result count of a query request.
        gradient_dims: gradient vector length of an mlgrad request.
    """

    users: int = 10_000
    duration: float = 10.0
    per_user_rate: float = 0.001
    tenants: int = 8
    zipf_s: float = 1.2
    query_fraction: float = 0.8
    workers: int = 8
    results_per_worker: int = 4
    gradient_dims: int = 8

    def __post_init__(self) -> None:
        if self.users < 1 or self.tenants < 1 or self.workers < 1:
            raise ValueError("users, tenants and workers must be >= 1")
        if self.duration <= 0 or self.per_user_rate <= 0:
            raise ValueError("duration and per_user_rate must be positive")
        if not 0.0 <= self.query_fraction <= 1.0:
            raise ValueError("query_fraction must be in [0, 1]")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be positive")

    @property
    def offered_rate(self) -> float:
        """Aggregate offered request rate (req/virtual second)."""
        return self.users * self.per_user_rate


@dataclass(frozen=True)
class Arrival:
    """One open-loop request arrival."""

    at: float          #: arrival time on the virtual clock
    tenant: str        #: tenant id, Zipf-ranked (``tenant-1`` hottest)
    op: str            #: OP_QUERY or OP_MLGRAD
    request_id: str    #: globally unique id within the run
    payload_seed: int  #: seed for the request's payload generator


class ZipfTenants:
    """Deterministic Zipf(s) sampler over ``tenant-1 .. tenant-n``.

    Rank 1 is the hottest tenant; the cumulative weight table makes a
    draw O(log n) via bisection.
    """

    def __init__(self, n: int, s: float) -> None:
        if n < 1:
            raise ValueError("need at least one tenant")
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        total = sum(weights)
        self.names: Tuple[str, ...] = tuple(
            f"tenant-{rank}" for rank in range(1, n + 1))
        acc = 0.0
        cumulative: List[float] = []
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        cumulative[-1] = 1.0
        self._cumulative = cumulative

    def draw(self, rng: random.Random) -> str:
        import bisect

        u = rng.random()
        return self.names[bisect.bisect_left(self._cumulative, u)]


def iter_arrivals(params: OpenLoopParams,
                  seed: int = 1) -> Iterator[Arrival]:
    """The arrival stream, lazily, in time order, seed-deterministic.

    Inter-arrival gaps are exponential at the aggregate offered rate
    (a Poisson process -- the standard open-loop model); tenant, op and
    payload seed are drawn per arrival from the same seeded stream.
    """
    rng = random.Random(seed * 0x5E5E + 17)
    tenants = ZipfTenants(params.tenants, params.zipf_s)
    rate = params.offered_rate
    t = 0.0
    index = 0
    while True:
        t += rng.expovariate(rate)
        if t >= params.duration:
            return
        op = OP_QUERY if rng.random() < params.query_fraction \
            else OP_MLGRAD
        yield Arrival(
            at=t,
            tenant=tenants.draw(rng),
            op=op,
            request_id=f"req-{index}",
            payload_seed=rng.randrange(1 << 30),
        )
        index += 1


def pick_endpoints(hosts: Sequence[str], payload_seed: int,
                   n_workers: int) -> Tuple[str, List[str]]:
    """Master + worker hosts of one request, from its payload seed."""
    rng = random.Random(payload_seed ^ 0xE11D)
    n = min(n_workers, max(1, len(hosts) - 1))
    chosen = rng.sample(range(len(hosts)), n + 1)
    return hosts[chosen[0]], [hosts[i] for i in chosen[1:]]
