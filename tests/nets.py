"""Small hand-made networks, built in one expression.

:class:`repro.netsim.network.Network` starts empty and the topology
builders add their links one at a time; the tests' few-link networks
are built here the same way.
"""

from typing import Iterable

from repro.netsim.network import Link, Network


def network_of(links: Iterable[Link]) -> Network:
    """A network of ``links``, in order."""
    net = Network()
    for link in links:
        net.add_link(link)
    return net
