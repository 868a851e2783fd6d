"""How a served partial crosses into a box: a byte stream read in pieces.

§3.2.1: "the deserialiser must account for incomplete pairs at the end
of each received chunk".  ``_Request._feed`` frames a serialised
partial and hands the box its bytes in pieces through
``AggBoxRuntime.submit_chunk``; the box reassembles frames across
piece boundaries.  Where the pieces are cut must not matter: the
oracle below re-splits every piece the platform hands a box, at drawn
cut points, by wrapping ``submit_chunk`` from the outside, and requires
a served query and a served 1,024-dim gradient round to come out the
same as with the pieces as sent.
"""

from __future__ import annotations

from itertools import cycle
from typing import List, Sequence, Tuple
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggbox.box import AggBoxRuntime
from repro.core import platform as platform_module
from repro.obs import METRICS
from repro.serve import AggregationService, ServeConfig
from repro.wire.framing import ChunkReassembler, frame
from tests.leftovers import NOTHING, left_behind

QUERY = {"op": "query", "id": "q", "tenant": "tenant-1",
         "payload_seed": 12345, "workers": 8, "results_per_worker": 4}
ROUND = {"op": "mlgrad", "id": "g", "tenant": "tenant-1",
         "payload_seed": 7, "workers": 8, "gradient_dims": 1024}


def _served(request: dict) -> Tuple[object, int, List[tuple], tuple]:
    """What one request on a fresh service shows from outside: its
    value, the ``aggbox.partials`` delta, the ``platform.deliver`` tags
    ``(box, source, bytes, key, pending)`` in order, and what it left
    behind."""
    service = AggregationService(ServeConfig())
    recorder = service.telemetry.recorder
    partials = METRICS.counter("aggbox.partials")
    before, seen = partials.value, len(recorder.spans)
    response = service.handle(request)
    assert response["status"] == 200, response
    delivers = [(s.tags["box"], s.tags["source"], s.tags["bytes"],
                 s.tags["key"], s.tags["pending"])
                for s in list(recorder.spans)[seen:]
                if s.name == "platform.deliver"]
    return (response["value"], partials.value - before, delivers,
            left_behind(service.platform))


def _resplit(sizes: Sequence[int]):
    """``submit_chunk`` patched to cut every piece it is handed into
    consecutive pieces of ``sizes`` (cycled, restarting per piece)."""
    original = AggBoxRuntime.submit_chunk

    def submit_chunk(self, app, request_id, source, chunk):
        emitted, offset = None, 0
        for size in cycle(sizes):
            if offset >= len(chunk):
                break
            result = original(self, app, request_id, source,
                              chunk[offset:offset + size])
            offset += size
            if result is not None:
                emitted = result
        return emitted

    return patch.object(AggBoxRuntime, "submit_chunk", submit_chunk)


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 2048), min_size=1, max_size=6))
@example(sizes=[1])            # every byte alone: each prefix split
@example(sizes=[1, 1447])      # a one-byte head, then segment-sized
@example(sizes=[2, 1, 4096])
def test_where_a_delivery_is_cut_does_not_matter(sizes):
    for request in (QUERY, ROUND):
        with _resplit(sizes):
            resplit = _served(request)
        assert resplit == _served(request)
        assert resplit[3] == NOTHING


#: One TCP segment payload: 1,500 B MTU - 20 IP - 20 TCP - 12 timestamps.
SEGMENT = 1448


def _hops(request: dict) -> List[Tuple[bytes, List[bytes]]]:
    """``(frame, pieces)`` of every hop of one served request: the
    framed partial ``_feed`` delivers, and what it hands ``submit_chunk``."""
    hops: List[Tuple[bytes, List[bytes]]] = []
    feed = platform_module._Request._feed
    submit = AggBoxRuntime.submit_chunk

    def watched_feed(self, box_id, source, serialised):
        hops.append((frame(serialised), []))
        return feed(self, box_id, source, serialised)

    def watched_submit(self, app, request_id, source, chunk):
        hops[-1][1].append(bytes(chunk))
        return submit(self, app, request_id, source, chunk)

    service = AggregationService(ServeConfig())
    with patch.object(platform_module._Request, "_feed", watched_feed), \
            patch.object(AggBoxRuntime, "submit_chunk", watched_submit):
        assert service.handle(request)["status"] == 200
    return hops


def test_a_hop_is_consecutive_tcp_segments():
    """Each hop hands the box its frame in order, in pieces of at most
    one segment: six for a 1,024-dim gradient frame (8,196 B), one for
    a top-k query frame."""
    for request, pieces in ((QUERY, 1), (ROUND, 6)):
        hops = _hops(request)
        assert len(hops) == 14
        for framed, chunks in hops:
            assert b"".join(chunks) == framed
            assert max(map(len, chunks)) <= SEGMENT
            assert len(chunks) == pieces, (request["op"], len(framed))


def test_a_gradient_round_reaches_the_reassembler():
    """A frame larger than a segment is reassembled from its pieces:
    the served path, not only the tests, enters ``feed``."""
    feed, fed = ChunkReassembler.feed, []

    def counted(self, chunk):
        fed.append(len(chunk))
        return feed(self, chunk)

    with patch.object(ChunkReassembler, "feed", counted):
        _served(ROUND)
    assert len(fed) == 14 * 6
