"""What a deployment still holds for requests that are over.

Shared by the platform, serving and chaos suites: a request that has
returned *or raised* must leave nothing behind in any agg box or master
shim (ARCHITECTURE, "Request lifetime").
"""

import gc

from repro.aggbox.box import RequestState
from repro.core.shim import _RequestEntry
from repro.wire.framing import ChunkReassembler

#: :func:`left_behind` of a platform with no request in flight.
NOTHING = (0, [], [])


def left_behind(platform):
    """(buffered partials, mid-frame streams, pending master requests)."""
    boxes = [platform.box_runtime(info.box_id)
             for info in platform.topology.all_boxes()]
    return (
        sum(box.pending_count() for box in boxes),
        [stream for box in boxes for stream in box.partial_streams()],
        [request for shim in platform._master_shims.values()
         for request in shim.pending_requests()],
    )


def census():
    """Live per-request objects in this process, by class name."""
    gc.collect()
    kinds = (RequestState, _RequestEntry, ChunkReassembler)
    counts = {kind.__name__: 0 for kind in kinds}
    for obj in gc.get_objects():
        if isinstance(obj, kinds):
            counts[type(obj).__name__] += 1
    return counts
