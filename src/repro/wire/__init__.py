"""Binary wire format (the paper's KryoNet substitute, §3.2.1).

Agg boxes "transfer data with an efficient binary network protocol"
instead of wasteful application formats (HTTP/XML).  This package
implements that layer from scratch:

- :mod:`repro.wire.serializer` -- varint/zig-zag primitives and a
  compact value serialiser;
- :mod:`repro.wire.framing` -- length-prefixed frames plus a streaming
  chunk reader that tolerates records split across chunk boundaries
  (the Hadoop deserialiser "must account for incomplete pairs at the end
  of each received chunk");
- :mod:`repro.wire.records` -- typed records: key/value pairs for
  map/reduce traffic and scored documents for search results.
"""

from repro.wire.framing import ChunkReassembler, frame, unframe_all
from repro.wire.records import (
    KeyValue,
    SearchResult,
    decode_kv_stream,
    decode_search_results,
    encode_kv_stream,
    encode_search_results,
)
from repro.wire.serializer import (
    WireError,
    read_bytes,
    read_float,
    read_floats,
    read_string,
    read_varint,
    write_bytes,
    write_float,
    write_floats,
    write_string,
    write_varint,
)

__all__ = [
    "WireError",
    "read_varint",
    "write_varint",
    "read_string",
    "write_string",
    "read_bytes",
    "write_bytes",
    "read_float",
    "write_float",
    "read_floats",
    "write_floats",
    "frame",
    "unframe_all",
    "ChunkReassembler",
    "KeyValue",
    "SearchResult",
    "encode_kv_stream",
    "decode_kv_stream",
    "encode_search_results",
    "decode_search_results",
]
