"""Length-prefixed framing and streaming chunk reassembly.

Shim layers and agg boxes exchange *frames* (one serialised record batch
per frame) over byte streams.  Because the network layer hands data to
the deserialiser in arbitrary chunks, a frame can be split across chunk
boundaries; :class:`ChunkReassembler` buffers the incomplete tail, which
is exactly the behaviour §3.2.1 describes for the Hadoop deserialiser
("the deserialiser must account for incomplete pairs at the end of each
received chunk").
"""

from __future__ import annotations

from typing import List, Optional

from repro.wire.serializer import (
    WireError,
    WireTruncated,
    read_varint,
    write_varint,
)


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a varint length prefix."""
    return write_varint(len(payload)) + payload


def whole_frame(chunk: bytes) -> Optional[bytes]:
    """The payload of ``chunk`` when it is exactly one complete frame.

    ``None`` for anything else -- several frames, part of one, a
    malformed prefix -- which a :class:`ChunkReassembler` then handles
    (and rejects) as usual.  Lets a receiver skip the reassembler for
    the common chunk that carries one whole frame.
    """
    size = len(chunk)
    if size and chunk[0] == size - 1 < 0x80:  # a one-byte length prefix
        return bytes(chunk[1:])
    try:
        length, after = read_varint(chunk, 0)
    except WireError:
        return None
    if after + length != size:
        return None
    return bytes(chunk[after:])


class ChunkReassembler:
    """Streaming frame extractor tolerating arbitrary chunk boundaries.

    Arriving bytes are appended to one buffer.  Once the length prefix
    of the frame at its head has been read, :meth:`feed` knows how many
    bytes that frame needs and returns at once while fewer have arrived,
    so a frame costs time linear in its size however finely it is
    chunked.

    Only a prefix that more bytes could complete is waited for: a
    malformed one (ten bytes without a terminator, or a padded encoding)
    raises :class:`WireError` from the :meth:`feed` that finds it at the
    head of the buffer -- frames completed ahead of it in the same chunk
    are returned first, and the next ``feed`` raises.  The reassembler is
    unusable from then on: the stream has no frame boundary to
    resynchronise on.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Buffer length at which the frame at the head is complete;
        #: 0 while its length prefix has not fully arrived.
        self._need = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> List[bytes]:
        """Add a chunk; returns every frame completed by it."""
        buffer = self._buffer
        buffer += chunk
        if len(buffer) < self._need:
            return []
        self._need = 0
        frames: List[bytes] = []
        offset = 0
        while offset < len(buffer):
            try:
                length, after = read_varint(buffer, offset)
            except WireTruncated:
                break  # length prefix still arriving
            except WireError:
                if not frames:
                    raise
                break  # deliver what completed; the next feed raises
            end = after + length
            if end > len(buffer):
                self._need = end - offset  # incomplete payload
                break
            frames.append(bytes(buffer[after:end]))
            offset = end
        del buffer[:offset]
        return frames
