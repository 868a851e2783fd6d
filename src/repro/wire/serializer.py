"""Varint/zig-zag primitives and scalar codecs.

The encoding follows the scheme Kryo (and protobuf) use: unsigned
varints with 7 payload bits per byte, zig-zag mapping for signed
integers, length-prefixed UTF-8 strings and raw byte blobs, and IEEE-754
doubles for floats.  All readers take ``(buffer, offset)`` and return
``(value, new_offset)`` so they compose into streaming decoders.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple


class WireError(ValueError):
    """Raised on malformed or truncated wire data."""


class WireTruncated(WireError):
    """The buffer ended inside a value: more bytes could complete it.

    What a streaming reader may wait on; every other :class:`WireError`
    is malformed for good.
    """


_MAX_VARINT_BYTES = 10  # enough for 64-bit values
_MAX_VARINT_BITS = 7 * _MAX_VARINT_BYTES
_LAST_VARINT_SHIFT = _MAX_VARINT_BITS - 7  # the tenth byte's


def append_varint(out: bytearray, value: int) -> None:
    """Append a non-negative integer to ``out`` as an unsigned varint.

    Refuses what :func:`read_varint` refuses: a value of more than 70
    bits would take an eleventh byte.
    """
    if value < 0:
        raise WireError(f"varint cannot encode negative value {value}")
    if value > 0x7F:
        if value >> _MAX_VARINT_BITS:
            raise WireError(f"varint cannot encode {value}: it needs more "
                            f"than {_MAX_VARINT_BYTES} bytes")
        while value > 0x7F:
            out.append(value & 0x7F | 0x80)
            value >>= 7
    out.append(value)


def write_varint(value: int) -> bytes:
    """Encode a non-negative integer as an unsigned varint."""
    out = bytearray()
    append_varint(out, value)
    return bytes(out)


def read_varint(buffer: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode an unsigned varint; returns ``(value, new_offset)``.

    Only the shortest encoding of a value is accepted (a multi-byte
    varint ending in a zero byte pads a shorter one), so every byte
    string that decodes re-encodes to itself.
    """
    size = len(buffer)
    if offset < size:
        byte = buffer[offset]
        if byte < 0x80:  # a count, a short length, a small id
            return byte, offset + 1
        result = byte & 0x7F
        shift = 7
        offset += 1
        while offset < size:
            byte = buffer[offset]
            offset += 1
            if byte < 0x80:
                if not byte:
                    raise WireError("overlong varint")
                return result | byte << shift, offset
            if shift == _LAST_VARINT_SHIFT:
                raise WireError("varint longer than 10 bytes")
            result |= (byte & 0x7F) << shift
            shift += 7
    raise WireTruncated("truncated varint")


def write_signed(value: int) -> bytes:
    """Zig-zag encode a signed integer."""
    return write_varint((value << 1) ^ (value >> 63) if value >= 0
                        else ((-value) << 1) - 1)


def read_signed(buffer: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a zig-zag encoded signed integer."""
    raw, offset = read_varint(buffer, offset)
    return (raw >> 1) ^ -(raw & 1), offset


def write_bytes(data: bytes) -> bytes:
    """Length-prefixed byte blob."""
    return write_varint(len(data)) + data


def read_bytes(buffer: bytes, offset: int = 0) -> Tuple[bytes, int]:
    length, offset = read_varint(buffer, offset)
    end = offset + length
    if end > len(buffer):
        raise WireTruncated("truncated byte blob")
    return bytes(buffer[offset:end]), end


def write_string(text: str) -> bytes:
    """Length-prefixed UTF-8 string."""
    return write_bytes(text.encode("utf-8"))


def read_string(buffer: bytes, offset: int = 0) -> Tuple[str, int]:
    raw, offset = read_bytes(buffer, offset)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid UTF-8 in string: {exc}") from exc


_DOUBLE = struct.Struct(">d")


def write_float(value: float) -> bytes:
    """IEEE-754 double, big-endian."""
    return _DOUBLE.pack(value)


def read_float(buffer: bytes, offset: int = 0) -> Tuple[float, int]:
    end = offset + 8
    if end > len(buffer):
        raise WireTruncated("truncated float")
    return _DOUBLE.unpack_from(buffer, offset)[0], end


def write_floats(values: Sequence[float]) -> bytes:
    """A run of doubles in one ``struct`` call.

    Byte-for-byte the concatenation of :func:`write_float` over
    ``values``; the run carries no count of its own.
    """
    return struct.pack(f">{len(values)}d", *values)


def read_floats(buffer: bytes, offset: int,
                count: int) -> Tuple[List[float], int]:
    """Decode ``count`` consecutive doubles; ``(values, new_offset)``.

    ``count`` usually comes off the wire, so it is checked against the
    bytes actually present before any format or list is sized by it.
    """
    if count > (len(buffer) - offset) // 8:
        raise WireTruncated("truncated float")
    values = struct.unpack_from(f">{count}d", buffer, offset)
    return list(values), offset + 8 * count
