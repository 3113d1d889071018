"""Eddystone advertisement frame codec and parking-spot identifiers.

This module encodes and decodes the service-data payload of Eddystone
UID, URL, and TLM frames (the bytes that follow the 0xFEAA service UUID
in the advertisement; the BLE PDU wrapper is out of scope).

Byte layouts, all multi-byte integers big-endian:

    UID (18 bytes):   0x00, tx_power:s8, namespace[10], instance[6]
                      (a 20-byte form with two trailing 0x00 reserved
                      bytes is accepted on decode)
    URL (3..20):      0x10, tx_power:s8, scheme_code, encoded_body[0..17]
    TLM (14 bytes):   0x20, version=0x00, battery_mv:u16, temp:s8.8,
                      adv_count:u32, uptime_decisec:u32

EID frames (type 0x30) are rejected with a distinct error so callers can
log unsupported-frame encounters. Decoding is strict: trailing bytes are
an error.

Parking spots are labelled with a lot letter followed by a spot number
("B3"). A UID beacon carries its spot in the instance field: byte 0 is
the ASCII lot letter, bytes 1-5 the spot number as a 40-bit integer.
"""

from __future__ import annotations

import re
import struct
from collections import namedtuple

FRAME_TYPE_UID = 0x00
FRAME_TYPE_URL = 0x10
FRAME_TYPE_TLM = 0x20
FRAME_TYPE_EID = 0x30

TLM_VERSION = 0x00

# Scheme code -> expanded prefix (codes 0x00-0x03).
URL_SCHEMES = ("http://www.", "https://www.", "http://", "https://")

# Body byte -> expansion text (codes 0x00-0x0D).
URL_EXPANSIONS = (
    ".com/", ".org/", ".edu/", ".net/", ".info/", ".biz/", ".gov/",
    ".com", ".org", ".edu", ".net", ".info", ".biz", ".gov",
)

MAX_URL_BODY_BYTES = 17

# Longest expansion first so the greedy encoder prefers ".com/" to ".com".
_EXPANSIONS_BY_LENGTH = sorted(
    ((text, code) for code, text in enumerate(URL_EXPANSIONS)),
    key=lambda pair: -len(pair[0]),
)
_SCHEMES_BY_LENGTH = sorted(
    ((text, code) for code, text in enumerate(URL_SCHEMES)),
    key=lambda pair: -len(pair[0]),
)


class FrameError(ValueError):
    """Base error for frame construction and codec failures."""


class FrameEncodeError(FrameError):
    """Frame cannot be serialized (e.g. value out of field range)."""


class FrameDecodeError(FrameError):
    """Byte sequence is not a valid frame."""


class TruncatedFrameError(FrameDecodeError):
    """Byte sequence is shorter than the frame layout requires."""


class UnknownFrameTypeError(FrameDecodeError):
    """First byte is not a supported frame-type code."""

    def __init__(self, frame_type: int, message: str | None = None):
        self.frame_type = frame_type
        super().__init__(message or f"unknown frame type 0x{frame_type:02x}")


class UrlEncodeError(FrameError):
    """URL text cannot be compressed into a URL frame body."""


class SpotIdError(ValueError):
    """Text or beacon bytes do not name a valid parking spot."""


_SPOT_ID_RE = re.compile(r"^([A-Z])([1-9][0-9]*)$")


class SpotId(namedtuple("SpotId", "lot number")):
    """Parking spot name: one uppercase lot letter plus a positive number.

    Ordering is (lot, number), so A2 < A10 < B1.
    """

    __slots__ = ()

    def __new__(cls, lot: str, number: int):
        if len(lot) != 1 or not "A" <= lot <= "Z":
            raise SpotIdError(f"lot must be a single uppercase letter, got {lot!r}")
        if number < 1:
            raise SpotIdError(f"spot number must be positive, got {number}")
        return super().__new__(cls, lot, number)

    def __str__(self) -> str:
        return f"{self.lot}{self.number}"

    @classmethod
    def parse(cls, text: str) -> "SpotId":
        m = _SPOT_ID_RE.match(text)
        if m is None:
            raise SpotIdError(f"not a spot id: {text!r}")
        return cls(m.group(1), int(m.group(2)))


def _check_tx_power(tx_power_dbm: int) -> None:
    if not -128 <= tx_power_dbm <= 127:
        raise FrameError(f"tx power {tx_power_dbm} outside signed byte range")


class UidFrame(namedtuple("UidFrame", "namespace instance tx_power_dbm")):
    """UID frame: opaque 10-byte namespace and 6-byte instance identifiers."""

    __slots__ = ()

    def __new__(cls, namespace: bytes, instance: bytes, tx_power_dbm: int):
        namespace, instance = bytes(namespace), bytes(instance)
        if len(namespace) != 10:
            raise FrameError(f"namespace must be 10 bytes, got {len(namespace)}")
        if len(instance) != 6:
            raise FrameError(f"instance must be 6 bytes, got {len(instance)}")
        _check_tx_power(tx_power_dbm)
        return super().__new__(cls, namespace, instance, tx_power_dbm)


class UrlFrame(namedtuple("UrlFrame", "scheme_prefix encoded_body tx_power_dbm")):
    """URL frame holding the compressed body; see encode_url/decode_url."""

    __slots__ = ()

    def __new__(cls, scheme_prefix: int, encoded_body: bytes, tx_power_dbm: int):
        encoded_body = bytes(encoded_body)
        if not 0 <= scheme_prefix < len(URL_SCHEMES):
            raise FrameError(f"URL scheme code {scheme_prefix} out of range")
        if len(encoded_body) > MAX_URL_BODY_BYTES:
            raise FrameError(f"URL body is {len(encoded_body)} bytes, max {MAX_URL_BODY_BYTES}")
        for b in encoded_body:
            if b > 0x0D and not 0x21 <= b <= 0x7E:
                raise FrameError(f"invalid URL body byte 0x{b:02x}")
        _check_tx_power(tx_power_dbm)
        return super().__new__(cls, scheme_prefix, encoded_body, tx_power_dbm)

    @classmethod
    def from_url(cls, url: str, tx_power_dbm: int) -> "UrlFrame":
        prefix, body = encode_url(url)
        return cls(prefix, body, tx_power_dbm)

    def url(self) -> str:
        return decode_url(self.scheme_prefix, self.encoded_body)


class TlmFrame(namedtuple("TlmFrame", "battery_mv temperature_c adv_count uptime_decisec")):
    """TLM telemetry frame: battery, temperature, counters."""

    __slots__ = ()

    def __new__(cls, battery_mv: int, temperature_c: float, adv_count: int, uptime_decisec: int):
        if not 0 <= battery_mv <= 0xFFFF:
            raise FrameError(f"battery {battery_mv} mV outside u16 range")
        if not 0 <= adv_count <= 0xFFFFFFFF:
            raise FrameError(f"adv count {adv_count} outside u32 range")
        if not 0 <= uptime_decisec <= 0xFFFFFFFF:
            raise FrameError(f"uptime {uptime_decisec} outside u32 range")
        if not -32768 <= round(temperature_c * 256) <= 32767:
            raise FrameError(f"temperature {temperature_c} outside s8.8 range")
        return super().__new__(cls, battery_mv, temperature_c, adv_count, uptime_decisec)


BeaconFrame = UidFrame | UrlFrame | TlmFrame


def encode_url(url: str) -> tuple[int, bytes]:
    """Compress a URL to (scheme code, body bytes).

    The scheme must match one of URL_SCHEMES; the body is compressed
    greedily left to right with the longest matching expansion code.
    """
    scheme_prefix = None
    rest = ""
    for text, code in _SCHEMES_BY_LENGTH:
        if url.startswith(text):
            scheme_prefix = code
            rest = url[len(text):]
            break
    if scheme_prefix is None:
        raise UrlEncodeError(f"unrecognized URL scheme: {url!r}")

    body = bytearray()
    i = 0
    while i < len(rest):
        for text, code in _EXPANSIONS_BY_LENGTH:
            if rest.startswith(text, i):
                body.append(code)
                i += len(text)
                break
        else:
            o = ord(rest[i])
            if not 0x21 <= o <= 0x7E:
                raise UrlEncodeError(f"character {rest[i]!r} not encodable in a URL frame")
            body.append(o)
            i += 1
        if len(body) > MAX_URL_BODY_BYTES:
            raise UrlEncodeError(f"encoded URL body exceeds {MAX_URL_BODY_BYTES} bytes")
    return scheme_prefix, bytes(body)


def decode_url(scheme_prefix: int, body: bytes) -> str:
    """Expand (scheme code, body bytes) back to URL text."""
    if not 0 <= scheme_prefix < len(URL_SCHEMES):
        raise FrameDecodeError(f"URL scheme code {scheme_prefix} out of range")
    parts = [URL_SCHEMES[scheme_prefix]]
    for b in body:
        if b < len(URL_EXPANSIONS):
            parts.append(URL_EXPANSIONS[b])
        elif 0x21 <= b <= 0x7E:
            parts.append(chr(b))
        else:
            raise FrameDecodeError(f"invalid URL body byte 0x{b:02x}")
    return "".join(parts)


def encode_frame(frame: BeaconFrame) -> bytes:
    """Serialize a frame to its service-data payload bytes."""
    if isinstance(frame, UidFrame):
        return bytes([FRAME_TYPE_UID, frame.tx_power_dbm & 0xFF]) + frame.namespace + frame.instance
    if isinstance(frame, UrlFrame):
        return (
            bytes([FRAME_TYPE_URL, frame.tx_power_dbm & 0xFF, frame.scheme_prefix])
            + frame.encoded_body
        )
    if isinstance(frame, TlmFrame):
        return struct.pack(
            ">BBHhII",
            FRAME_TYPE_TLM,
            TLM_VERSION,
            frame.battery_mv,
            round(frame.temperature_c * 256),
            frame.adv_count,
            frame.uptime_decisec,
        )
    raise FrameEncodeError(f"not a beacon frame: {frame!r}")


def decode_frame(data: bytes) -> BeaconFrame:
    """Parse service-data payload bytes into a frame.

    Strict: unknown type bytes, short payloads, and trailing bytes are
    all errors (never anything but FrameDecodeError for bad input).
    """
    if len(data) == 0:
        raise TruncatedFrameError("truncated frame: empty input")
    ftype = data[0]
    tx = int.from_bytes(data[1:2], "big", signed=True)  # UID and URL: signed tx power
    if ftype == FRAME_TYPE_UID:
        if len(data) < 18:
            raise TruncatedFrameError(f"truncated UID frame: {len(data)} bytes")
        if len(data) == 20:
            if data[18] != 0 or data[19] != 0:
                raise FrameDecodeError("UID reserved bytes must be zero")
        elif len(data) != 18:
            raise FrameDecodeError(f"trailing bytes after UID frame: {len(data)} total")
        return UidFrame(data[2:12], data[12:18], tx)
    if ftype == FRAME_TYPE_URL:
        if len(data) < 3:
            raise TruncatedFrameError(f"truncated URL frame: {len(data)} bytes")
        if len(data) > 3 + MAX_URL_BODY_BYTES:
            raise FrameDecodeError(f"URL frame too long: {len(data)} bytes")
        try:
            return UrlFrame(data[2], data[3:], tx)
        except FrameError as exc:
            raise FrameDecodeError(str(exc)) from exc
    if ftype == FRAME_TYPE_TLM:
        if len(data) < 14:
            raise TruncatedFrameError(f"truncated TLM frame: {len(data)} bytes")
        if len(data) != 14:
            raise FrameDecodeError(f"trailing bytes after TLM frame: {len(data)} total")
        if data[1] != TLM_VERSION:
            raise FrameDecodeError(f"unsupported TLM version 0x{data[1]:02x}")
        battery, temp_fixed, adv, uptime = struct.unpack(">HhII", data[2:14])
        return TlmFrame(battery, temp_fixed / 256.0, adv, uptime)
    if ftype == FRAME_TYPE_EID:
        raise UnknownFrameTypeError(ftype, "unsupported frame type 0x30 (EID)")
    raise UnknownFrameTypeError(ftype)


def render_frame(frame: BeaconFrame) -> str:
    """Stable one-line debug rendering, used by the golden-vector files."""
    if isinstance(frame, UidFrame):
        return (
            f"UID tx={frame.tx_power_dbm} ns={frame.namespace.hex()}"
            f" inst={frame.instance.hex()}"
        )
    if isinstance(frame, UrlFrame):
        return f"URL tx={frame.tx_power_dbm} url={frame.url()}"
    if isinstance(frame, TlmFrame):
        return (
            f"TLM batt_mv={frame.battery_mv} temp_c={frame.temperature_c:.4f}"
            f" adv={frame.adv_count} uptime_ds={frame.uptime_decisec}"
        )
    raise FrameError(f"not a beacon frame: {frame!r}")


def spot_id_from_uid(frame: UidFrame) -> SpotId:
    """Read the spot convention out of a UID frame's instance field."""
    lot_byte = frame.instance[0]
    if not ord("A") <= lot_byte <= ord("Z"):
        raise SpotIdError(f"instance byte 0 (0x{lot_byte:02x}) is not an uppercase letter")
    number = int.from_bytes(frame.instance[1:6], "big")
    if number == 0:
        raise SpotIdError("spot number in instance bytes 1-5 is zero")
    return SpotId(chr(lot_byte), number)


def uid_instance_for_spot(spot: SpotId) -> bytes:
    """Inverse of spot_id_from_uid: pack a spot into a 6-byte instance."""
    if spot.number > 0xFFFFFFFFFF:
        raise SpotIdError(f"spot number {spot.number} does not fit in 40 bits")
    return bytes([ord(spot.lot)]) + spot.number.to_bytes(5, "big")
