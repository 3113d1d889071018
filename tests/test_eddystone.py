import copy
import random
from pathlib import Path

import pytest

from beaconpark import eddystone as ed

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_frames.txt"


def load_goldens():
    lines = GOLDEN_PATH.read_text().splitlines()
    return [line.split(" ", 1) for line in lines if line]


GOLDENS = load_goldens()


class TestGoldenVectors:
    def test_corpus_covers_all_frame_kinds_and_url_codes(self):
        assert len(GOLDENS) >= 30
        renderings = [r for _, r in GOLDENS]
        assert sum(r.startswith("UID") for r in renderings) >= 5
        assert sum(r.startswith("URL") for r in renderings) >= 14
        assert sum(r.startswith("TLM") for r in renderings) >= 5
        url_bodies = [
            bytes.fromhex(h)[3:] for h, r in GOLDENS if r.startswith("URL")
        ]
        seen_codes = {b for body in url_bodies for b in body if b <= 0x0D}
        assert seen_codes == set(range(14))
        scheme_codes = {bytes.fromhex(h)[2] for h, r in GOLDENS if r.startswith("URL")}
        assert scheme_codes == {0, 1, 2, 3}

    @pytest.mark.parametrize("hex_text,rendering", GOLDENS, ids=range(len(GOLDENS)))
    def test_decode_render_reencode(self, hex_text, rendering):
        frame = ed.decode_frame(bytes.fromhex(hex_text))
        assert ed.render_frame(frame) == rendering
        assert ed.encode_frame(frame).hex() == hex_text


class TestUidFrame:
    def test_reference_vector(self):
        frame = ed.UidFrame(bytes(10), bytes(5) + b"\x01", -65)
        assert ed.encode_frame(frame).hex() == "00bf" + "00" * 10 + "000000000001"

    def test_roundtrip(self):
        frame = ed.UidFrame(bytes(range(10)), bytes(range(6)), -42)
        assert ed.decode_frame(ed.encode_frame(frame)) == frame

    def test_twenty_byte_form_with_zero_rfu_accepted(self):
        frame = ed.UidFrame(bytes(10), bytes(5) + b"\x07", -60)
        assert ed.decode_frame(ed.encode_frame(frame) + b"\x00\x00") == frame

    def test_twenty_byte_form_with_nonzero_rfu_rejected(self):
        payload = ed.encode_frame(ed.UidFrame(bytes(10), bytes(6), -60)) + b"\x00\x01"
        with pytest.raises(ed.FrameDecodeError):
            ed.decode_frame(payload)

    def test_trailing_garbage_rejected(self):
        payload = ed.encode_frame(ed.UidFrame(bytes(10), bytes(6), -60)) + b"\xaa"
        with pytest.raises(ed.FrameDecodeError):
            ed.decode_frame(payload)

    @pytest.mark.parametrize("ns_len,inst_len", [(9, 6), (11, 6), (10, 5), (10, 7)])
    def test_field_lengths_enforced(self, ns_len, inst_len):
        with pytest.raises(ed.FrameError):
            ed.UidFrame(bytes(ns_len), bytes(inst_len), -60)


class TestTlmFrame:
    def test_zero_case_all_zero_data(self):
        payload = ed.encode_frame(ed.TlmFrame(0, 0.0, 0, 0))
        assert payload[0] == 0x20 and payload[1] == 0x00
        assert payload[2:] == bytes(12)

    def test_roundtrip_fixed_point_temperature(self):
        frame = ed.TlmFrame(2995, -10.25, 1234, 99999)
        assert ed.decode_frame(ed.encode_frame(frame)) == frame

    def test_bad_version_rejected(self):
        payload = bytearray(ed.encode_frame(ed.TlmFrame(0, 0.0, 0, 0)))
        payload[1] = 0x01
        with pytest.raises(ed.FrameDecodeError):
            ed.decode_frame(bytes(payload))

    def test_trailing_byte_rejected(self):
        payload = ed.encode_frame(ed.TlmFrame(0, 0.0, 0, 0)) + b"\x00"
        with pytest.raises(ed.FrameDecodeError):
            ed.decode_frame(payload)

    def test_out_of_range_fields_rejected(self):
        with pytest.raises(ed.FrameError):
            ed.TlmFrame(70000, 0.0, 0, 0)
        with pytest.raises(ed.FrameError):
            ed.TlmFrame(0, 150.0, 0, 0)
        with pytest.raises(ed.FrameError):
            ed.TlmFrame(0, 0.0, 2**32, 0)


class TestUrlCodec:
    def test_example_dot_com(self):
        assert ed.encode_url("https://example.com") == (0x03, b"example\x07")

    def test_www_a_dot_org_slash(self):
        assert ed.encode_url("http://www.a.org/") == (0x00, b"a\x01")

    def test_greedy_prefers_slash_variant(self):
        prefix, body = ed.encode_url("http://www.x.com/y")
        assert (prefix, body) == (0x00, b"x\x00y")

    def test_unrecognized_scheme(self):
        with pytest.raises(ed.UrlEncodeError):
            ed.encode_url("ftp://example.com")

    def test_body_too_long(self):
        with pytest.raises(ed.UrlEncodeError):
            ed.encode_url("https://" + "a" * 18)

    def test_unencodable_character(self):
        with pytest.raises(ed.UrlEncodeError):
            ed.encode_url("https://exa mple.com")

    def test_roundtrip_corpus(self):
        hosts = ["a", "b12", "beacon-park", "x.y", "lot", "city", "qq", "z9", "p0"]
        suffixes = ["com", "org", "edu"]
        urls = []
        for scheme in ed.URL_SCHEMES:
            for host in hosts:
                for suffix in suffixes:
                    urls.append(f"{scheme}{host}.{suffix}")
                urls.append(f"{scheme}{host}.com/p")
        assert len(urls) >= 100
        for url in urls:
            prefix, body = ed.encode_url(url)
            assert len(body) <= ed.MAX_URL_BODY_BYTES
            assert ed.decode_url(prefix, body) == url

    def test_encoded_length_cap_includes_prefix(self):
        prefix, body = ed.encode_url("https://" + "a" * 17)
        assert 1 + len(body) <= 18

    def test_decode_rejects_bad_scheme_code(self):
        with pytest.raises(ed.FrameDecodeError):
            ed.decode_url(4, b"x")

    def test_decode_rejects_reserved_body_byte(self):
        with pytest.raises(ed.FrameDecodeError):
            ed.decode_url(0, b"\x15")


class TestDecodeErrors:
    def test_empty_input_is_truncated(self):
        with pytest.raises(ed.TruncatedFrameError, match="truncated"):
            ed.decode_frame(b"")

    def test_eid_frame_rejected_distinctly(self):
        with pytest.raises(ed.UnknownFrameTypeError, match="EID") as excinfo:
            ed.decode_frame(bytes([0x30]) + bytes(17))
        assert excinfo.value.frame_type == 0x30

    def test_unknown_frame_type(self):
        with pytest.raises(ed.UnknownFrameTypeError):
            ed.decode_frame(bytes([0x47, 0x00]))

    def test_url_frame_scheme_code_out_of_range(self):
        with pytest.raises(ed.FrameDecodeError):
            ed.decode_frame(bytes([0x10, 0xEE, 0x04, ord("x")]))

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 17])
    def test_truncated_payloads(self, n):
        for ftype in (0x00, 0x20):
            data = bytes([ftype]) + bytes(n - 1)
            if len(data) < (18 if ftype == 0x00 else 14):
                with pytest.raises(ed.FrameDecodeError):
                    ed.decode_frame(data)


def random_frame(rng: random.Random) -> ed.BeaconFrame:
    kind = rng.randrange(3)
    tx = rng.randint(-128, 127)
    if kind == 0:
        return ed.UidFrame(rng.randbytes(10), rng.randbytes(6), tx)
    if kind == 1:
        body_len = rng.randrange(0, 18)
        body = bytes(
            rng.choice([rng.randrange(0x0E), rng.randrange(0x21, 0x7F)])
            for _ in range(body_len)
        )
        return ed.UrlFrame(rng.randrange(4), body, tx)
    return ed.TlmFrame(
        battery_mv=rng.randrange(0x10000),
        temperature_c=rng.randrange(-32768, 32768) / 256.0,
        adv_count=rng.randrange(2**32),
        uptime_decisec=rng.randrange(2**32),
    )


class TestProperties:
    def test_roundtrip_random_frames(self):
        rng = random.Random(0xEDD)
        for _ in range(500):
            frame = random_frame(rng)
            assert ed.decode_frame(ed.encode_frame(frame)) == frame

    def test_decoder_total_on_arbitrary_bytes(self):
        rng = random.Random(0xF022)
        for _ in range(20_000):
            data = rng.randbytes(rng.randrange(0, 25))
            try:
                frame = ed.decode_frame(data)
            except ed.FrameDecodeError:
                continue
            reencoded = ed.encode_frame(frame)
            # the only non-canonical accepted form is the 20-byte UID
            assert reencoded == data or (len(data) == 20 and reencoded == data[:18])


class TestSpotId:
    def test_render_and_parse(self):
        spot = ed.SpotId("A", 3)
        assert str(spot) == "A3"
        assert ed.SpotId.parse("A3") == spot

    @pytest.mark.parametrize("text", ["a3", "AB3", "A0", "A03", "3A", "", "A"])
    def test_parse_rejects(self, text):
        with pytest.raises(ed.SpotIdError):
            ed.SpotId.parse(text)

    def test_ordering_is_lot_then_number(self):
        assert ed.SpotId("A", 2) < ed.SpotId("A", 10) < ed.SpotId("B", 1)

    def test_parse_render_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(200):
            spot = ed.SpotId(chr(rng.randrange(65, 91)), rng.randrange(1, 10**6))
            assert ed.SpotId.parse(str(spot)) == spot

    def test_instance_mapping(self):
        frame = ed.UidFrame(bytes(10), b"B\x00\x00\x00\x00\x03", -65)
        assert ed.spot_id_from_uid(frame) == ed.SpotId("B", 3)
        frame = ed.UidFrame(bytes(10), b"A\x00\x00\x00\x00\x01", -65)
        assert ed.spot_id_from_uid(frame) == ed.SpotId("A", 1)

    def test_instance_roundtrip(self):
        rng = random.Random(6)
        for _ in range(200):
            spot = ed.SpotId(chr(rng.randrange(65, 91)), rng.randrange(1, 2**40))
            frame = ed.UidFrame(bytes(10), ed.uid_instance_for_spot(spot), -60)
            assert ed.spot_id_from_uid(frame) == spot

    def test_non_letter_lot_byte_rejected(self):
        frame = ed.UidFrame(bytes(10), bytes(5) + b"\x01", -65)
        with pytest.raises(ed.SpotIdError):
            ed.spot_id_from_uid(frame)

    def test_zero_number_rejected(self):
        frame = ed.UidFrame(bytes(10), b"A\x00\x00\x00\x00\x00", -65)
        with pytest.raises(ed.SpotIdError):
            ed.spot_id_from_uid(frame)


class TestValueTypes:
    """SpotId and the frames keep the value semantics of frozen dataclasses."""

    VALUES = [
        (ed.SpotId("B", 12), "SpotId(lot='B', number=12)"),
        (ed.UidFrame(bytes(10), b"A\x00\x00\x00\x00\x01", -65),
         "UidFrame(namespace=b'\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00',"
         " instance=b'A\\x00\\x00\\x00\\x00\\x01', tx_power_dbm=-65)"),
        (ed.UrlFrame(3, b"park\x00", -20),
         "UrlFrame(scheme_prefix=3, encoded_body=b'park\\x00', tx_power_dbm=-20)"),
        (ed.TlmFrame(2995, -10.25, 1234, 99999),
         "TlmFrame(battery_mv=2995, temperature_c=-10.25, adv_count=1234, uptime_decisec=99999)"),
    ]

    @pytest.mark.parametrize("value, text", VALUES, ids=lambda v: type(v).__name__)
    def test_repr_equality_hash_and_copies(self, value, text):
        assert repr(value) == text
        twin = type(value)(*[getattr(value, name) for name in value._fields])
        assert twin == value and twin is not value
        assert hash(twin) == hash(value)
        assert copy.deepcopy(value) == value

    @pytest.mark.parametrize("value", [v for v, _ in VALUES], ids=lambda v: type(v).__name__)
    def test_immutable(self, value):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], value[0])
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_bytes_fields_are_coerced(self):
        frame = ed.UidFrame(bytearray(10), memoryview(bytes(6)), tx_power_dbm=-60)
        assert type(frame.namespace) is bytes and type(frame.instance) is bytes
        assert type(ed.UrlFrame(0, bytearray(b"x"), -60).encoded_body) is bytes

    def test_keyword_construction_is_checked(self):
        assert ed.SpotId(lot="C", number=4) == ed.SpotId("C", 4)
        with pytest.raises(ed.SpotIdError, match="^spot number must be positive, got 0$"):
            ed.SpotId(lot="C", number=0)
        with pytest.raises(ed.SpotIdError, match="^lot must be a single uppercase letter, got 'c'"):
            ed.SpotId("c", 1)
        with pytest.raises(ed.FrameError, match="^tx power 128 outside signed byte range$"):
            ed.UidFrame(bytes(10), bytes(6), tx_power_dbm=128)
