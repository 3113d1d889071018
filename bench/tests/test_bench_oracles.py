"""The benchmark's oracles against independent computations.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import math
import os
import random
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import oracles  # noqa: E402
from beaconpark import eddystone, parking  # noqa: E402


def _phi(x):
    return 0.5 * (1 + math.erf(x / math.sqrt(2)))


class TestSingleSampleAccuracy:
    def test_equal_means_is_one_third(self):
        assert oracles.p_loudest([-70.0, -70.0, -70.0], 5.0, 1) == pytest.approx(1 / 3, abs=1e-6)

    def test_two_readings_closed_form(self):
        # P(X0 > X1) = Phi((mu0 - mu1) / (sigma sqrt 2))
        p = oracles.p_loudest([-70.0, -73.0], 4.0, 0)
        assert p == pytest.approx(_phi(3.0 / (4.0 * math.sqrt(2))), abs=1e-6)

    def test_matches_monte_carlo(self):
        means = np.array([-72.0, -66.5, -75.0])
        draws = means + 5.45 * np.random.default_rng(7).standard_normal((400_000, 3))
        freq = float(np.mean(np.argmax(draws, axis=1) == 1))
        p = oracles.p_loudest(means, 5.45, 1)
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / 400_000)

    def test_anchor_cell_reproduces_the_calibration_target(self):
        # sigma 5.45 dB was chosen so that raw accuracy at X = 1 m, Y = 0.5 m is 77.8%.
        means = [oracles.mean_rssi_dbm(2.424, -65.24, d) for d in oracles.row_distances(1.0, 0.5)]
        assert oracles.p_loudest(means, 5.45, 1) == pytest.approx(0.778, abs=0.005)


class TestTruthSpot:
    def test_listener_in_front_of_the_middle_beacon(self):
        for x in (1.0, 1.5, 3.0):
            for y in (0.0, 0.5, 2.5):
                assert oracles.truth_spot(x, y) == 1

    def test_row_distances(self):
        assert oracles.row_distances(3.0, 4.0) == [5.0, 4.0, 5.0]


class TestBilling:
    @pytest.mark.parametrize(
        "rate, elapsed_ms, cents",
        [(200, 0, 0), (200, 1, 4), (200, 60_000, 4), (200, 60_001, 7), (200, 5_400_000, 300)],
    )
    def test_examples(self, rate, elapsed_ms, cents):
        assert oracles.parking_cost_cents(rate, elapsed_ms) == cents

    def test_agrees_with_the_service(self):
        rng = random.Random(3)
        for _ in range(2000):
            rate, elapsed = rng.randrange(0, 1000), rng.randrange(0, 10**8)
            minutes = parking.billable_minutes(0, elapsed)
            assert oracles.parking_cost_cents(rate, elapsed) == parking.parking_cost_cents(
                rate, minutes
            )


class TestFrames:
    def test_uid_frame_and_instance(self):
        ns = bytes(range(10, 20))
        spot = eddystone.SpotId("B", 1234567)
        inst = oracles.uid_instance("B", 1234567)
        assert inst == eddystone.uid_instance_for_spot(spot)
        frame = oracles.uid_frame(-20, ns, inst)
        assert len(frame) == 18
        assert frame == eddystone.encode_frame(eddystone.UidFrame(ns, inst, -20))
        assert eddystone.spot_id_from_uid(eddystone.decode_frame(frame)) == spot

    @pytest.mark.parametrize(
        "scheme, body, url",
        [
            ("https://", b"park\x00A1", "https://park.com/A1"),
            ("http://www.", b"park\x01B160", "http://www.park.org/B160"),
            ("https://", b"park\x03A77", "https://park.net/A77"),
        ],
    )
    def test_url_frame(self, scheme, body, url):
        frame = oracles.url_frame(-20, scheme, body)
        assert frame == eddystone.encode_frame(eddystone.UrlFrame.from_url(url, -20))
        assert eddystone.decode_frame(frame).url() == url

    def test_tlm_frame(self):
        frame = oracles.tlm_frame(2950, -3.25, 70000, 123456)
        decoded = eddystone.decode_frame(frame)
        assert (decoded.battery_mv, decoded.temperature_c) == (2950, -3.25)
        assert (decoded.adv_count, decoded.uptime_decisec) == (70000, 123456)
