import math
import random

import numpy as np
import pytest

from beaconpark import proximity
from beaconpark.eddystone import SpotId
from beaconpark.particle import FilterConfig
from beaconpark.pathloss import (
    INDOOR_MODEL,
    OUTDOOR_MODEL,
    average_rssi,
    estimate_distance,
    predict_rssi,
)
from beaconpark.proximity import (
    STREAM_DTYPE,
    BeaconLayout,
    raw_baseline,
    run_identification,
)
from beaconpark.simulate import (
    INDOOR_NOISE_SIGMA_DB,
    Scenario,
    generate_stream,
    three_beacon_layout,
)

A1, B1, C1 = SpotId("A", 1), SpotId("B", 1), SpotId("C", 1)


def stream(*rssi, interval_ms=1000):
    """A hand-made stream, one sample every interval_ms from 0 ms."""
    return np.array(
        [(i * interval_ms, r) for i, r in enumerate(rssi)], dtype=STREAM_DTYPE
    )


def raw_predictions(means_m):
    """The raw baseline's predicted spot for one round of noiseless readings."""
    layout = BeaconLayout(
        beacons=tuple((spot, float(i)) for i, spot in enumerate(means_m)),
        listener_offset=(0.0, 1.0),
    )
    streams = {spot: stream(predict_rssi(INDOOR_MODEL, d)) for spot, d in means_m.items()}
    tally = raw_baseline(streams, INDOOR_MODEL, layout)
    return [spot for spot, n in tally.counts.items() if n]


class TestLayout:
    def test_positions_must_increase(self):
        with pytest.raises(ValueError):
            BeaconLayout(beacons=((A1, 0.0), (B1, 0.0)), listener_offset=(0.0, 1.0))

    def test_negative_perpendicular_distance_rejected(self):
        with pytest.raises(ValueError):
            BeaconLayout(beacons=((A1, 0.0),), listener_offset=(0.0, -1.0))

    def test_duplicate_spot_rejected(self):
        with pytest.raises(ValueError):
            BeaconLayout(beacons=((A1, 0.0), (A1, 1.0)), listener_offset=(0.0, 1.0))

    def test_true_distances_use_pythagoras(self):
        layout = three_beacon_layout(2.0, 1.5)
        d = layout.true_distances()
        assert d[B1] == pytest.approx(1.5)
        assert d[A1] == d[C1] == pytest.approx(math.hypot(2.0, 1.5))

    def test_center_beacon_is_always_ground_truth_when_in_line(self):
        rng = random.Random(17)
        for _ in range(100):
            x, y = rng.uniform(0.1, 5.0), rng.uniform(0.0, 5.0)
            layout = three_beacon_layout(x, y)
            assert math.hypot(x, y) >= y
            assert layout.ground_truth() == B1

    def test_listener_offset_moves_ground_truth(self):
        layout = BeaconLayout(
            beacons=((A1, -2.0), (B1, 0.0), (C1, 2.0)),
            listener_offset=(2.0, 0.5),
        )
        assert layout.ground_truth() == C1


class TestPredictSpot:
    """The nearest-spot rule applied to every round's distance estimates."""

    def test_unique_minimum(self):
        assert raw_predictions({A1: 2.3, B1: 0.9, C1: 2.1}) == [B1]

    def test_tie_breaks_to_smallest_spot_id(self):
        assert raw_predictions({B1: 1.0, A1: 1.0}) == [A1]
        assert raw_predictions({C1: 1.5, B1: 1.5, A1: 2.0}) == [B1]

    def test_empty_rejected(self):
        layout = three_beacon_layout(1.0, 0.5)
        with pytest.raises(ValueError):
            raw_baseline({}, INDOOR_MODEL, layout)

    def test_invariant_under_increasing_transforms(self):
        # Each model maps RSSI to distance by a different decreasing map,
        # so the predictions depend on the RSSI order alone.
        rng = random.Random(23)
        layout = three_beacon_layout(1.0, 0.5)
        for _ in range(20):
            streams = {
                spot: stream(*[rng.uniform(-90.0, -50.0) for _ in range(30)])
                for spot in (A1, B1, C1)
            }
            indoor = raw_baseline(streams, INDOOR_MODEL, layout)
            outdoor = raw_baseline(streams, OUTDOOR_MODEL, layout)
            assert indoor.counts == outdoor.counts


def noiseless_streams(x=2.0, y=0.5, duration_s=30.0, seed=0, sigma=0.0, drop=0.0):
    layout = three_beacon_layout(x, y)
    scenario = Scenario(
        model=INDOOR_MODEL,
        noise_sigma_db=sigma,
        duration_s=duration_s,
        drop_rate=drop,
        seed=seed,
    )
    truth = layout.true_distances()
    streams = {spot: generate_stream(scenario, spot, truth[spot]) for spot in layout.spots()}
    return layout, streams


class TestRunIdentification:
    def test_noiseless_accuracy_is_perfect(self):
        layout, streams = noiseless_streams()
        tally = run_identification(layout, streams, INDOOR_MODEL, FilterConfig(), 1)
        assert tally.accuracy == 1.0
        assert tally.counts[B1] == tally.total == 30

    def test_tally_conservation_with_noise(self):
        layout, streams = noiseless_streams(sigma=6.0, seed=5)
        tally = run_identification(layout, streams, INDOOR_MODEL, FilterConfig(), 2)
        assert sum(tally.counts.values()) == tally.total == 30

    def test_deterministic_given_seeds(self):
        layout, streams = noiseless_streams(sigma=5.0, seed=9)
        tallies = [
            run_identification(layout, streams, INDOOR_MODEL, FilterConfig(), 3)
            for _ in range(2)
        ]
        assert tallies[0].counts == tallies[1].counts

    def test_missing_rounds_reuse_filter_state(self):
        layout, streams = noiseless_streams(drop=0.4, seed=11, duration_s=60.0)
        tally = run_identification(layout, streams, INDOOR_MODEL, FilterConfig(), 4)
        # one prediction per one-second round up to the last received sample
        last_ts = max(int(stream["timestamp_ms"][-1]) for stream in streams.values())
        assert tally.total == last_ts // 1000 + 1
        assert tally.accuracy == 1.0

    def test_unknown_stream_beacon_rejected(self):
        layout, streams = noiseless_streams()
        streams[SpotId("Z", 9)] = streams[A1]
        with pytest.raises(ValueError):
            run_identification(layout, streams, INDOOR_MODEL, FilterConfig(), 5)

    def test_empty_streams_rejected(self):
        layout, _ = noiseless_streams()
        with pytest.raises(ValueError):
            run_identification(layout, {A1: stream()}, INDOOR_MODEL, FilterConfig(), 6)

    def test_malformed_streams_rejected(self):
        layout, streams = noiseless_streams()
        bad = {
            "a list of tuples": [(0, -70.0)],
            "a non-finite RSSI": stream(-70.0, math.nan),
            "out of time order": stream(-70.0, -71.0)[::-1],
            "a negative timestamp": np.array([(-1, -70.0)], dtype=STREAM_DTYPE),
        }
        for bad_stream in bad.values():
            with pytest.raises(ValueError):
                run_identification(
                    layout, {**streams, A1: bad_stream}, INDOOR_MODEL, FilterConfig(), 6
                )
            with pytest.raises(ValueError):
                raw_baseline({**streams, A1: bad_stream}, INDOOR_MODEL, layout)

    def test_missing_stream_filter_keeps_its_prior(self):
        layout, streams = noiseless_streams()
        del streams[C1]
        tally = run_identification(layout, streams, INDOOR_MODEL, FilterConfig(), 7)
        assert tally.total == 30
        assert tally.counts[B1] == 30

    def test_b_chosen_every_round_at_x2_y05(self):
        # 116 prediction rounds, beacon separation 2 m, listener 0.5 m out
        layout, streams = noiseless_streams(
            x=2.0, y=0.5, duration_s=116.0, sigma=INDOOR_NOISE_SIGMA_DB, seed=116
        )
        tally = run_identification(layout, streams, INDOOR_MODEL, FilterConfig(), 116)
        assert tally.total == 116
        assert tally.counts[B1] == 116
        assert tally.accuracy == 1.0


class TestRawBaseline:
    def test_noiseless_accuracy_is_perfect(self):
        layout, streams = noiseless_streams()
        tally = raw_baseline(streams, INDOOR_MODEL, layout)
        assert tally.accuracy == 1.0

    def test_never_heard_beacon_cannot_win(self):
        layout, streams = noiseless_streams()
        streams = {A1: streams[A1], B1: streams[B1], C1: stream()}
        tally = raw_baseline(streams, INDOOR_MODEL, layout)
        assert tally.counts[C1] == 0

    def test_filtered_beats_raw_under_noise(self):
        layout, streams = noiseless_streams(x=2.0, y=1.0, sigma=INDOOR_NOISE_SIGMA_DB,
                                            seed=31, duration_s=120.0)
        raw = raw_baseline(streams, INDOOR_MODEL, layout)
        filtered = run_identification(layout, streams, INDOOR_MODEL, FilterConfig(), 32)
        assert filtered.accuracy >= raw.accuracy

    def test_rssi_sample_streams_are_time_ordered(self):
        _, streams = noiseless_streams()
        for samples in streams.values():
            assert samples.dtype == STREAM_DTYPE
            stamps = samples["timestamp_ms"].tolist()
            assert stamps == sorted(stamps)

    def test_several_samples_per_round_are_averaged(self):
        layout = three_beacon_layout(1.0, 0.5)
        # A's two readings in round 0 average to -60 dBm, louder than B and C.
        streams = {
            A1: stream(-50.0, -70.0, interval_ms=400),
            B1: stream(-65.0, -65.0, -65.0, -65.0, interval_ms=400),
            C1: stream(-80.0),
        }
        tally = raw_baseline(streams, INDOOR_MODEL, layout)
        # rounds 0 and 1 (A silent in round 1 keeps its -60 dBm estimate)
        assert tally.total == 2
        assert tally.counts == {A1: 2, B1: 0, C1: 0}

    def test_silent_beacon_keeps_its_last_estimate(self):
        layout = three_beacon_layout(1.0, 0.5)
        streams = {
            A1: np.array([(0, -60.0), (2500, -90.0)], dtype=STREAM_DTYPE),
            B1: stream(-65.0, -65.0, -65.0),
            C1: stream(-80.0),
        }
        tally = raw_baseline(streams, INDOOR_MODEL, layout)
        # A leads in rounds 0 and 1 (carried forward), B in round 2
        assert tally.total == 3
        assert tally.counts == {A1: 2, B1: 1, C1: 0}


def loop_raw_distances(streams, model, spots):
    """The per-round loop the array form of raw_baseline replaced, as its reference."""
    n_rounds = max(int(s["timestamp_ms"][-1]) for s in streams.values() if len(s)) // 1000 + 1
    distances = np.empty((len(spots), n_rounds))
    for row, spot in enumerate(spots):
        samples = streams[spot].tolist()
        current = math.inf
        for r in range(n_rounds):
            window = [rssi for t, rssi in samples if t // 1000 == r]
            if window:
                current = estimate_distance(model, average_rssi(window))
            distances[row, r] = current
    return distances


def ragged_stream(rng, counts):
    """counts[r] samples in round r, at sorted random times, RSSI to many decimals."""
    rows = []
    for r, n in enumerate(counts):
        for t in sorted(rng.sample(range(1000), n)):
            rows.append((r * 1000 + t, rng.gauss(-70.0, 6.0)))
    return np.array(rows, dtype=STREAM_DTYPE)


class TestRawBaselineArrayForm:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("model", [INDOOR_MODEL, OUTDOOR_MODEL], ids=["indoor", "outdoor"])
    def test_equals_the_per_round_loop_bit_for_bit(self, monkeypatch, seed, model):
        rng = random.Random(seed)
        n_rounds = 120
        ragged = [rng.choice((0, 1, 1, 2, 3, 7)) for _ in range(n_rounds)]
        silent_mid = [rng.randint(1, 4) for _ in range(n_rounds)]
        silent_mid[30:70] = [0] * 40
        streams = {
            A1: ragged_stream(rng, ragged),
            B1: ragged_stream(rng, silent_mid),
            C1: ragged_stream(rng, [0] * rng.randint(0, n_rounds)),  # never heard
        }
        seen = {}
        tally = proximity._tally

        def capture(layout, spots, distances):
            seen["distances"] = distances
            return tally(layout, spots, distances)

        monkeypatch.setattr(proximity, "_tally", capture)
        layout = three_beacon_layout(1.5, 1.0)
        raw = raw_baseline(streams, model, layout)
        expected = loop_raw_distances(streams, model, [A1, B1, C1])
        assert seen["distances"].shape == expected.shape
        assert seen["distances"].tobytes() == expected.tobytes()
        assert np.isinf(expected[2]).all()
        assert raw == tally(layout, [A1, B1, C1], expected)


class TestGeometryOracle:
    def test_side_beacons_never_closer_for_centered_listener(self):
        rng = random.Random(29)
        for _ in range(200):
            x, y = rng.uniform(0.05, 4.0), rng.uniform(0.0, 4.0)
            assert math.hypot(x, y) >= y

    def test_noiseless_rssi_ranks_center_first(self):
        layout, _ = noiseless_streams(x=1.0, y=0.5)
        truth = layout.true_distances()
        rssi = {spot: predict_rssi(INDOOR_MODEL, d) for spot, d in truth.items()}
        assert max(rssi, key=lambda s: (rssi[s],)) == B1
