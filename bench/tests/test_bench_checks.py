"""Each output check of the benchmark catches a fault planted in a copy of a real output.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import contextlib
import csv
import io
import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import experiments  # noqa: E402
import oracles  # noqa: E402
import parkinglot  # noqa: E402
from beaconpark import cli  # noqa: E402


def _run(exp, tmp_path_factory, seed=11):
    out = tmp_path_factory.mktemp(exp.name)
    scenario = out / "scenario.json"
    scenario.write_text(json.dumps(exp.scenario(seed)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--out-dir", str(out), *exp.argv, "--scenario", str(scenario)]) == 0
    return (out / exp.csv_name).read_bytes().decode()


def _edit(text, edit):
    rows = list(csv.reader(io.StringIO(text)))
    edit(rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def proximity_csv(tmp_path_factory):
    return _run(experiments.EXPERIMENTS["proximity_grid"], tmp_path_factory)


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    return _run(experiments.EXPERIMENTS["ranging_sweep"], tmp_path_factory)


class TestProximityChecks:
    def test_real_output_passes(self, proximity_csv):
        assert _edit(proximity_csv, lambda rows: None) == proximity_csv
        assert experiments.check_proximity_csv(proximity_csv) == []

    def test_swapped_tally(self, proximity_csv):
        def swap(rows):
            rows[1][3], rows[1][4] = rows[1][4], rows[1][3]  # raw A <-> B at X=1, Y=0.5

        problems = experiments.check_proximity_csv(_edit(proximity_csv, swap))
        assert any("not B's share" in p for p in problems)
        assert any("single-sample accuracy" in p for p in problems)

    def test_wrong_truth_spot(self, proximity_csv):
        def score_against_a(rows):
            row = rows[2]
            row[6] = f"{100.0 * int(row[3]) / 300:.1f}"

        problems = experiments.check_proximity_csv(_edit(proximity_csv, score_against_a))
        assert any("not B's share" in p for p in problems)

    def test_tally_off_by_one_round(self, proximity_csv):
        def drop(rows):
            rows[5][5] = str(int(rows[5][5]) + 1)

        problems = experiments.check_proximity_csv(_edit(proximity_csv, drop))
        assert any("expected 300 rounds" in p for p in problems)

    def test_filtered_no_better_than_raw(self, proximity_csv):
        def swap_modes(rows):
            for i in range(1, len(rows), 2):
                rows[i][3:7], rows[i + 1][3:7] = rows[i + 1][3:7], rows[i][3:7]

        problems = experiments.check_proximity_csv(_edit(proximity_csv, swap_modes))
        assert any("is below raw" in p for p in problems)

    def test_missing_row(self, proximity_csv):
        problems = experiments.check_proximity_csv(_edit(proximity_csv, lambda rows: rows.pop()))
        assert problems == ["49 rows, expected 50"]


class TestSweepChecks:
    def test_real_output_passes(self, sweep_csv):
        assert experiments.check_sweep_csv(sweep_csv) == []

    def test_mse_below_squared_error(self, sweep_csv):
        def shrink(rows):
            rows[3][3] = f"{float(rows[3][2]) ** 2 / 2:.6f}"

        assert any("mse" in p for p in experiments.check_sweep_csv(_edit(sweep_csv, shrink)))

    def test_error_out_of_range(self, sweep_csv):
        def negate(rows):
            rows[4][2] = "-0.010000"

        problems = experiments.check_sweep_csv(_edit(sweep_csv, negate))
        assert any("outside [0, 4]" in p for p in problems)

    def test_particle_count_disagrees(self, sweep_csv):
        def shift(rows):
            row = rows[1 + 8 * 9 + 2]  # N=2000, d=1.5
            row[2] = f"{float(row[2]) + 0.3:.6f}"
            row[3] = f"{(float(row[2])) ** 2 + 0.1:.6f}"

        problems = experiments.check_sweep_csv(_edit(sweep_csv, shift))
        assert any(p.startswith("d=1.5: error_m spreads") for p in problems)

    def test_non_finite(self, sweep_csv):
        def nan(rows):
            rows[7][4] = "nan"

        assert any("non-finite" in p for p in experiments.check_sweep_csv(_edit(sweep_csv, nan)))


class TestParkingChecks:
    """Replies built from the plan pass; each planted fault is reported."""

    def setup_method(self):
        self.lot = parkinglot.Lot(5)
        self.model = parkinglot.Model(self.lot)
        rng = random.Random(1)
        self.plans = [parkinglot.plan_phase_a(self.model, c, rng, 10) for c in (0, 1)]
        self.replies = [[self._reply(op) for op in plan] for plan in self.plans]

    def _reply(self, op):
        expected = op[2]
        if isinstance(expected, bytes):
            return expected
        if expected[0] == parkinglot.SID:
            self.sid = getattr(self, "sid", 0) + 1
            return f"OK S{self.sid}".encode()
        if expected[0] == parkinglot.LIST:
            states = dict.fromkeys(self.lot.sorted_names, "Occupied") | expected[1]
            entries = ";".join(
                f"{n}:{states[n]}:{self.lot.by_name[n].rate}" for n in self.lot.sorted_names
            )
            return f"OK {entries}".encode()
        return expected[1]

    def _verify(self):
        problems = []
        failed = parkinglot.verify(self.plans, self.replies, self.model, problems)
        return failed, problems

    def _find(self, prefix):
        for c, plan in enumerate(self.plans):
            for i, op in enumerate(plan):
                if op[0].startswith(prefix) and isinstance(op[2], bytes) and op[2] != b"ERR CHARGE":
                    return c, i
        raise AssertionError(prefix)

    def test_planned_replies_pass(self):
        assert self._verify() == (0, [])

    def test_wrong_cost(self):
        model = parkinglot.Model(self.lot)
        spot = self.lot.regular[0][0]
        plan = [model.register(spot, "card1")]
        model.clock_ms += 5_400_000
        plan.append(model.unregister(spot))
        cost = oracles.parking_cost_cents(spot.rate, 5_400_000)
        assert plan[1][2] == f"OK {cost}".encode()
        assert parkinglot.verify([plan], [[b"OK S1", plan[1][2]]], model, []) == 0
        problems = []
        model.sessions = 0
        wrong = f"OK {cost + 1}".encode()
        parkinglot.verify([plan], [[b"OK S1", wrong]], model, problems)
        assert len(problems) == 1 and "UNREGISTER" in problems[0]

    def test_wrong_spot(self):
        c, i = self._find("RESOLVE 00")
        _, spot, url = self.replies[c][i].decode().split()
        other = next(s for s in self.lot.spots if s.name != spot)
        self.replies[c][i] = f"OK {other.name} {url}".encode()
        assert len(self._verify()[1]) == 1

    def test_session_id_gap(self):
        c, i = next(
            (c, i)
            for c, plan in enumerate(self.plans)
            for i, op in enumerate(plan)
            if op[2] == (parkinglot.SID,)
        )
        self.replies[c][i] = b"OK S999999"
        assert any("session ids" in p for p in self._verify()[1])

    def test_own_state_in_list(self):
        c, i = next(
            (c, i)
            for c, plan in enumerate(self.plans)
            for i, op in enumerate(plan)
            if op[0] == "LIST"
        )
        own = self.plans[c][i][2][1]
        name = next(iter(own))
        flipped = "Illegal" if own[name] != "Illegal" else "Available"
        self.replies[c][i] = self.replies[c][i].replace(
            f"{name}:{own[name]}:".encode(), f"{name}:{flipped}:".encode(), 1
        )
        assert any("LIST says" in p for p in self._verify()[1])

    def test_overstay_replies(self):
        self.model.clock_ms += 3_600_000
        phase_b = [parkinglot.plan_phase_b(self.model, c) for c in (0, 1)]
        expected = [[op[2][1] for op in plan] for plan in phase_b]
        today = [[op[2][2] for op in plan] for plan in phase_b]
        assert parkinglot.verify(phase_b, expected, self.model, []) == 0
        assert parkinglot.verify(phase_b, today, self.model, []) == 4
        problems = []
        today[0][0] = b"OK Illegal 100"
        assert parkinglot.verify(phase_b, today, self.model, problems) == 3
        assert len(problems) == 1
