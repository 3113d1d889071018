"""Acceptance suite for the whole artifact.

Each test evaluates one numbered acceptance check at a fixed tolerance,
prints a single "ACCEPTANCE <n> ...: PASS/FAIL" line with the measured
values, and then asserts. Run with `pytest tests/test_acceptance.py -v -s`
to see the lines on passing runs too (pytest shows captured output for
failures either way).

Check 3 compares the particle filter with its exact posterior: a uniform
prior on the state range, no motion model and k equal readings z give
N(z, sigma^2/k) truncated to that range. Inside the range that mean is
the truth; at the 4 m edge it is 3.876 m (the truncation offset), which
no correct filter can move closer to 4 m.

Only clause (c) of check 5 records a gap between the physical testbed and
the simulator: it asserts the far-row identification collapse seen with
physical beacons, which the bias-free synthetic channel does not
reproduce (see its assertion message for the measured analysis). It is
left to fail rather than being loosened.
"""

import math
import random
from pathlib import Path

import numpy as np
from scipy import stats

from beaconpark import parking as pk
from beaconpark import simulate as sim
from beaconpark.eddystone import (
    FrameDecodeError,
    SpotId,
    decode_frame,
    encode_frame,
    render_frame,
    uid_instance_for_spot,
)
from beaconpark.particle import FilterConfig, ParticleBank
from beaconpark.pathloss import (
    INDOOR_MODEL,
    OUTDOOR_MODEL,
    PathLossModel,
    estimate_distance,
    fit_model,
    predict_rssi,
)

SEED = 42
SCENARIOS = Path(__file__).parent.parent / "scenarios"
GOLDENS = Path(__file__).parent / "data" / "golden_frames.txt"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_pathloss_inverse_oracle():
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(10_000):
        model = PathLossModel(
            exponent=rng.uniform(0.5, 6.0), ref_rssi_dbm=rng.uniform(-110.0, -30.0)
        )
        d = rng.uniform(0.05, 100.0)
        back = estimate_distance(model, predict_rssi(model, d))
        worst = max(worst, abs(back - d) / d)
    ok = worst < 1e-9
    report("1 path-loss inverse oracle", ok, f"worst relative error {worst:.3e} over 1e4 triples")
    assert ok


def test_criterion_2_calibration_recovery():
    distances = [round(0.2 * k, 10) for k in range(1, 21)]

    recovery_ok = True
    details = []
    for model, label in ((INDOOR_MODEL, "indoor"), (OUTDOOR_MODEL, "outdoor")):
        scenario = sim.Scenario(model=model, noise_sigma_db=0.0, duration_s=10.0, seed=SEED)
        fit = fit_model(sim.run_pathloss_experiment(scenario, distances))
        err_n = abs(fit.model.exponent - model.exponent)
        err_c = abs(fit.model.ref_rssi_dbm - model.ref_rssi_dbm)
        recovery_ok &= err_n < 1e-6 and err_c < 1e-6
        details.append(f"{label} |dn|={err_n:.2e} |dC|={err_c:.2e}")

    covered = 0
    for trial in range(100):
        scenario = sim.Scenario(
            model=INDOOR_MODEL, noise_sigma_db=2.0, duration_s=60.0, seed=SEED + trial
        )
        fit = fit_model(sim.run_pathloss_experiment(scenario, distances))
        if fit.exponent_ci95[0] <= INDOOR_MODEL.exponent <= fit.exponent_ci95[1]:
            covered += 1
    coverage_ok = covered >= 93

    ok = recovery_ok and coverage_ok
    report(
        "2 calibration recovery",
        ok,
        f"{'; '.join(details)}; CI covered true n in {covered}/100 trials (need >= 93)",
    )
    assert ok


def _truncated_posterior_mean(z: float, k: int, config: FilterConfig) -> float:
    """Exact posterior mean after k readings z: N(z, sigma^2/k) cut to the state range."""
    scale = config.measurement_noise_m / math.sqrt(k)
    lower = (config.state_min_m - z) / scale
    upper = (config.state_max_m - z) / scale
    return float(stats.truncnorm.mean(lower, upper, loc=z, scale=scale))


def test_criterion_3_filter_convergence():
    updates = 60
    truths = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    config = FilterConfig(particle_count=1000, beta=0.5, measurement_noise_m=1.2)
    # filter i, seeded SEED + i, reads truths[i] 60 times: row i of one bank,
    # in one round of 60 readings per row
    bank = ParticleBank(config, [SEED + i for i in range(len(truths))])
    starts = updates * np.arange(len(truths))[:, None] + np.array([0, updates])
    means = bank.run(np.repeat(truths, updates), starts)[:, 0]
    errors = {}
    for true_d, mean in zip(truths, means.tolist()):
        posterior = _truncated_posterior_mean(true_d, updates, config)
        errors[true_d] = (abs(mean - true_d), abs(mean - posterior))
    failing = {d: e for d, (_, e) in errors.items() if e >= 0.05}
    ok = not failing
    report(
        "3 filter convergence",
        ok,
        f"after {updates} updates |mean-true|/|mean-posterior|: "
        + ", ".join(f"{d}m:{t:.3f}/{p:.3f}" for d, (t, p) in errors.items())
        + (f" — over tolerance at {sorted(failing)}" if failing else ""),
    )
    assert ok, (
        f"|mean - exact posterior mean| >= 0.05 m at {failing}: the filter does not "
        f"approximate N(z, sigma^2/{updates}) truncated to the state range"
    )


def test_criterion_4_resampling_correctness():
    # (a)+(b): weight normalization after every operation, N_eff == N after
    # every resample, across 1e5 random update sequences. Each sequence draws
    # its particle count, filter seed, update count and readings in turn; the
    # filters that share a particle count and an update count are the rows of
    # one bank, and each update steps every row of it.
    rng = np.random.default_rng(SEED)
    sequences = 100_000
    groups = {}
    for _ in range(sequences):
        n = int(rng.integers(2, 48))
        seed = int(rng.integers(0, 2**32))
        readings = [float(rng.uniform(-1.0, 5.0)) for _ in range(int(rng.integers(1, 5)))]
        seeds, rows = groups.setdefault((n, len(readings)), ([], []))
        seeds.append(seed)
        rows.append(readings)
    updates_total = 0
    resamples = 0
    worst_sum = 0.0
    worst_neff_gap = 0.0
    for (n, _), (seeds, rows) in groups.items():
        bank = ParticleBank(FilterConfig(particle_count=n), seeds)
        worst_sum = max(worst_sum, float(np.abs(bank.state()[1].sum(axis=1) - 1.0).max()))
        for z in np.array(rows).T:
            resampled, _ = bank.update(z)
            updates_total += len(z)
            worst_sum = max(worst_sum, float(np.abs(bank.state()[1].sum(axis=1) - 1.0).max()))
            if resampled.any():
                resamples += int(resampled.sum())
                gaps = np.abs(bank.effective_particles()[resampled] - n)
                worst_neff_gap = max(worst_neff_gap, float(gaps.max()))
    ab_ok = worst_sum <= 1e-9 and worst_neff_gap <= 1e-6 and resamples > 0

    # (c) chi-square of multinomial multiplicities against the weights
    # (these weights push N_eff to ~1.92 < N*beta so the resample fires);
    # filter i, seeded 5000 + i, is row i of one bank
    weights = np.array([0.7, 0.1, 0.1, 0.1])
    values = [1.0, 2.0, 3.0, 4.0]
    filters = 10_000
    bank = ParticleBank(FilterConfig(particle_count=4), [5000 + i for i in range(filters)])
    bank.set_state(particles=values, weights=weights)
    assert bank.maybe_resample().all()
    particles, _ = bank.state()
    counts = np.array([np.sum(particles == value) for value in values], dtype=float)
    expected = weights * counts.sum()
    chi2_stat = float(np.sum((counts - expected) ** 2 / expected))
    chi2_crit = float(stats.chi2.ppf(0.99, df=3))
    c_ok = chi2_stat < chi2_crit

    ok = ab_ok and c_ok
    report(
        "4 resampling correctness",
        ok,
        f"{updates_total} updates / {resamples} resamples: max |sum(w)-1|={worst_sum:.1e}, "
        f"max |neff-N| after resample={worst_neff_gap:.1e}; chi2={chi2_stat:.2f} "
        f"< {chi2_crit:.2f} at alpha=0.01",
    )
    assert ok


def test_criterion_5_proximity_replication():
    indoor_scenario, indoor_exp, config = sim.load_scenario(SCENARIOS / "indoor_proximity.json")
    outdoor_scenario, outdoor_exp, out_config = sim.load_scenario(
        SCENARIOS / "outdoor_proximity.json"
    )
    assert indoor_scenario.noise_sigma_db == sim.INDOOR_NOISE_SIGMA_DB
    assert outdoor_scenario.noise_sigma_db == sim.OUTDOOR_NOISE_SIGMA_DB

    indoor = sim.run_proximity_experiment(indoor_scenario, indoor_exp.grid, config)
    outdoor = sim.run_proximity_experiment(outdoor_scenario, outdoor_exp.grid, out_config)

    # (a) inner indoor cells: filtered accuracy at least 95%
    a_cells = [c for c in indoor if c.x_m >= 2.0 and c.y_m <= 2.0]
    a_ok = all(c.filtered.accuracy >= 0.95 for c in a_cells)

    # (b) aggregate filtered >= raw over the Y <= 2 cells
    near = [c for c in indoor if c.y_m <= 2.0]
    truth = SpotId("B", 1)
    filt_correct = sum(c.filtered.counts[truth] for c in near)
    filt_total = sum(c.filtered.total for c in near)
    raw_correct = sum(c.raw.counts[truth] for c in near)
    raw_total = sum(c.raw.total for c in near)
    b_ok = filt_correct / filt_total >= raw_correct / raw_total

    # (c) far row: filtered accuracy below 50% for X <= 2.5
    c_cells = [c for c in indoor if c.y_m == 2.5 and c.x_m <= 2.5]
    c_ok = all(c.filtered.accuracy < 0.5 for c in c_cells)

    # (d) outdoor row at Y <= 2: filtered accuracy at least 95%
    d_cells = [c for c in outdoor if c.y_m <= 2.0]
    d_ok = all(c.filtered.accuracy >= 0.95 for c in d_cells)

    ok = a_ok and b_ok and c_ok and d_ok
    far_row = ", ".join(
        f"X={c.x_m}:{c.filtered.accuracy:.2f} raw {c.raw.accuracy:.2f}" for c in c_cells
    )
    report(
        "5 proximity replication",
        ok,
        f"(a) inner filtered>=95%: {a_ok} (min {min(c.filtered.accuracy for c in a_cells):.3f}); "
        f"(b) aggregate filtered {filt_correct / filt_total:.3f} >= raw "
        f"{raw_correct / raw_total:.3f}: {b_ok}; "
        f"(c) Y=2.5 filtered<50%: {c_ok} "
        f"({far_row}); "
        f"(d) outdoor filtered>=95%: {d_ok} "
        f"(min {min(c.filtered.accuracy for c in d_cells):.3f})",
    )
    assert ok, (
        "clause (c) expects the far-row identification to collapse below 50% as "
        "in the physical measurements. The simulator's channel is unbiased i.i.d. "
        "Gaussian dB noise (5.45 dB indoor), under which the clamped distance "
        "readings at Y=2.5 have means 2.59 m for B and 2.73/2.87/3.04/3.20 m for "
        "A and C at X=1.0/1.5/2.0/2.5: B stays nearest in expectation, so filtered "
        "accuracy tends to 1 as samples accumulate. Even the single-sample raw "
        "baseline has closed-form accuracy 0.375/0.420/0.476/0.535 on that row, "
        "and the rule that picks the beacon of the largest cumulative mean RSSI "
        "has closed-form expected accuracy 0.780/0.940/0.978/0.989 over the "
        "run's rounds: the expectation of that rule, not a bound on the filter. "
        "Per-link static shadowing does not produce the collapse: any share of "
        "it that does also fails clause (a)."
    )


def test_criterion_6_distance_error_structure():
    scenario, experiment, config = sim.load_scenario(SCENARIOS / "indoor_distance.json")
    result = sim.run_distance_experiment(
        scenario,
        experiment.grid,
        [config],
        repetitions=experiment.repetitions,
        keep_step_errors=True,
    )
    near = [r.filtered_error_m for r in result.rows if r.distance_m <= 2.0]
    far = [r.filtered_error_m for r in result.rows if r.distance_m > 2.0]
    near_mean = float(np.mean(near))
    far_mean = float(np.mean(far))
    split_ok = near_mean < far_mean

    p95_filtered = float(np.percentile(result.step_filtered_errors_m, 95))
    p95_raw = float(np.percentile(result.step_raw_errors_m, 95))
    cdf_ok = p95_filtered < p95_raw

    ok = split_ok and cdf_ok
    report(
        "6 distance-error structure",
        ok,
        f"mean filtered error {near_mean:.3f} m (d<=2) vs {far_mean:.3f} m (d>2); "
        f"p95 error filtered {p95_filtered:.3f} m vs raw {p95_raw:.3f} m",
    )
    assert ok


def test_criterion_7_eddystone_codec():
    lines = [line.split(" ", 1) for line in GOLDENS.read_text().splitlines() if line]
    golden_ok = len(lines) >= 30
    for hex_text, rendering in lines:
        frame = decode_frame(bytes.fromhex(hex_text))
        golden_ok &= render_frame(frame) == rendering
        golden_ok &= encode_frame(frame).hex() == hex_text

    rng = np.random.default_rng(SEED)
    n = 1_000_000
    lengths = rng.integers(0, 25, size=n)
    buffer = rng.integers(0, 256, size=int(lengths.sum()), dtype=np.uint8).tobytes()
    pos = 0
    decoded = 0
    crashes = 0
    for length in lengths:
        data = buffer[pos : pos + length]
        pos += length
        try:
            decode_frame(data)
            decoded += 1
        except FrameDecodeError:
            pass
        except Exception:  # noqa: BLE001 - anything else counts as a crash
            crashes += 1
    fuzz_ok = crashes == 0

    ok = golden_ok and fuzz_ok
    report(
        "7 eddystone codec",
        ok,
        f"{len(lines)} golden vectors round-tripped; fuzz 1e6 inputs: "
        f"{decoded} parsed, {crashes} crashes",
    )
    assert ok


def _fresh_lot(journal_sink=None):
    spots = []
    for text, rate in (("A1", 200), ("A2", 90)):
        spot_id = SpotId.parse(text)
        spots.append(
            pk.Spot(
                id=spot_id,
                namespace=bytes(10),
                instance=uid_instance_for_spot(spot_id),
                url=f"https://park.example/{text}",
                rate_cents_per_hour=rate,
            )
        )
    return pk.ParkingService(spots, journal_sink=journal_sink)


OK_USER = pk.UserProfile("u1", "P1", "tok")
FAIL_USER = pk.UserProfile("u2", "P2", pk.PaymentStub.CHARGE_FAIL_TOKEN)
MIN_MS = 60_000

COMMANDS = []
for spot_text in ("A1", "A2"):
    spot = SpotId.parse(spot_text)
    COMMANDS.extend(
        [
            ("reg", spot, lambda s, now, sp=spot: s.register(sp, OK_USER, now, 60)),
            ("reg", spot, lambda s, now, sp=spot: s.register(sp, FAIL_USER, now)),
            ("unreg", spot, lambda s, now, sp=spot: s.unregister(sp, now)),
            ("settle", spot, lambda s, now, sp=spot: s.settle(sp)),
        ]
    )
COMMANDS.append(("expire", None, lambda s, now: s.expire_overstays(now)))
COMMANDS.append(("tick", None, None))

LEGAL = {
    "reg": {("Available", "Occupied")},
    "unreg": {("Occupied", "Available"), ("Occupied", "Illegal")},
    "settle": {("Illegal", "Available")},
    "expire": {("Occupied", "Available"), ("Occupied", "Illegal")},
    "tick": set(),
}


def _states(service):
    return {str(s): st.value for s, st, _ in service.list_spots()}


def test_criterion_8_parking_state_machine():
    # billing property over 1e4 random (rate, duration) pairs
    rng = random.Random(SEED)
    billing_ok = True
    for _ in range(10_000):
        rate = rng.randrange(0, 3000)
        minutes = rng.randrange(0, 10_000)
        billing_ok &= pk.parking_cost_cents(rate, minutes) == math.ceil(rate * minutes / 60)

    # exhaustive enumeration of command sequences of length <= 5
    nodes = 0
    violations = []

    def dfs(journal, live, now, depth):
        nonlocal nodes
        nodes += 1
        replayed = _fresh_lot()
        pk.replay_journal(replayed, journal)
        if replayed.snapshot() != live.snapshot():
            violations.append(f"replay mismatch after {journal}")
            return
        if depth == 5:
            return
        for op, target, fn in COMMANDS:
            child_now = now + 45 * MIN_MS if op == "tick" else now
            child = _fresh_lot()
            pk.replay_journal(child, journal)
            entries = []
            child._journal_sink = entries.append  # collect only the new command
            before = _states(child)
            if fn is not None:
                try:
                    fn(child, child_now)
                except pk.ParkingError:
                    pass
            after = _states(child)
            if set(after) != {"A1", "A2"}:
                violations.append(f"conservation broken after {op} at depth {depth}")
                continue
            changed = {k: (before[k], after[k]) for k in after if before[k] != after[k]}
            for spot_text, transition in changed.items():
                if transition not in LEGAL[op]:
                    violations.append(f"illegal transition {transition} via {op}")
                if op in ("reg", "unreg", "settle") and spot_text != str(target):
                    violations.append(f"{op} on {target} touched {spot_text}")
            dfs(journal + entries, child, child_now, depth + 1)

    dfs([], _fresh_lot(), 0, 0)
    machine_ok = not violations

    ok = billing_ok and machine_ok
    report(
        "8 parking state machine",
        ok,
        f"billing property over 1e4 pairs: {billing_ok}; exhaustive depth<=5 "
        f"enumeration visited {nodes} sequences, violations: {len(violations)}",
    )
    assert ok, violations[:5]
