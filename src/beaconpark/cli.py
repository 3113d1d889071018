"""Command-line entry point.

Subcommands: calibrate (fit a path-loss model from a calibration CSV),
distance (replicate the distance-estimation experiment), proximity
(replicate the identification grid), and serve (run the parking lot
line-protocol server). distance and proximity run the grid and the
repetitions of the scenario file's required `experiment`, whose kind
must name the command. Every result directory gets a run manifest before
any result file, and only once the run has succeeded; result files are
written atomically. Each command
imports the modules it runs: `serve` never loads numpy.

Exit codes: 0 success, 1 runtime error, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__

NUMPY_COMMANDS = ("calibrate", "distance", "proximity")
PARTICLE_SWEEP = tuple(range(200, 2001, 200))


class InputError(Exception):
    """Bad user input (malformed file, invalid values): exit code 2."""


def write_atomically(path: str, write, payload) -> None:
    """Write `payload` with `write(tmp_path, payload)`, then rename it into place."""
    tmp = f"{path}.tmp"
    write(tmp, payload)
    os.replace(tmp, path)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _file_sha256(path: str) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_manifest(out_dir: str, command: str, seed: int, scenario_path: str | None) -> None:
    """Record the command, its seed and scenario (path and sha256), the versions it runs
    and, for a numpy command, the CPU targets beyond its baseline that numpy dispatches to."""
    versions = {"beaconpark": __version__, "python": sys.version.split()[0]}
    dispatch = None
    if command in NUMPY_COMMANDS:
        import numpy
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        versions["numpy"] = numpy.__version__
        dispatch = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    manifest = {
        "command": command,
        "scenario_path": scenario_path,
        "scenario_sha256": _file_sha256(scenario_path) if scenario_path else None,
        "seed": seed,
        "output_dir": os.path.abspath(out_dir),
        "versions": versions,
        "numpy_cpu_dispatch": dispatch,
    }
    write_atomically(os.path.join(out_dir, "manifest.json"), _write_json, manifest)


def _load_scenario_file(path: str, kind: str, seed_override: int | None):
    """Parse a scenario file whose experiment is of `kind`; --seed replaces its seed."""
    from dataclasses import replace

    from .simulate import load_scenario

    try:
        scenario, experiment, config = load_scenario(path)
        if seed_override is not None:
            scenario = replace(scenario, seed=seed_override)
    except FileNotFoundError as exc:
        raise InputError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario file is not valid JSON: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid scenario: {exc}") from exc
    if experiment.kind != kind:
        raise InputError(f"scenario experiment kind is {experiment.kind!r}, expected {kind!r}")
    return scenario, experiment, config


def cmd_calibrate(args) -> int:
    from .pathloss import (
        RankDeficientError,
        fit_model,
        fit_result_to_json_dict,
        read_calibration_csv,
    )

    try:
        dataset = read_calibration_csv(args.input)
    except FileNotFoundError as exc:
        raise InputError(f"calibration CSV not found: {args.input}") from exc
    except RankDeficientError as exc:
        raise InputError(f"rank-deficient: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"invalid calibration CSV: {exc}") from exc
    sample_counts = dataset.sample_counts()
    if len(set(sample_counts.values())) > 1:
        print("warning: unequal sample counts per distance", file=sys.stderr)
    if len(sample_counts) == 2:
        print("warning: two distances leave no interval: each ci95 has zero width", file=sys.stderr)

    try:
        fit = fit_model(dataset)
    except RankDeficientError as exc:
        raise InputError(f"rank-deficient: {exc}") from exc
    os.makedirs(args.out_dir, exist_ok=True)
    write_manifest(args.out_dir, "calibrate", args.seed or 0, None)
    write_atomically(args.out, _write_json, fit_result_to_json_dict(fit))
    print(
        f"n={fit.model.exponent:.6f} ci95=({fit.exponent_ci95[0]:.6f}, {fit.exponent_ci95[1]:.6f})"
    )
    print(
        f"C={fit.model.ref_rssi_dbm:.6f} ci95=({fit.ref_rssi_ci95[0]:.6f}, {fit.ref_rssi_ci95[1]:.6f})"
    )
    print(f"residual_std={fit.residual_std_db:.6f}")
    print(f"wrote {args.out}")
    return 0


def cmd_distance(args) -> int:
    from .simulate import run_distance_experiment, write_distance_csv

    scenario, experiment, config = _load_scenario_file(args.scenario, "distance", args.seed)
    counts = PARTICLE_SWEEP if args.sweep else None  # None: the config's own
    rows = run_distance_experiment(
        scenario, experiment.grid, config, experiment.repetitions, counts
    ).rows
    os.makedirs(args.out_dir, exist_ok=True)
    write_manifest(args.out_dir, "distance", scenario.seed, args.scenario)
    out_path = os.path.join(args.out_dir, "distance_results.csv")
    write_atomically(out_path, write_distance_csv, rows)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def cmd_proximity(args) -> int:
    from .simulate import run_proximity_experiment, write_proximity_csv

    scenario, experiment, config = _load_scenario_file(args.scenario, "proximity", args.seed)
    results = run_proximity_experiment(scenario, experiment.grid, config)
    os.makedirs(args.out_dir, exist_ok=True)
    write_manifest(args.out_dir, "proximity", scenario.seed, args.scenario)
    out_path = os.path.join(args.out_dir, "proximity_results.csv")
    write_atomically(out_path, write_proximity_csv, results)
    print(f"wrote {out_path} ({2 * len(results)} rows)")
    return 0


def cmd_serve(args) -> int:
    from .parking import JournalError, SpotState, service_from_files
    from .server import ParkingTCPServer, SimulatedClock, SystemClock, parse_bind_address

    host, port = parse_bind_address(args.bind)  # before anything is written
    os.makedirs(args.out_dir, exist_ok=True)
    write_manifest(args.out_dir, "serve", args.seed or 0, None)
    journal_path = args.journal or os.path.join(args.out_dir, "parking.journal")
    started = time.perf_counter()
    try:
        service = service_from_files(args.lot, journal_path, args.clock)
    except FileNotFoundError as exc:
        if exc.filename != args.lot:  # the journal is opened for writing: its directory is missing
            missing = os.path.dirname(exc.filename)
            raise InputError(f"journal directory not found: {missing}") from exc
        raise InputError(f"lot config not found: {args.lot}") from exc
    except JournalError as exc:
        raise InputError(f"invalid journal: {exc}") from exc
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise InputError(f"invalid lot config: {exc}") from exc
    live = sum(state is not SpotState.AVAILABLE for _, state, _ in service.list_spots())
    print(
        f"journal {journal_path}: replayed {service.replayed_entries} entries, "
        f"{live} live sessions, restored in {(time.perf_counter() - started) * 1000:.1f} ms",
        file=sys.stderr,
        flush=True,
    )
    # TICKs are not journaled: the clock resumes at the last journaled time.
    clock = (
        SimulatedClock(service.latest_session_ms())
        if args.clock == "simulated"
        else SystemClock()
    )
    server = ParkingTCPServer((host, port), service, clock)
    actual_host, actual_port = server.server_address[:2]
    import signal

    # SIGINT stops serve even when it was started with SIGINT ignored (a background job)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    print(f"serving on {actual_host}:{actual_port} (journal: {journal_path})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beaconpark",
        description="BLE-beacon smart parking toolkit",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out-dir", default=".", help="directory for result files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit a path-loss model from a calibration CSV")
    p.add_argument("--input", required=True, help="CSV with distance_m,rssi_dbm rows")
    p.add_argument("--out", required=True, help="output JSON path for the fit result")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("distance", help="run the distance-estimation experiment")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument(
        "--sweep",
        action="store_true",
        help="sweep particle counts 200..2000 instead of the configured count",
    )
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("proximity", help="run the proximity-identification experiment")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.set_defaults(func=cmd_proximity)

    p = sub.add_parser("serve", help="serve the parking lot line protocol")
    p.add_argument("--lot", required=True, help="lot definition JSON path")
    p.add_argument("--bind", default="127.0.0.1:7810", help="host:port to listen on")
    p.add_argument(
        "--clock",
        choices=("system", "simulated"),
        default="system",
        help="simulated accepts TICK commands for deterministic billing",
    )
    p.add_argument("--journal", default=None, help="journal path (default: out-dir/parking.journal)")
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:  # before any command writes a file
            raise InputError("seed must be a non-negative integer")
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"ERR {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
