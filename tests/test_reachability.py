"""The reachability ledger: the `src/beaconpark` functions that no CLI run calls.

Every CLI command runs on the shipped inputs in a fresh interpreter under
a profiler (`sys.setprofile`, and `threading.setprofile` for the server's
connection threads): `proximity` indoor and outdoor, `distance` with and
without `--sweep`, `calibrate` on a CSV written here, and a `serve
--clock simulated` session that sends every verb, is stopped with SIGINT
and restarts on its journal, so that its open REGISTER replays. A short
session on a fresh journal with the default system clock follows.

A `def` ran if a code object that ran has its file, its name and its first
line; the code of a decorated function starts at its first decorator. The
functions that never ran must be the README's ledger table, no more and no
fewer, and each entry there gives one reason why it stays in `src/`.
"""

import ast
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from beaconpark.eddystone import (
    SpotId,
    TlmFrame,
    UidFrame,
    UrlFrame,
    encode_frame,
    uid_instance_for_spot,
)
from beaconpark.pathloss import INDOOR_MODEL
from beaconpark.simulate import Scenario, run_pathloss_experiment
from helpers import ROOT, python_env, read_served_port, send_lines, write_calibration_csv

SRC = ROOT / "src" / "beaconpark"
SCENARIOS = ROOT / "scenarios"

# Runs `main` on each argv of argv[2] (a JSON list) and writes the exit codes
# and every code object that ran, as (file, first line, name), to argv[1].
PROBE = """\
import json, signal, sys, threading
called = set()
def probe(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))
signal.signal(signal.SIGINT, signal.default_int_handler)  # even if the caller ignores it
sys.setprofile(probe)
threading.setprofile(probe)
from beaconpark.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2])]
sys.setprofile(None)
with open(sys.argv[1], "w") as fh:
    json.dump({"codes": codes, "called": sorted(called)}, fh)
"""

NAMESPACE = bytes.fromhex("edd1edd1edd1edd1edd1")  # demo_lot.json's
SESSION = [
    ("LIST", "OK A1:Available:200;A2:Available:200;A3:Available:200;"
             "B1:Available:150;B2:Available:150"),
    ("STATUS A1", "OK Available 200"),
    ("REGISTER A1 u1 P1 tok 60", "OK S1"),
    ("REGISTER A2 u2 P2 CHARGEFAIL", "OK S2"),
    ("TICK 600", "OK"),
    ("UNREGISTER A2", "ERR CHARGE"),
    ("SETTLE A2", "OK"),
    ("REGISTER B1 u3 P3 tok", "OK S3"),  # left open: the snapshot and the restart keep it
    ("RESOLVE " + encode_frame(UidFrame(NAMESPACE, uid_instance_for_spot(SpotId("A", 1)), -20))
     .hex(), "OK A1 https://park.example/A1"),
    ("RESOLVE " + encode_frame(UrlFrame.from_url("https://park.example/B2", -20)).hex(),
     "OK B2 https://park.example/B2"),
    ("RESOLVE " + encode_frame(TlmFrame(3000, 21.5, 10, 100)).hex(), "ERR UNKNOWN"),
    ("RESOLVE 4000", "ERR UNKNOWN"),  # an unknown frame type
    ("TICK 3600", "OK"),  # A1 overstays its 60 minutes and is closed
]
RESTART = [
    ("REGISTER A3 u4 P4 tok", "OK S4"),
    ("LIST", "OK A1:Available:200;A2:Available:200;A3:Occupied:200;"
             "B1:Occupied:150;B2:Available:150"),
]
# a handler reads the system clock: the serve loop's poll, which also reads
# it, may not run between this session and the SIGINT
SYSTEM_CLOCK = [("REGISTER A1 u5 P5 tok", "OK S1")]

LEDGER = re.compile(
    r"<!-- reachability ledger: begin -->\n(.*?)<!-- reachability ledger: end -->", re.S
)
REASONS = re.compile(
    r"library API|read by acceptance check \d+|reachable from data"
    r"|bound by `bench/tracing\.py` \(ROADMAP item 1\)"
)


def start_probe(tmp_path, name, commands):
    args = [sys.executable, "-c", PROBE, str(tmp_path / f"{name}.json"), json.dumps(commands)]
    return subprocess.Popen(
        args, cwd=tmp_path, env=python_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def finish_probe(tmp_path, name, proc) -> set:
    """Wait for the probe; the code objects that ran, by (real path, first line, name)."""
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    record = json.loads((tmp_path / f"{name}.json").read_text())
    assert not any(record["codes"]), err
    return {(os.path.realpath(path), line, code) for path, line, code in record["called"]}


def serve_session(tmp_path, name, argv, lines) -> tuple[list, set]:
    proc = start_probe(tmp_path, name, [argv])
    try:
        replies = send_lines(read_served_port(proc), lines)
    finally:
        proc.send_signal(signal.SIGINT)
        called = finish_probe(tmp_path, name, proc)
    return replies, called


def defined_functions() -> dict:
    """Each `def` of `src/beaconpark` by qualified name, with the code keys it may run as."""
    functions = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                lines = {child.lineno, *(d.lineno for d in child.decorator_list[:1])}
                functions[name] = {(path, line, child.name) for line in lines}
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), os.path.realpath(path), path.stem)
    return functions


def read_ledger() -> dict:
    """The README ledger table: function name -> reason."""
    (table,) = LEDGER.findall((ROOT / "README.md").read_text())
    rows = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `")]
    return {name.strip().strip("`"): reason.strip() for name, reason in rows}


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Run every command; the serve replies and the code objects that ran."""
    tmp_path = tmp_path_factory.mktemp("reach")
    noisy = Scenario(model=INDOOR_MODEL, noise_sigma_db=5.45, duration_s=10.0, seed=1)
    write_calibration_csv(
        tmp_path / "cal.csv", run_pathloss_experiment(noisy, [0.5, 1.0, 2.0, 3.0, 4.0])
    )
    out = str(tmp_path)
    experiments = start_probe(tmp_path, "experiments", [
        ["--out-dir", out, "proximity", "--scenario", str(SCENARIOS / "indoor_proximity.json")],
        ["--out-dir", out, "proximity", "--scenario", str(SCENARIOS / "outdoor_proximity.json")],
        ["--out-dir", out, "distance", "--scenario", str(SCENARIOS / "indoor_distance.json")],
        ["--out-dir", out, "distance", "--scenario", str(SCENARIOS / "indoor_distance.json"),
         "--sweep"],
        ["--out-dir", out, "calibrate", "--input", str(tmp_path / "cal.csv"),
         "--out", str(tmp_path / "fit.json")],
    ])
    serve = ["--out-dir", out, "serve", "--lot", str(SCENARIOS / "demo_lot.json"),
             "--bind", "127.0.0.1:0"]
    try:
        first, served = serve_session(
            tmp_path, "serve", [*serve, "--clock", "simulated"], [line for line, _ in SESSION]
        )
        again, restarted = serve_session(
            tmp_path, "restart", [*serve, "--clock", "simulated"], [line for line, _ in RESTART]
        )
        system, on_system = serve_session(
            tmp_path, "system", [*serve, "--journal", str(tmp_path / "system.journal")],
            [line for line, _ in SYSTEM_CLOCK],
        )
    finally:
        ran = finish_probe(tmp_path, "experiments", experiments)
    return first + again + system, served | restarted | on_system | ran


def test_the_serve_session_sends_every_verb(cli_runs):
    replies, _ = cli_runs
    assert replies == [reply for _, reply in SESSION + RESTART + SYSTEM_CLOCK]
    verbs = {line.split()[0] for line, _ in SESSION}
    assert verbs == {"LIST", "STATUS", "REGISTER", "UNREGISTER", "RESOLVE", "SETTLE", "TICK"}


def test_functions_no_cli_run_calls_are_the_readme_ledger(cli_runs):
    _, called = cli_runs
    never = {name for name, keys in defined_functions().items() if not keys & called}
    ledger = set(read_ledger())
    assert sorted(never - ledger) == [], "no CLI run calls these; add them to the README ledger"
    assert sorted(ledger - never) == [], "a CLI run calls these, or they are gone from src/"


def test_every_ledger_entry_gives_a_reason():
    for name, reason in read_ledger().items():
        assert REASONS.fullmatch(reason), f"{name}: {reason!r}"
