"""Paths, child processes and statistics shared by the benchmark workloads.

The benchmark runs from the root of a source checkout and imports the
program from `src/`; nothing needs to be installed. Every file it writes
goes under `.bench_out/` in that checkout.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
LAUNCHER = os.path.join(BENCH_DIR, "launch.py")

CHILD_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark could not run the program at all (no result is printed)."""


def child_env() -> dict:
    """The inherited environment, with `src/` first on the path and bytecode
    caching on: an installed program runs from its caches."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + extra if extra else "")
    return env


def program(trace_summary: str | None) -> list[str]:
    """argv prefix that runs the beaconpark CLI in a fresh interpreter.

    Traced runs go through the benchmark's launcher, which wraps every
    layer in spans and writes a per-layer summary to `trace_summary`.
    """
    if trace_summary is None:
        return [sys.executable, "-m", "beaconpark"]
    return [sys.executable, LAUNCHER, trace_summary]


def run_dir(workload: str) -> str:
    path = os.path.join(OUT_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def reap(proc: subprocess.Popen, timeout_s: float = CHILD_TIMEOUT_S):
    """Wait for a child, killing it after the timeout; returns (exit code, peak RSS MB).

    Blocks in wait4 rather than polling, so that the waiting process does
    not take turns on the CPU it shares with the child."""
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def timed_run(argv: list[str], log_path: str) -> tuple[float, float, int]:
    """Run a command to its exit; returns (wall seconds, peak RSS MB, exit code)."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=log
        )
        code, rss_mb = reap(proc)
        wall = time.perf_counter() - t0
    return wall, rss_mb, code


def fresh_import_s(log_path: str) -> float:
    """Seconds from starting an interpreter to `import beaconpark.cli` having returned."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", "import beaconpark.cli; print('ready', flush=True)"],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=log,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.close()
        finally:
            killer.cancel()
        code, _ = reap(proc)
    if code != 0 or line != b"ready\n":
        raise BenchError(f"importing beaconpark.cli failed (exit {code}); see {log_path}")
    return ready


_IMPORTTIME_RE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)$")


def import_profile() -> tuple[float, float]:
    """(whole import of beaconpark.cli, its scipy share) in seconds, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import beaconpark.cli"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"importing beaconpark.cli failed: {proc.stderr[-500:]}")
    rows = []
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME_RE.match(line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    # Rows come children first; walking them backwards gives each row after its parent.
    total_us = scipy_us = 0
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else None
        if parent is None and name.split(".")[0] == "beaconpark":
            total_us += cumulative_us
        if name.split(".")[0] == "scipy" and (parent is None or parent.split(".")[0] != "scipy"):
            scipy_us += cumulative_us
        stack.append((depth, name))
    return total_us / 1e6, scipy_us / 1e6


def slots(seconds: float):
    """Yield 1, 2, ... while another slot as long as the last still ends within `seconds`."""
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        i += 1
        yield i
        last = time.perf_counter() - t0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])
