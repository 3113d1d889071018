"""The traced benchmark wraps beaconpark's functions by name: a guard that they still exist."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracing

rec = tracing.Recorder()
tracing.install(rec)
from beaconpark import parking, server

lot, journal = {lot!r}, {journal!r}
service = parking.service_from_files(lot, journal)
clock = server.SimulatedClock()
print(server.handle_command(service, clock, "REGISTER A1 u1 PLATE tok"))
print(server.handle_command(service, clock, "LIST").split(";")[0])
service._journal_sink.close()
parking.service_from_files(lot, journal)._journal_sink.close()
summary = tracing.summary(rec)
print(summary["parking.replay_entries"], summary["server.commands.REGISTER.OK"])
"""


def test_traced_restart_counts_the_replay_and_the_register(tmp_path):
    script = SCRIPT.format(
        bench=str(ROOT / "bench"), src=str(ROOT / "src"),
        lot=str(ROOT / "scenarios" / "demo_lot.json"), journal=str(tmp_path / "lot.journal"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["OK S1", "OK A1:Occupied:200", "1 1"]
