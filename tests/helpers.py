"""Helpers shared by the test modules: a calibration CSV writer and a `serve` client."""

import csv
import os
import re
import socket
from pathlib import Path

from beaconpark.pathloss import CALIBRATION_CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def write_calibration_csv(path, data) -> None:
    """Write a CalibrationDataset as `read_calibration_csv` reads it, one sample per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CALIBRATION_CSV_HEADER)
        for d, samples in data.points:
            for r in samples:
                writer.writerow([f"{d:.6f}", f"{r:.6f}"])


def python_env() -> dict:
    """The environment of a fresh interpreter that imports beaconpark from this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def read_served_port(proc) -> int:
    line = proc.stdout.readline()
    match = re.search(r"serving on [^:]*:(\d+)", line)
    assert match, f"no port in: {line!r}"
    return int(match.group(1))


def send_lines(port, lines):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        fh = sock.makefile("rw", encoding="utf-8", newline="\n")
        out = []
        for line in lines:
            fh.write(line + "\n")
            fh.flush()
            out.append(fh.readline().rstrip("\n"))
        return out
