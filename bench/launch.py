"""Run the beaconpark CLI with every layer traced, for the benchmark's traced runs.

    python3 bench/launch.py <summary.json> <beaconpark arguments...>

Installs the wrappers of `tracing.py`, calls `beaconpark.cli.main` with
the remaining arguments and, when it returns (for `serve`, after SIGINT),
writes the per-layer summary of this process to <summary.json>. Exits
with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    tracing.install(rec)
    from beaconpark import cli

    code = cli.main(argv)
    tmp = f"{summary_path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(tracing.summary(rec), fh)
    os.replace(tmp, summary_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
