"""The bit-level claims hold at numpy's baseline CPU dispatch.

numpy picks a SIMD kernel per CPU at run time, and some kernels (`np.exp`
among them) give other last bits than the baseline's. This reruns
`test_golden_outputs.py`, and the bank's bit-for-bit tests against the
reference filter and against one-row banks, in a child interpreter with
every dispatch target disabled, so they are checked on both kernel sets.
"""

import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__

from helpers import ROOT, python_env

# The child first checks that numpy really left every dispatch target off.
CHILD = """\
import sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
on = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
if on:
    sys.exit(f"dispatch targets still on: {on}")
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


BIT_LEVEL = [
    "tests/test_golden_outputs.py",
    "tests/test_particle.py::TestRunAgainstReference",
    "tests/test_particle.py::TestRowIndependence",
]


def test_golden_digests_hold_at_the_baseline_dispatch():
    if not __cpu_dispatch__:
        pytest.skip("this numpy build dispatches to no CPU target beyond its baseline")
    env = dict(python_env(), NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *BIT_LEVEL],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
