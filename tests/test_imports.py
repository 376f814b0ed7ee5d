"""The runtime needs numpy only: it imports no scipy and no jsonschema.

scipy is a test dependency, the oracle for the CDFs; importing even
scipy.special doubled the package's import time. The CLI checks configs
with its own reader, so jsonschema and the packages it pulls in stay out
too. Each check runs in a fresh interpreter, so modules this test
session imported (pytest's process has scipy loaded) do not count; run
from outside a checkout, it checks the installed package.
"""

import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXED_EVE = str(ROOT / "configs" / "fixed-eve.json")


def run_python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["uwauth", "uwauth.cli"])
def test_import_leaves_scipy_out(module):
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] in ('scipy', 'jsonschema')))")
    assert run_python(code) == "[]\n"


def test_sweep_runs_with_scipy_unimportable(tmp_path):
    out = tmp_path / "fixed.csv"
    code = ("import sys; sys.modules['scipy'] = None; "
            "from uwauth import cli; "
            "sys.exit(cli.main(['sweep', sys.argv[1], '--out', sys.argv[2]]))")
    run_python(code, FIXED_EVE, str(out))
    recorded = ROOT / "tests" / "data" / "fixed-eve-sweep.csv"
    assert out.read_bytes() == recorded.read_bytes()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap-trim threshold is glibc's")
def test_roc_requests_do_not_fault_in_fresh_heap_pages():
    # A warm `roc --points 11` request reuses the heap pages of the
    # requests before it. If glibc returned the heap top to the kernel
    # after each EULER step, every request would fault its temporaries in
    # afresh, thousands of minor page faults instead of a few.
    code = """
import os, resource, sys
from uwauth import cli
sys.stdout = open(os.devnull, "w")
faults = []
for _ in range(23):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["roc", sys.argv[1], "--points", "11"]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
sys.stdout = sys.__stdout__
print(sorted(faults[3:])[10])
"""
    assert int(run_python(code, FIXED_EVE)) <= 100


@pytest.mark.parametrize("module", ["uwauth", "uwauth.cli"])
def test_import_leaves_thread_pool_and_logging_out(module):
    # concurrent.futures, and the logging it imports, load only when a
    # Monte Carlo run starts a thread pool; statistics, and the fractions
    # and decimal it imports, only when a quantile search starts.
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] "
            f"in ('concurrent', 'logging', 'statistics', 'fractions', "
            f"'decimal')))")
    assert run_python(code) == "[]\n"
