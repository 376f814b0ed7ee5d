"""Import cost: the package must not pull in scipy.stats.

scipy.stats takes about a second to import, more than the rest of the
package and most requests together. Each check runs in a fresh
interpreter, so modules this test session imported do not count; run
from outside a checkout, it checks the installed package.
"""

import subprocess
import sys

import pytest


@pytest.mark.parametrize("module", ["uwauth", "uwauth.cli"])
def test_import_leaves_scipy_stats_out(module):
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
