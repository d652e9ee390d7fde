"""Entry points load no ``scipy.stats``.

``scipy.stats`` costs about half a second to import. The package needs
one Student-t quantile from it, which ``scipy.special.stdtrit`` gives
bit for bit (``tests/simulation/test_stats.py``). Each check runs in a
fresh interpreter, since the test process itself has long since
imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "module", ["repro.cli", "repro.service", "repro.experiments.registry"]
)
def test_entry_point_does_not_load_scipy_stats(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout
