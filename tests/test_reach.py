"""The dynamic half of the caller census (``tests/reach.py``).

Every function ``src/repro`` defines either runs in the reach map's job
set — every CLI command line CI and the docs use, the examples, the
``benchmarks/e2e`` workloads, ``bench_wallclock.py --smoke`` and the
figure benchmarks — or is waived in ``tests/test_lint.py``'s
``CALLER_WAIVERS`` for one of ``WAIVER_REASONS``.  The static census and
this one share that table: a function waiver is stale here when the
function ran and the static census finds nothing to waive either.

The job set takes minutes, so this runs under the ``crashtest`` marker
in its own CI job (``reach-map``), not in tier-1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from tests.reach import REPO, SRC, functions
from tests.test_lint import CALLER_WAIVERS, SymbolCensus


@pytest.mark.crashtest
def test_reach_map_covers_every_function():
    proc = subprocess.run(
        [sys.executable, "-m", "tests.reach", "--json"],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    ran = set(json.loads(proc.stdout))
    defined = functions()
    unreached = sorted(set(defined) - ran - set(CALLER_WAIVERS))
    assert unreached == [], "never ran, and not waived:\n" + "\n".join(
        f"{defined[key][1]:5d} lines  {key}" for key in unreached
    )
    static = SymbolCensus(REPO).findings()
    stale = sorted(
        key for key in CALLER_WAIVERS
        if key in defined and key in ran and key not in static
    )
    assert stale == [], f"waived, but ran: {stale}"
