"""Smoke test: ``benchmarks/profile_n3.py`` on its quick simulator path.

CI runs the profiler with ``--quick --live --sim``; this runs the
simulator half (no sockets, about a second), so a scheduler change that
breaks the event-mix accounting (the rows must sum to the events fired)
fails here too.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def test_profile_n3_quick_sim_prints_an_event_mix_that_adds_up():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "profile_n3.py"),
         "--quick", "--sim"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "events by callback ==" in result.stdout
