"""Every narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_exits_zero():
    assert len(DEMOS) == 6
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the scripts are independent, so they run side by side to keep Tier-1 short
    procs = {
        script.stem: subprocess.Popen([sys.executable, str(script)], cwd=ROOT, env=env,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      text=True)
        for script in DEMOS
    }
    failed = {}
    try:
        for name, proc in procs.items():
            _, err = proc.communicate(timeout=120)
            if proc.returncode != 0:
                failed[name] = err[-2000:]
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert not failed, failed
