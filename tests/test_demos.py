"""Every narrative script under demos/, and the README's quick tour, runs
to completion."""

import os
import re
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


def test_readme_quick_tour_runs():
    # the one fenced python block in README.md, so a renamed API fails here
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})
