import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, f"{demo.name}:\n{proc.stderr}"
