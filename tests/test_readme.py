"""The README's library quick start runs against the package as it is."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_library_quick_start_prints_its_certificate():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _quick_start()],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0.5", "1.0"]
