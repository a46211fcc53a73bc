"""The README's library example runs as written against src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def library_block() -> str:
    """The Python block under the "Library entry points" heading."""
    section = README.split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "expected one Python block under Library entry points"
    return blocks[0]


def test_library_entry_points_block_runs():
    # a fresh interpreter on src/ only, so a name the block imports that the
    # package no longer defines fails here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", library_block()], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
