"""Every example and benchmark module still imports against the current API.

Tier-1 and CI run only a few of these files, so a removed or renamed public
name would otherwise break the rest silently.
"""

from __future__ import annotations

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "examples").glob("*.py")), ids=lambda path: path.name
)
def test_example_imports(path):
    # Any run name but "__main__" executes the imports and definitions only.
    runpy.run_path(str(path), run_name="not_main")


def test_benchmarks_collect():
    benches = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "benchmarks").glob("bench_*.py"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *benches],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-4000:]
