"""heatlift starts and runs without scipy (fresh interpreters)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import heatlift

SRC = str(Path(heatlift.__file__).resolve().parents[1])

# One pass over the oracle experiments at small grids.
ORACLE_PASS = [
    ["cov-check", "--set", "n_s=5", "--set", "n_x=5"],
    ["bounds-scan"],
    ["schilder"],
    ["chaos", "--set", "replicas=1000"],
    ["cm", "--set", "n_modes=8", "--set", "n_time=4", "--set", "grid_level=5",
     "--set", "k_range=[2, 3]"],
    ["lift-check", "--set", "n_modes=8", "--set", "n_time=4", "--set", "grid_level=5",
     "--set", "dim=2", "--set", "n_slices=2", "--set", "n_telescope=2"],
    ["sample", "--set", "n_modes=8", "--set", "n_time=4", "--set", "grid_level=5"],
]


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_no_scipy():
    out = run_python(
        "import json, sys\n"
        "import heatlift.cli\n"
        "print(json.dumps({\n"
        "    'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "    'preloaded': [m in sys.modules for m in ('numpy.random', 'numpy.fft')],\n"
        "}))\n"
    )
    report = json.loads(out)
    assert report["scipy"] == []
    # The sampler's first call pays no lazy numpy import.
    assert report["preloaded"] == [True, True]


def test_oracle_pass_without_scipy(tmp_path):
    out = run_python(
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any scipy import now fails\n"
        "from heatlift.cli import main\n"
        f"calls = {ORACLE_PASS!r}\n"
        f"root = {str(tmp_path)!r}\n"
        "codes = [main(argv + ['--out', f'{root}/{i}']) for i, argv in enumerate(calls)]\n"
        "print(json.dumps(codes))\n"
    )
    assert json.loads(out.splitlines()[-1]) == [0] * len(ORACLE_PASS)
