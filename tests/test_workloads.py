"""The benchmark's single-instance workloads still build from ``src/``.

``benchmarks/workloads.py`` builds primary64 through
``generate_well_conditioned_instance`` and wide256 through its own generator
and ``powers_well_conditioned``; a change that breaks either build fails
here, not only in a benchmark run. suite200 uses the shipped r3 scenario and
is built by ``benchmarks/test_tracer.py``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads  # noqa: E402


@pytest.mark.parametrize(
    "name, n_atoms, n_blocks", [("primary64", 64, 8), ("wide256", 256, 32)]
)
def test_single_instance_workload_builds_at_seed_1(tmp_path, name, n_atoms, n_blocks):
    wl = workloads.build(name, 1, ROOT, tmp_path)
    assert wl.scenario_path == tmp_path / f"{name}-seed1.json"
    data = json.loads(wl.scenario_path.read_text())
    assert (len(data["atoms"]), len(data["blocks"])) == (n_atoms, n_blocks)
    assert wl.argv[:3] == ("verify", "--scenario", str(wl.scenario_path))
    assert workloads.symbol_sup(data) <= 0.9 + 1e-12
