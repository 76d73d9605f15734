"""The benchmark's single-instance workloads still build from ``src/``.

``benchmarks/workloads.py`` builds primary64 through
``generate_well_conditioned_instance`` and wide256 through its own generator
and ``powers_well_conditioned``; a change that breaks either build fails
here, not only in a benchmark run. suite200 uses the shipped r3 scenario and
is built by ``benchmarks/test_tracer.py``.
"""

import hashlib
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


def test_wide_scenarios_at_seeds_1_to_20_are_pinned():
    # wide256's generator keeps a draw only when the dense
    # powers_well_conditioned accepts it, and never redraws: every seed of
    # 1-20 is accepted, and the scenario files it writes, as build writes
    # them, hash to this digest, so a change to the rule that flips a
    # seed's decision, or to the generator, shows here
    digest = hashlib.sha256()
    for seed in range(1, 21):
        text = json.dumps(workloads.wide_scenario_dict(seed), sort_keys=True, indent=2)
        digest.update((text + "\n").encode())
    assert digest.hexdigest() == (
        "1d1ff5296968c07a79ddff2205689011335198567d1afe6a2df0bc36fe97c516"
    )
