"""The golden-report corpus: fixed ``orlicz-wct verify --format json`` runs
and the sha256 of each report without ``generated_at``.

Each run is a scenario (a shipped file, a benchmark workload's scenario, or
r3 or a one-block overflow case with fields replaced), an instance count
and a seed. ``digests.json`` keeps, per run id, the digest and the exit
code; a run that ends in an uncaught exception keeps ``sha256: null`` and
exit code 1. A change that leaves every report alone leaves every digest
alone. ``python tests/golden/rewrite.py`` recomputes the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).resolve().parent / "digests.json"

_GAUGES = {
    "exp_type": {"kind": "exp_type"},
    "deadzone": {"kind": "deadzone"},
    "capped": {"kind": "capped"},
    "power_plain_1.5": {"kind": "power_plain", "p": 1.5},
    "power_scaled_1": {"kind": "power_scaled", "p": 1},
}


def _shipped(name: str) -> dict:
    return json.loads((ROOT / "scenarios" / f"{name}.json").read_text())


def _workload(name: str, seed: int) -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    make = {"primary64": workloads.primary_scenario_dict,
            "wide256": workloads.wide_scenario_dict}[name]
    return make(seed)


def overflow_scenario(kind: str, p=None) -> dict:
    """One block of two unit atoms whose u w products are 0.5 but whose
    operator entries w_2 u_1 overflow to inf."""
    young = {"kind": kind} if p is None else {"kind": kind, "p": p}
    return {
        "atoms": [1.0, 1.0],
        "blocks": [[0, 1]],
        "u": [1e200, 1e-200],
        "w": [0.5e-200, 0.5e200],
        "young": young,
    }


def runs():
    """(run id, scenario thunk, instances, seed) of every run."""
    out = []
    for name in ("r1_nilpotent", "r3_contracting", "r4_expanding"):
        for seed in (1, 2, 3, 4):
            for instances in (0, 20, 200):
                out.append((f"{name}-i{instances}-s{seed}",
                            lambda name=name: _shipped(name), instances, seed))
    for name in ("primary64", "wide256"):
        for seed in (1, 2, 3, 4):
            out.append((f"{name}-s{seed}",
                        lambda name=name, seed=seed: _workload(name, seed), 0, seed))
    for gauge, spec in _GAUGES.items():
        for instances in (0, 20):
            out.append((f"r3-{gauge}-i{instances}-s1",
                        lambda spec=spec: dict(_shipped("r3_contracting"), young=spec),
                        instances, 1))
    out.append(("overflow-exp_type", lambda: overflow_scenario("exp_type"), 0, 1))
    out.append(("overflow-power_scaled_2",
                lambda: overflow_scenario("power_scaled", 2), 0, 1))
    return out


def digest(scenario: dict, instances: int, seed: int) -> tuple[str | None, int]:
    """(sha256 of the report without generated_at, exit code) of one
    in-process ``verify --format json`` call; (None, 1) when it raises."""
    from orlicz_wct import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        argv = ["verify", "--scenario", str(path), "--instances", str(instances),
                "--seed", str(seed), "--format", "json"]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), np.errstate(all="ignore"):
                code = cli.main(argv)
        except Exception:
            return None, 1
    report = json.loads(out.getvalue())
    report.pop("generated_at")
    text = json.dumps(report, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest(), code


def load() -> dict:
    return json.loads(DIGESTS.read_text())
