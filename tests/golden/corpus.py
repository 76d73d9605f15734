"""The golden-report corpus: fixed ``orlicz-wct verify --format json`` runs
and the sha256 of each report without ``generated_at``.

Each run is a scenario (a shipped file, a benchmark workload's scenario,
r3 or a one-block overflow case with fields replaced, or a random draw with
one block rescaled or appended), an instance count and a seed. Some runs
fail rows on purpose, so that the first failing instance's fingerprint and
detail are pinned too. ``digests.json`` keeps, per run id, the digest and the exit
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


def _outside_block() -> dict:
    """The 6-atom contracting draw of seed 3 with a one-atom block appended
    whose symbol is -100 but whose u lies below the criterion support's cut:
    the ergodic remainder sums overflow there, and its row of B_n holds
    inf * 0 = NaN."""
    from orlicz_wct.harness import generate_random_instance, scenario_to_dict

    data = scenario_to_dict(generate_random_instance(3, 6, 2, "contracting_h"))
    data["blocks"].append([len(data["atoms"])])
    for key, value in (("atoms", 0.9), ("u", 1e-12), ("w", -1e14)):
        data[key].append(value)
    return data


def _near_one() -> dict:
    """The 64-atom contracting draw of seed 1 with its first block's symbol
    rescaled to 1 - 1e-6: the ergodic horizons stop below its mixing time."""
    from orlicz_wct.harness import generate_random_instance, scenario_to_dict

    s = generate_random_instance(1, 64, 8, "contracting_h")
    data = scenario_to_dict(s)
    b = np.asarray(s.partition.blocks[0])
    w = s.w.copy()
    w[b] *= (1 - 1e-6) / s.operator().h[b[0]]
    data["w"] = w.tolist()
    return data


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
    # failing rows: the first failing instance's fingerprint and detail
    for instances in (20, 200):
        out.append((f"r3-comparison1e-16-i{instances}-s1",
                    lambda: dict(_shipped("r3_contracting"),
                                 tolerances={"comparison": 1e-16}),
                    instances, 1))
    for instances in (0, 20):
        out.append((f"outside-block-i{instances}-s1", _outside_block, instances, 1))
    out.append(("wide256-rank1e-3-s1",
                lambda: dict(_workload("wide256", 1), tolerances={"rank": 1e-3}), 0, 1))
    out.append(("near-one-symbol-s1", _near_one, 0, 1))
    # suites large enough to be cut into several operator tables
    out.append(("r3_contracting-i2000-s1", lambda: _shipped("r3_contracting"), 2000, 1))
    out.append(("r4_expanding-i1000-s2", lambda: _shipped("r4_expanding"), 1000, 2))
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
