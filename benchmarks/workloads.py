"""Workload inputs for the verify benchmark and the checks on its outputs.

Each workload turns a seed into one scenario file and the argument list of
one ``orlicz-wct verify`` call. The program under test only ever sees the
generated scenario file and the CLI arguments.

- ``suite200``: the shipped r3 scenario plus 200 random instances of 2-12
  atoms across all five profiles; many tiny calls, so per-call overhead in
  subspace, young, wct and harness dominates.
- ``primary64``: one 64-atom, 8-block contracting instance with
  ``power_plain`` p = 1.5 and all six experiment groups; the sampled groups
  (condexp laws, the conditional Hoelder search) and the numeric conjugate's
  generalized inverse dominate, and subspace work is small.
- ``wide256``: one 256-atom, 32-block contracting instance with
  ``power_scaled`` p = 2 and the four fast groups; few large calls, so dense
  O(n^3) linear algebra in subspace and orlicz dominates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from orlicz_wct import CondExp, FiniteMeasureSpace, Partition, WctOperator, cli
from orlicz_wct.harness import (
    generate_well_conditioned_instance,
    load_scenario,
    scenario_to_dict,
)
from orlicz_wct.subspace import powers_well_conditioned
from orlicz_wct.wct import matrix_of

FAST_GROUPS = ["structure", "power_bounded", "iterate_formula", "cesaro_identities"]
RANK_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    instances: int
    scenario_path: Path
    argv: tuple[str, ...]


def wide_scenario_dict(seed: int, n_atoms: int = 256, n_blocks: int = 32) -> dict:
    """Seeded contracting-profile scenario beyond the 64-atom generator cap.

    Mirrors the ``contracting_h`` profile: u and w in [0.5, 2], then w is
    rescaled blockwise so the symbol h takes one value in [0.2, 0.9] per
    block. Raises when the operator's powers are not well conditioned; it
    never redraws, so a seed names exactly one instance.
    """
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 2.0, n_atoms)
    perm = rng.permutation(n_atoms)
    cuts = np.sort(rng.choice(np.arange(1, n_atoms), n_blocks - 1, replace=False))
    blocks = [sorted(chunk.tolist()) for chunk in np.split(perm, cuts)]
    u = rng.uniform(0.5, 2.0, n_atoms)
    w = rng.uniform(0.5, 2.0, n_atoms)
    for idx in blocks:
        idx = np.asarray(idx)
        mass = weights[idx].sum()
        h_block = (weights[idx] * u[idx] * w[idx]).sum() / mass
        w[idx] *= rng.uniform(0.2, 0.9) / h_block
    space = FiniteMeasureSpace.from_weights(weights)
    partition = Partition(tuple(tuple(b) for b in blocks), n_atoms)
    t = WctOperator(u, w, CondExp(space, partition))
    if not powers_well_conditioned(matrix_of(t), 7, RANK_TOL, symbol=t.h):
        raise RuntimeError(
            f"wide256 instance for seed {seed} is not well conditioned; "
            "the workload does not redraw"
        )
    return {
        "atoms": weights.tolist(),
        "blocks": blocks,
        "u": u.tolist(),
        "w": w.tolist(),
        "young": {"kind": "power_scaled", "p": 2.0},
        "experiments": FAST_GROUPS,
        "seed": seed,
    }


def primary_scenario_dict(seed: int) -> dict:
    data = scenario_to_dict(
        generate_well_conditioned_instance(seed, 64, 8, "contracting_h")
    )
    # power_plain has no closed-form conjugate, so the numeric route runs
    data["young"] = {"kind": "power_plain", "p": 1.5}
    return data


def build(name: str, seed: int, root: Path, out_dir: Path) -> Workload:
    """Write the workload's scenario, load it once, and return the call."""
    if name == "suite200":
        path, instances = root / "scenarios" / "r3_contracting.json", 200
    elif name in ("primary64", "wide256"):
        make = primary_scenario_dict if name == "primary64" else wide_scenario_dict
        out_dir.mkdir(parents=True, exist_ok=True)
        path, instances = out_dir / f"{name}-seed{seed}.json", 0
        path.write_text(json.dumps(make(seed), sort_keys=True, indent=2) + "\n")
    else:
        raise ValueError(f"unknown workload: {name!r}")
    load_scenario(path)
    argv = ("verify", "--scenario", str(path), "--instances", str(instances),
            "--seed", str(seed), "--format", "json")
    return Workload(name, seed, instances, path, argv)


def call_verify(workload: Workload) -> tuple[int, str]:
    """One in-process ``orlicz-wct verify`` call; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(workload.argv))
    return code, buf.getvalue()


def report_digest(stdout: str) -> tuple[dict, str]:
    """The parsed report and the sha256 of its JSON without ``generated_at``."""
    report = json.loads(stdout)
    report.pop("generated_at")
    text = json.dumps(report, sort_keys=True, indent=2)
    return report, hashlib.sha256(text.encode()).hexdigest()


def symbol_sup(data: dict) -> float:
    """sup |E(u w)| computed directly from a scenario dict, independently of
    the program's conditional expectation."""
    mu = np.asarray(data["atoms"])
    uw = np.asarray(data["u"]) * np.asarray(data["w"])
    return max(
        abs(float(mu[b] @ uw[b] / mu[b].sum())) for b in map(np.asarray, data["blocks"])
    )


def check_report(workload: Workload, report: dict) -> list[str]:
    """Known-answer checks on one report; returns the problems found."""
    problems = []
    entries = report["entries"]
    statuses = {e["status"] for e in entries}
    if not entries or not statuses <= {"pass", "not_checked"}:
        problems.append(f"claim statuses {sorted(statuses)}")
    fp = report["fingerprint"]
    instances = workload.instances
    if fp.get("seed") != workload.seed or fp.get("instances") != instances:
        problems.append(f"fingerprint {fp} does not match the call")
    data = json.loads(workload.scenario_path.read_text())
    if fp.get("n_atoms") != len(data["atoms"]):
        problems.append("fingerprint atom count does not match the scenario")
    by_id = {e["claim_id"]: e for e in entries}
    sequence = by_id.get("symbol_power_sequence")
    if sequence is None or sequence["status"] != "pass":
        problems.append("symbol_power_sequence missing or not passed")
    elif instances == 0 and abs(sequence["residual"] - symbol_sup(data)) > 1e-12:
        problems.append(
            f"reported sup|h| {sequence['residual']!r} differs from the "
            f"directly computed {symbol_sup(data)!r}"
        )
    criterion = by_id.get("power_bounded_criterion")
    if instances == 0 and (
        criterion is None or not str(criterion["detail"]).startswith("criterion true")
    ):
        problems.append("contracting symbol not reported as power bounded")
    return problems


def claim_pass_share(report: dict) -> float:
    """Passed rows over checked (pass or fail) rows."""
    checked = [e for e in report["entries"] if e["status"] in ("pass", "fail")]
    passed = [e for e in checked if e["status"] == "pass"]
    return len(passed) / len(checked) if checked else 0.0
