"""Scenario files, random instance generation, the verification suite, and
report emission.

Scenario JSON schema (all atom indices 0-based)::

    {
      "atoms": [1.0, 3.0],
      "blocks": [[0, 1]],
      "u": [1.0, 1.0],
      "w": [0.5, 0.5],
      "young": {"kind": "power_scaled", "p": 2},
      "tolerances": {"rank": 1e-8, "norm_bisection": 1e-10, "comparison": 1e-9},
      "experiments": ["structure", "condexp_laws", ...]
    }

Report JSON keys per claim: claim_id, anchor, hypothesis, status, residual,
detail, fingerprint. A claim whose hypothesis is not met never affects the
exit status.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .claims import EXPERIMENT_CLAIMS, ClaimResult, make_claim, merge_claims
from .condexp import CondExp, check_condexp_laws, estimate_gch_constant
from .measure import FiniteMeasureSpace, Partition, ess_sup
from .orlicz import OrliczContext, luxemburg_norms
from .subspace import powers_well_conditioned, verify_structure_theorems
from .wct import (
    WctOperator,
    b_n_operator,
    bound_constant,
    cesaro_mean,
    iterate,
    matrix_of,
    power_bounded_report,
)
from .young import (
    YoungFunction,
    capped,
    deadzone,
    exp_type,
    power_plain,
    power_scaled,
)

__all__ = [
    "Scenario",
    "ScenarioError",
    "ValidationError",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "generate_random_instance",
    "generate_well_conditioned_instance",
    "run_verification",
    "VerificationReport",
    "emit_report",
    "PROFILES",
    "DEFAULT_EXPERIMENTS",
]


class ScenarioError(ValueError):
    """Malformed scenario file (bad JSON)."""


class ValidationError(ScenarioError):
    """Structurally valid JSON violating a scenario invariant."""


DEFAULT_TOLERANCES = {"rank": 1e-8, "norm_bisection": 1e-10, "comparison": 1e-9}
DEFAULT_EXPERIMENTS = (
    "structure",
    "condexp_laws",
    "power_bounded",
    "iterate_formula",
    "cesaro_identities",
    "boundedness",
)
PROFILES = (
    "generic",
    "nilpotent_h",
    "contracting_h",
    "expanding_h",
    "sparse_support",
)

_YOUNG_FACTORIES = {
    "power_scaled": power_scaled,
    "power_plain": power_plain,
    "exp_type": exp_type,
    "deadzone": deadzone,
    "capped": capped,
}


def young_from_spec(spec: dict) -> YoungFunction:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("young must be an object with a 'kind' field")
    kind = spec["kind"]
    factory = _YOUNG_FACTORIES.get(kind)
    if factory is None:
        raise ValidationError(f"unknown young function kind: {kind!r}")
    params = spec.get("params")
    if params is None and "p" in spec:
        params = [spec["p"]]
    params = list(params or [])
    try:
        return factory(*params)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid young parameters for {kind!r}: {exc}") from exc


def young_to_spec(phi: YoungFunction) -> dict:
    spec: dict = {"kind": phi.kind}
    if phi.kind in ("power_scaled", "power_plain"):
        spec["p"] = phi.params[0]
    elif phi.params:
        spec["params"] = list(phi.params)
    return spec


@dataclass(frozen=True)
class Scenario:
    space: FiniteMeasureSpace
    partition: Partition
    u: np.ndarray
    w: np.ndarray
    phi: YoungFunction
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    experiments: tuple[str, ...] = DEFAULT_EXPERIMENTS
    profile: str | None = None
    seed: int | None = None

    def operator(self) -> WctOperator:
        return WctOperator(self.u, self.w, CondExp(self.space, self.partition))

    def context(self) -> OrliczContext:
        return OrliczContext(self.space, self.phi)

    def fingerprint(self) -> dict:
        fp = {
            "n_atoms": self.space.n_atoms,
            "n_blocks": self.partition.n_blocks,
        }
        if self.profile is not None:
            fp["profile"] = self.profile
        if self.seed is not None:
            fp["seed"] = self.seed
        return fp


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("scenario must be a JSON object")
    for key in ("atoms", "blocks", "u", "w", "young"):
        if key not in data:
            raise ValidationError(f"missing required field: {key!r}")
    atoms = data["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ValidationError("atoms must be a non-empty list of weights")
    weights = np.asarray(atoms, dtype=float)
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ValidationError("atom weight must be > 0")
    space = FiniteMeasureSpace.from_weights(weights)

    blocks = data["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValidationError("blocks must be a list of index lists")
    try:
        partition = Partition(tuple(tuple(b) for b in blocks), space.n_atoms)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    def values(name: str) -> np.ndarray:
        vals = data[name]
        if not isinstance(vals, list) or len(vals) != space.n_atoms:
            raise ValidationError(f"{name} must have one value per atom")
        arr = np.asarray(vals, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} must be finite-valued")
        return arr

    u = values("u")
    w = values("w")
    phi = young_from_spec(data["young"])

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in (data.get("tolerances") or {}).items():
        if key not in DEFAULT_TOLERANCES:
            raise ValidationError(f"unknown tolerance name: {key!r}")
        val = float(val)
        if val <= 0:
            raise ValidationError(f"tolerance {key!r} must be > 0")
        tolerances[key] = val

    experiments = tuple(data.get("experiments") or DEFAULT_EXPERIMENTS)
    for name in experiments:
        if name not in EXPERIMENT_CLAIMS:
            raise ValidationError(f"unknown experiment name: {name!r}")

    return Scenario(
        space=space,
        partition=partition,
        u=u,
        w=w,
        phi=phi,
        tolerances=tolerances,
        experiments=experiments,
        profile=data.get("profile"),
        seed=data.get("seed"),
    )


def scenario_to_dict(s: Scenario) -> dict:
    out = {
        "atoms": s.space.weights.tolist(),
        "blocks": [list(b) for b in s.partition.blocks],
        "u": s.u.tolist(),
        "w": s.w.tolist(),
        "young": young_to_spec(s.phi),
        "tolerances": dict(s.tolerances),
        "experiments": list(s.experiments),
    }
    if s.profile is not None:
        out["profile"] = s.profile
    if s.seed is not None:
        out["seed"] = s.seed
    return out


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file, with actionable error messages."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(data)


_YOUNG_ROTATION = (
    ("power_scaled", 2.0),
    ("power_plain", 2.0),
    ("power_scaled", 3.0),
    ("power_plain", 1.5),
)


def generate_random_instance(
    seed: int, n_atoms: int, n_blocks: int, profile: str = "generic"
) -> Scenario:
    """Deterministic scenario per seed; profile post-conditions hold by
    construction (contracting_h rescales w blockwise so sup|h| <= 0.9,
    expanding_h so min h >= 1.1, nilpotent_h orthogonalizes w against u on
    every block, sparse_support zeroes w outside a small atom set)."""
    if not 1 <= n_blocks <= n_atoms <= 64:
        raise ValueError("require 1 <= n_blocks <= n_atoms <= 64")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile: {profile!r}")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 2.0, n_atoms)
    perm = rng.permutation(n_atoms)
    if n_blocks > 1:
        cuts = np.sort(rng.choice(np.arange(1, n_atoms), n_blocks - 1, replace=False))
    else:
        cuts = np.asarray([], dtype=int)
    blocks = tuple(
        tuple(sorted(chunk.tolist())) for chunk in np.split(perm, cuts)
    )
    partition = Partition(blocks, n_atoms)
    space = FiniteMeasureSpace.from_weights(weights)
    e = CondExp(space, partition)

    kind, p = _YOUNG_ROTATION[int(rng.integers(len(_YOUNG_ROTATION)))]
    phi = _YOUNG_FACTORIES[kind](p)

    def sprinkle_zeros(vec, frac=0.15):
        vec[rng.random(vec.size) < frac] = 0.0
        return vec

    if profile == "generic":
        u = sprinkle_zeros(rng.uniform(-2.0, 2.0, n_atoms))
        w = sprinkle_zeros(rng.uniform(-2.0, 2.0, n_atoms))
    elif profile == "nilpotent_h":
        u = rng.uniform(0.5, 2.0, n_atoms) * rng.choice([-1.0, 1.0], n_atoms)
        w = rng.uniform(-2.0, 2.0, n_atoms)
        for idx in partition.index_arrays:
            if idx.size == 1:
                w[idx] = 0.0
                continue
            uu = u[idx]
            mass = weights[idx]
            coeff = (mass * uu * w[idx]).sum() / (mass * uu * uu).sum()
            w[idx] = w[idx] - coeff * uu
    elif profile in ("contracting_h", "expanding_h"):
        u = rng.uniform(0.5, 2.0, n_atoms)
        w = rng.uniform(0.5, 2.0, n_atoms)
        h = e(u * w)
        lo, hi = (0.2, 0.9) if profile == "contracting_h" else (1.1, 1.5)
        for idx in partition.index_arrays:
            target = rng.uniform(lo, hi)
            w[idx] *= target / h[idx[0]]
    else:  # sparse_support
        u = sprinkle_zeros(rng.uniform(-2.0, 2.0, n_atoms))
        w = rng.uniform(-2.0, 2.0, n_atoms)
        keep = rng.choice(n_atoms, size=max(1, n_atoms // 4), replace=False)
        mask = np.zeros(n_atoms, dtype=bool)
        mask[keep] = True
        w[~mask] = 0.0

    scenario = Scenario(
        space=space,
        partition=partition,
        u=u,
        w=w,
        phi=phi,
        profile=profile,
        seed=seed,
    )
    h = e(u * w)
    if profile == "contracting_h":
        assert ess_sup(h) <= 0.9 + 1e-12
    if profile == "expanding_h":
        assert float(np.min(h)) >= 1.1 - 1e-12
    if profile == "nilpotent_h":
        assert ess_sup(h) <= 1e-10
    return scenario


def generate_well_conditioned_instance(
    seed: int,
    n_atoms: int,
    n_blocks: int,
    profile: str = "generic",
    tol: float = 1e-8,
    attempts: int = 120,
) -> Scenario:
    """generate_random_instance, re-drawing while any operator power carries
    a singular value too close to its rank threshold to classify."""
    scenario = generate_random_instance(seed, n_atoms, n_blocks, profile)
    for j in range(1, attempts + 1):
        t = scenario.operator()
        if powers_well_conditioned(matrix_of(t), 7, tol, symbol=t.h):
            return scenario
        scenario = generate_random_instance(
            seed + 7919 * j, n_atoms, n_blocks, profile
        )
    raise RuntimeError(
        f"no well-conditioned instance within {attempts} draws from seed {seed}"
    )


@dataclass
class VerificationReport:
    entries: list[ClaimResult]
    fingerprint: dict
    version: str
    generated_at: str

    @property
    def failed(self) -> list[ClaimResult]:
        return [r for r in self.entries if r.status == "fail"]

    @property
    def exit_status(self) -> int:
        return 1 if self.failed else 0

    def to_dict(self) -> dict:
        return {
            "entries": [r.to_dict() for r in self.entries],
            "fingerprint": self.fingerprint,
            "version": self.version,
            "generated_at": self.generated_at,
        }


def _max_abs(a) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def _iterate_claims(t: WctOperator, comparison_tol: float, fp: dict):
    worst = 0.0
    for n in range(1, 7):
        direct = iterate(t, n, "direct")
        closed = iterate(t, n, "closed_form")
        scale = 1.0 + _max_abs(direct)
        worst = max(worst, _max_abs(direct - closed) / scale)
    ok = worst <= max(comparison_tol, 1e-9)
    return [
        make_claim(
            "iterate_closed_form",
            "none",
            "pass" if ok else "fail",
            residual=worst,
            detail="relative max-entry gap over powers 1..6",
            fp=fp,
        )
    ]


def _cesaro_claims(t: WctOperator, comparison_tol: float, fp: dict):
    eye = np.eye(t.space.n_atoms)
    m = matrix_of(t)
    rows = []
    worst = {
        "cesaro_closed_form": 0.0,
        "remainder_closed_form": 0.0,
        "power_over_n_identity": 0.0,
        "telescoping_identity": 0.0,
        "remainder_factorization_identity": 0.0,
    }

    def rel(diff, scale) -> float:
        return _max_abs(diff) / (1.0 + _max_abs(scale))

    for n in (2, 3, 5, 8, 13, 20):
        a_direct = cesaro_mean(t, n, "direct")
        a_closed = cesaro_mean(t, n, "closed_form")
        worst["cesaro_closed_form"] = max(
            worst["cesaro_closed_form"], rel(a_direct - a_closed, a_direct)
        )
        b_direct = b_n_operator(t, n, "direct")
        b_closed = b_n_operator(t, n, "closed_form")
        worst["remainder_closed_form"] = max(
            worst["remainder_closed_form"], rel(b_direct - b_closed, b_direct)
        )
        a_next = cesaro_mean(t, n + 1, "direct")
        tn = iterate(t, n, "direct")
        worst["power_over_n_identity"] = max(
            worst["power_over_n_identity"],
            rel(tn / n - ((n + 1) / n) * a_next + a_direct, tn / n),
        )
        worst["telescoping_identity"] = max(
            worst["telescoping_identity"],
            rel((eye - m) @ a_direct - (eye - tn) / n, tn / n),
        )
        worst["remainder_factorization_identity"] = max(
            worst["remainder_factorization_identity"],
            rel(eye - a_direct - (eye - m) @ b_direct, b_direct),
        )
    for cid, res in worst.items():
        rows.append(
            make_claim(
                cid,
                "none",
                "pass" if res <= max(comparison_tol, 1e-10) else "fail",
                residual=res,
                detail="relative max-entry residual over n in {2,3,5,8,13,20}",
                fp=fp,
            )
        )
    return rows


def _power_bounded_claims(s: Scenario, t: WctOperator, seed: int, fp: dict):
    from .wct import apply
    from .young import complementary

    psi = complementary(s.phi)
    rep = power_bounded_report(t, s.phi, psi, n_max=20, samples=32, seed=seed)
    if rep.criterion_holds:
        ok = rep.sup_norm_estimate <= rep.norm_estimates[0] + 1e-6
        detail = (
            f"criterion true; sup_n estimate {rep.sup_norm_estimate:.6g} vs "
            f"n=1 estimate {rep.norm_estimates[0]:.6g}"
        )
    else:
        # growth witness per violating atom: its image lives on one block,
        # where the n-th power rescales exactly by the block symbol power
        ctx = s.context()
        witnesses = []
        for i in rep.criterion_support:
            if abs(t.h[i]) < 1.0:
                continue
            e_i = np.zeros(s.space.n_atoms)
            e_i[i] = 1.0
            te = apply(t, e_i)
            base = luxemburg_norms(ctx, te[:, None])[0]
            if base > 0:
                grown = luxemburg_norms(
                    ctx, (t.h ** (rep.n_max - 1) * te)[:, None]
                )[0]
                witnesses.append(grown / base)
        top = max(witnesses, default=0.0)
        ok = top >= 1.0 - 1e-9
        if top >= 2.0:
            detail = "criterion false, growth confirmed"
        elif ok:
            detail = (
                "criterion false; growth consistent but the symbol is too "
                "close to 1 to confirm it over the horizon"
            )
        else:
            detail = "criterion false but the violating blocks do not grow"
    rows = [
        make_claim(
            "power_bounded_criterion",
            "none",
            "pass" if ok else "fail",
            residual=rep.sup_norm_estimate,
            detail=detail,
            fp=fp,
        ),
        make_claim(
            "symbol_power_sequence",
            "none",
            "pass" if rep.horizon_equivalence_ok else "fail",
            residual=rep.h_sup,
            detail=f"sup|h|={rep.h_sup:.6g}, bounded over horizon={rep.horizon_bounded}",
            fp=fp,
        ),
    ]
    return rows


def _condexp_claims(s: Scenario, seed: int, trials: int, fp: dict):
    e = CondExp(s.space, s.partition)
    report = check_condexp_laws(
        e, s.phi, trials=trials, tol=s.tolerances["comparison"], seed=seed
    )
    rows = []
    for name, law in report.laws.items():
        if law.passed is None:
            rows.append(
                make_claim(name, "not_met", "not_checked", detail=law.note, fp=fp)
            )
        else:
            rows.append(
                make_claim(
                    name,
                    "none",
                    "pass" if law.passed else "fail",
                    residual=law.max_residual,
                    detail=None if law.passed else json.dumps(law.counterexample),
                    fp=fp,
                )
            )
    return rows


def _boundedness_claims(s: Scenario, t: WctOperator, seed: int, fp: dict):
    from .young import complementary

    psi = complementary(s.phi)
    e = CondExp(s.space, s.partition)
    c_emp = estimate_gch_constant(e, s.phi, psi, samples=200, seed=seed)
    if c_emp <= 0:
        return [
            make_claim(
                "operator_norm_bound",
                "not_met",
                "not_checked",
                detail="empirical constant is zero (degenerate instance)",
                fp=fp,
            )
        ]
    bound = bound_constant(t, s.phi, psi, c_emp)
    ctx = s.context()
    rng = np.random.default_rng(seed)
    fs = rng.uniform(-3.0, 3.0, (s.space.n_atoms, 200))
    base = luxemburg_norms(ctx, fs)
    keep = base > 0
    ratios = luxemburg_norms(ctx, matrix_of(t) @ fs[:, keep]) / base[keep]
    worst = float(np.max(ratios, initial=0.0))
    ok = worst <= bound + 1e-6
    return [
        make_claim(
            "operator_norm_bound",
            "none",
            "pass" if ok else "fail",
            residual=worst - bound,
            detail=f"max ratio {worst:.6g} vs C*M = {bound:.6g} "
            f"(C empirical, self-consistency check)",
            fp=fp,
        )
    ]


def _scenario_claims(
    s: Scenario, seed: int, fp: dict, trials: int = 200
) -> list[ClaimResult]:
    t = s.operator()
    ctx = s.context()
    rows: list[ClaimResult] = []
    rank_tol = s.tolerances["rank"]
    cmp_tol = s.tolerances["comparison"]
    for name in s.experiments:
        if name == "structure":
            rows.extend(
                verify_structure_theorems(
                    t, ctx, tol=rank_tol, seed=seed, fingerprint=fp
                )
            )
        elif name == "condexp_laws":
            rows.extend(_condexp_claims(s, seed, trials, fp))
        elif name == "power_bounded":
            rows.extend(_power_bounded_claims(s, t, seed, fp))
        elif name == "iterate_formula":
            rows.extend(_iterate_claims(t, cmp_tol, fp))
        elif name == "cesaro_identities":
            rows.extend(_cesaro_claims(t, cmp_tol, fp))
        elif name == "boundedness":
            rows.extend(_boundedness_claims(s, t, seed, fp))
    return rows


_FAST_GROUPS = ("structure", "power_bounded", "iterate_formula", "cesaro_identities")


def run_verification(
    scenario: Scenario, seed: int = 0, instances: int = 0
) -> VerificationReport:
    """Run every requested check on the scenario, optionally adding random
    instances.

    Random instances (profiles cycled deterministically from the seed) rerun
    the fast experiment groups; the sampling-heavy groups (condexp_laws,
    boundedness) run on the primary scenario only. Per-claim rows aggregate
    across instances; the first failing instance's fingerprint is reported.
    """
    fp = scenario.fingerprint()
    fp["seed"] = seed
    fp["instances"] = instances
    by_id: dict[str, list[ClaimResult]] = {}
    for row in _scenario_claims(scenario, seed, dict(fp)):
        by_id.setdefault(row.claim_id, []).append(row)
    for i in range(instances):
        child_seed = seed * 100003 + i
        profile = PROFILES[i % len(PROFILES)]
        sizes = np.random.default_rng(child_seed)
        n_atoms = int(sizes.integers(2, 13))
        n_blocks = int(sizes.integers(1, n_atoms + 1))
        child = generate_well_conditioned_instance(
            child_seed,
            n_atoms=n_atoms,
            n_blocks=n_blocks,
            profile=profile,
            tol=scenario.tolerances["rank"],
        )
        child = Scenario(
            space=child.space,
            partition=child.partition,
            u=child.u,
            w=child.w,
            phi=child.phi,
            tolerances=scenario.tolerances,
            experiments=tuple(
                g for g in scenario.experiments if g in _FAST_GROUPS
            ),
            profile=profile,
            seed=child_seed,
        )
        child_fp = child.fingerprint()
        for row in _scenario_claims(child, child_seed, child_fp):
            by_id.setdefault(row.claim_id, []).append(row)
    entries = [merge_claims(rows) for rows in by_id.values()]
    order = [
        cid for group in scenario.experiments for cid in EXPERIMENT_CLAIMS[group]
    ]
    entries.sort(key=lambda r: order.index(r.claim_id))
    return VerificationReport(
        entries=entries,
        fingerprint=fp,
        version=__version__,
        generated_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )


def emit_report(report: VerificationReport, format: str = "json", path=None) -> str:
    """Render a report as schema-stable JSON or an aligned text table."""
    if format == "json":
        text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    elif format == "text":
        head = f"{'claim':34} {'status':16} {'hyp':8} {'residual':>12}  anchor"
        lines = [head, "-" * len(head)]
        for r in report.entries:
            res = f"{r.residual:.3e}" if r.residual is not None else "-"
            lines.append(
                f"{r.claim_id:34} {r.status:16} {r.hypothesis:8} {res:>12}  {r.anchor}"
            )
            if r.status == "fail":
                lines.append(f"{'':34} counterexample fingerprint: {r.fingerprint}")
        lines.append(
            f"fingerprint: {report.fingerprint} | version {report.version} | "
            f"generated {report.generated_at}"
        )
        text = "\n".join(lines)
    else:
        raise ValueError(f"unknown report format: {format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
