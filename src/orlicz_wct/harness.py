"""Scenario files, random instance generation, the verification suite, and
report emission.

Scenario JSON schema (all atom indices 0-based)::

    {
      "atoms": [1.0, 3.0],
      "blocks": [[0, 1]],
      "u": [1.0, 1.0],
      "w": [0.5, 0.5],
      "young": {"kind": "power_scaled", "p": 2},
      "tolerances": {"rank": 1e-8, "comparison": 1e-9},
      "experiments": ["structure", "condexp_laws", ...]
    }

Tolerances are optional finite numbers > 0, and rank is also below 1 (a
relative cut of 1 or more reads every subspace sum as 0-dimensional); a name
other than rank and comparison, such as the retired ``norm_bisection``, is
refused.

Report JSON keys per claim: claim_id, anchor, hypothesis, status, residual,
detail, fingerprint. A claim whose hypothesis is not met never affects the
exit status. Each experiment group is one entry of ``_GROUPS``, a function
of (scenario, operator, sampling seed) that returns the scenario's rows, or
of ``_BATCH_GROUPS``: the structure, iterate and Cesaro groups, functions
of a list of runs, one per instance that asks for them, which take one
stacked pass per instance size and return the rows of each run. The
structure group's runs are the arguments of ``verify_structure_theorems``
(operator, gauge, rank tolerance, sampling seed, criterion), which it calls
in its batch form; the walk groups' runs are (block layout, comparison
tolerance), which walk over the direct sum of the layouts. A verify call
reads its instances one at a time and keeps of each only those runs, for
the batch groups at the end. The harness stamps the fingerprint of the
instance that ran onto every row, and library calls such as
``verify_structure_theorems`` return rows whose fingerprint is ``{}``. A
scenario builds its operator and the contraction criterion once (a random
draw hands over the operator it built), and the groups share them; the
conjugate gauge is ``phi.conjugate``, which the gauge builds once.

For power-law gauges (``exact_norm_powers`` is not None) the boundedness and
power-boundedness rows use exact operator norms: ``operator_norm_bound`` is
the inequality ||T|| <= 1 * M, since the conditional Hoelder constant is 1
there, and both comparisons allow the relative slack ``_EXACT_SLACK``. The
other gauges keep the sampled estimates and the empirical constant.
"""

from __future__ import annotations

import datetime as _dt
import itertools
import json
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import __version__
from .claims import (
    EXPERIMENT_CLAIMS,
    ClaimResult,
    make_claim,
    merge_claims,
    overflow_claim,
)
from .condexp import CondExp, check_condexp_laws, gch_constant_report
from .measure import FiniteMeasureSpace, Partition, ess_sup
from .orlicz import OrliczContext, luxemburg_norms
from .subspace import block_powers_well_conditioned, verify_structure_theorems
from .wct import (
    BlockLayout,
    BlockWalk,
    WctOperator,
    b_n_operator,
    bound_constant,
    cesaro_mean,
    contraction_criterion,
    exact_norm_powers,
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
    "identity_residuals",
    "VerificationReport",
    "emit_report",
    "PROFILES",
    "DEFAULT_EXPERIMENTS",
]


class ScenarioError(ValueError):
    """Input a command cannot use, such as a scenario file that is missing,
    not UTF-8 or not JSON, or an --output path that cannot be written."""


class ValidationError(ScenarioError):
    """Structurally valid JSON violating a scenario invariant."""


DEFAULT_TOLERANCES = {"rank": 1e-8, "comparison": 1e-9}
# every experiment group, in registry order
DEFAULT_EXPERIMENTS = tuple(EXPERIMENT_CLAIMS)
PROFILES = (
    "generic",
    "nilpotent_h",
    "contracting_h",
    "expanding_h",
    "sparse_support",
)
# atom cap of generate_random_instance: draws of many blocks seldom pass the
# conditioning filter, which reads the block spectrum
MAX_RANDOM_ATOMS = 64
# draws per random instance before generation gives up
_ATTEMPTS = 120
# random draws shared by the conditional-expectation laws
_CONDEXP_TRIALS = 200
# the powers of the iterate group, read from a walk to T^6, and the horizons
# of the Cesaro group, read from a walk to T^20
_ITERATE_POWERS = (1, 2, 3, 4, 5, 6)
_CESARO_HORIZONS = (2, 3, 5, 8, 13, 20)
# relative slack of the comparisons between exact norms: r1, r3 and r4 reach
# ||T|| = M, and the two sides round differently
_EXACT_SLACK = 1e-12

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
    factory = _YOUNG_FACTORIES.get(kind) if isinstance(kind, str) else None
    if factory is None:
        raise ValidationError(f"unknown young function kind: {kind!r}")
    params = spec.get("params")
    if params is None and "p" in spec:
        params = [spec["p"]]
    if not isinstance(params, (list, tuple, type(None))):
        raise ValidationError("young params must be a list of numbers")
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

    # the operator and the contraction criterion are built once per scenario
    # and shared by every experiment group
    def operator(self) -> WctOperator:
        return self._operator

    @cached_property
    def _operator(self) -> WctOperator:
        return WctOperator(self.u, self.w, CondExp(self.space, self.partition))

    @cached_property
    def criterion(self) -> tuple[list[int], bool]:
        """``contraction_criterion`` of the operator for phi."""
        return contraction_criterion(self.operator(), self.phi)

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


def _with_operator(s: Scenario, t: WctOperator) -> Scenario:
    """s holding t as its operator, which it then does not build: t must be
    the operator of s's u, w, space and partition."""
    vars(s)["_operator"] = t
    return s


def _finite(name: str, vals, ndim: int) -> np.ndarray:
    """vals as a finite float array with ndim axes, or a ValidationError
    naming the field."""
    try:
        arr = np.asarray(vals, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must hold numbers only") from exc
    if arr.ndim != ndim or not np.all(np.isfinite(arr)):
        shape = "a finite number" if ndim == 0 else "a flat list of finite numbers"
        raise ValidationError(f"{name} must be {shape}")
    return arr


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("scenario must be a JSON object")
    for key in ("atoms", "blocks", "u", "w", "young"):
        if key not in data:
            raise ValidationError(f"missing required field: {key!r}")
    atoms = data["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ValidationError("atoms must be a non-empty list of weights")
    weights = _finite("atoms", atoms, 1)
    if np.any(weights <= 0):
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
        return _finite(name, vals, 1)

    u = values("u")
    w = values("w")
    phi = young_from_spec(data["young"])

    tolerances = dict(DEFAULT_TOLERANCES)
    declared = data.get("tolerances") or {}
    if not isinstance(declared, dict):
        raise ValidationError("tolerances must be an object of named numbers")
    for key, val in declared.items():
        if key not in DEFAULT_TOLERANCES:
            raise ValidationError(f"unknown tolerance name: {key!r}")
        val = _finite(f"tolerance {key!r}", val, 0)
        if val <= 0:
            raise ValidationError(f"tolerance {key!r} must be > 0")
        if key == "rank" and val >= 1:
            raise ValidationError("tolerance 'rank' must be < 1")
        tolerances[key] = float(val)

    experiments = data.get("experiments") or DEFAULT_EXPERIMENTS
    if not isinstance(experiments, (list, tuple)) or not all(
        isinstance(name, str) for name in experiments
    ):
        raise ValidationError("experiments must be a list of experiment names")
    experiments = tuple(experiments)
    for i, name in enumerate(experiments):
        if name not in EXPERIMENT_CLAIMS:
            raise ValidationError(f"unknown experiment name: {name!r}")
        if name in experiments[:i]:
            raise ValidationError(f"repeated experiment name: {name!r}")

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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
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
    seed: int,
    n_atoms: int,
    n_blocks: int,
    profile: str = "generic",
    gauges: dict | None = None,
) -> Scenario:
    """Deterministic scenario per seed; profile post-conditions hold by
    construction (contracting_h rescales w blockwise so sup|h| <= 0.9,
    expanding_h so min h >= 1.1, nilpotent_h orthogonalizes w against u on
    every block, sparse_support zeroes w outside a small atom set). The
    scenario holds the operator that the draw builds. Draws that are given
    one ``gauges`` dict share the gauge of each rotation entry, and so the
    conjugate it builds: the dict keeps each gauge a draw builds."""
    if not 1 <= n_blocks <= n_atoms <= MAX_RANDOM_ATOMS:
        raise ValueError(f"require 1 <= n_blocks <= n_atoms <= {MAX_RANDOM_ATOMS}")
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

    entry = _YOUNG_ROTATION[int(rng.integers(len(_YOUNG_ROTATION)))]
    gauges = {} if gauges is None else gauges
    if entry not in gauges:
        gauges[entry] = _YOUNG_FACTORIES[entry[0]](entry[1])
    phi = gauges[entry]

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

    t = WctOperator(u, w, e)
    scenario = Scenario(
        space=space,
        partition=partition,
        u=u,
        w=w,
        phi=phi,
        profile=profile,
        seed=seed,
    )
    if profile == "contracting_h":
        assert ess_sup(t.h) <= 0.9 + 1e-12
    if profile == "expanding_h":
        assert float(np.min(t.h)) >= 1.1 - 1e-12
    if profile == "nilpotent_h":
        assert ess_sup(t.h) <= 1e-10
    return _with_operator(scenario, t)


def generate_well_conditioned_instance(
    seed: int,
    n_atoms: int,
    n_blocks: int,
    profile: str = "generic",
    tol: float = 1e-8,
    gauges: dict | None = None,
) -> Scenario:
    """generate_random_instance, re-drawing (at most _ATTEMPTS times) while
    any operator power carries a singular value too close to its rank
    threshold to classify, read from the block spectrum with no SVD;
    ScenarioError when every draw does. Every draw shares ``gauges``."""
    gauges = {} if gauges is None else gauges
    scenario = generate_random_instance(seed, n_atoms, n_blocks, profile, gauges)
    for j in range(1, _ATTEMPTS + 1):
        if block_powers_well_conditioned(scenario.operator(), 7, tol):
            return scenario
        scenario = generate_random_instance(
            seed + 7919 * j, n_atoms, n_blocks, profile, gauges
        )
    raise ScenarioError(
        f"no well-conditioned instance within {_ATTEMPTS} draws from seed "
        f"{seed} at rank tolerance {tol:g}"
    )


@dataclass
class VerificationReport:
    entries: list[ClaimResult]
    fingerprint: dict
    version: str
    generated_at: str

    @property
    def exit_status(self) -> int:
        return 1 if any(r.status == "fail" for r in self.entries) else 0

    def to_dict(self) -> dict:
        return asdict(self)


def _within(value: float, bound: float) -> bool:
    """value <= bound up to the relative slack _EXACT_SLACK."""
    return value <= bound + _EXACT_SLACK * abs(bound)


def _relative_gap(layout: BlockLayout, diff, scale) -> np.ndarray:
    """max|diff| relative to 1 + max|scale|, for each operator of the
    layout's direct sum: diff and scale are packed on it."""
    return layout.owner_max(diff) / (1.0 + layout.owner_max(scale))


def identity_residuals(walk: BlockWalk, ns) -> dict[int, dict]:
    """The Cesaro identity residuals at every n in ns, from one ``BlockWalk``,
    each an array with one value per operator of the walk's direct sum.

    The walk holds A_n, A_(n+1) and T^n, and B_n when n >= 2. Each residual
    is a max-entry gap relative to 1 + max|scale|, with T^n/n the scale of
    the power-over-n and telescoping identities and B_n that of the
    remainder factorization, so expanding symbols do not read as failures.
    Every matrix involved vanishes off the partitions' blocks, so the gaps
    are taken on the packed blocks, and the products block by block. The
    remainder entry is present only when B_n is. The Cesaro group and
    ``orlicz-wct cesaro`` both report these values.
    """
    eye = walk.eye
    imt = eye - walk.m
    out = {}
    for n in ns:
        a_n, tn = walk.a[n], walk.t[n]
        out[n] = {
            "power_over_n_identity": _relative_gap(
                walk, tn / n - ((n + 1) / n) * walk.a[n + 1] + a_n, tn / n
            ),
            "telescoping_identity": _relative_gap(
                walk, walk.matmul(imt, a_n) - (eye - tn) / n, tn / n
            ),
        }
        if n in walk.b:
            out[n]["remainder_factorization_identity"] = _relative_gap(
                walk, eye - a_n - walk.matmul(imt, walk.b[n]), walk.b[n]
            )
    return out


def _folded_claim(cid: str, residuals: np.ndarray, bound: float, detail: str):
    """The row of the worst of a claim's residuals. A non-finite residual (a
    power that overflowed) makes it not_checked with no residual: no bound
    holds on inf, and a NaN decides nothing."""
    if not np.isfinite(residuals).all():
        return overflow_claim(cid)
    worst = float(np.max(residuals))
    return make_claim(cid, "none", worst <= bound, worst, detail)


def _by_size(runs, size, batch) -> list:
    """batch(runs) for the runs of each instance size (``size(run)``), so
    that the stacked arrays of one size only are held at a time: one result
    per run, in run order. ``runs`` is emptied, and the runs of each size
    are let go once their batch ran."""
    by_size, per_run = {}, [None] * len(runs)
    for i, run in enumerate(runs):
        by_size.setdefault(size(run), []).append((i, run))
    runs.clear()
    for key in list(by_size):
        index, taken = zip(*by_size.pop(key))
        for i, result in zip(index, batch(list(taken))):
            per_run[i] = result
    return per_run


def _structure_claims(runs):
    """The structure rows of each run of ``verify_structure_theorems``
    arguments, from one batch call per instance size; ``runs`` is emptied,
    so that the operators of each size are let go once their rows exist."""

    def batch(runs):
        return verify_structure_theorems(*zip(*runs))

    return _by_size(runs, lambda run: run[0].space.n_atoms, batch)


def _walk_claims(runs, residuals, detail, a_ns=(), b_ns=(), t_ns=()):
    """The rows of each (block layout, comparison tolerance) run, from one
    ``BlockWalk`` per instance size over the direct sum of the layouts of
    that many atoms. ``residuals(walk)`` gives for every claim id one array
    per power or horizon, one value per operator of the walk. An overflowing
    power walks on as inf and NaN, which the fold reads as not_checked."""

    def walked(batch):
        walk = BlockWalk(BlockLayout.direct_sum(x for x, _ in batch), a_ns, b_ns, t_ns)
        stacked = {cid: np.array(res) for cid, res in residuals(walk).items()}
        return [
            {cid: res[:, j] for cid, res in stacked.items()} for j in range(len(batch))
        ]

    with np.errstate(over="ignore", invalid="ignore"):
        per_run = _by_size(list(runs), lambda run: run[0].n, walked)
    return [
        [_folded_claim(cid, res, tol, detail) for cid, res in folded.items()]
        for (_, tol), folded in zip(runs, per_run)
    ]


def _iterate_claims(runs):
    def residuals(walk):
        gaps = [
            _relative_gap(walk, walk.t[n] - iterate(walk, n), walk.t[n])
            for n in _ITERATE_POWERS
        ]
        return {"iterate_closed_form": gaps}

    detail = "relative max-entry gap over powers 1..6"
    return _walk_claims(runs, residuals, detail, t_ns=_ITERATE_POWERS)


def _cesaro_claims(runs):
    def residuals(walk):
        folded = {cid: [] for cid in EXPERIMENT_CLAIMS["cesaro_identities"]}
        for n, gaps in identity_residuals(walk, _CESARO_HORIZONS).items():
            a_n, b_n = walk.a[n], walk.b[n]
            gaps["cesaro_closed_form"] = _relative_gap(
                walk, a_n - cesaro_mean(walk, n), a_n
            )
            gaps["remainder_closed_form"] = _relative_gap(
                walk, b_n - b_n_operator(walk, n), b_n
            )
            for cid, gap in gaps.items():
                folded[cid].append(gap)
        return folded

    h = _CESARO_HORIZONS
    detail = "relative max-entry residual over n in {2,3,5,8,13,20}"
    return _walk_claims(
        runs, residuals, detail, a_ns=h + tuple(n + 1 for n in h), b_ns=h, t_ns=h
    )


def _power_bounded_claims(s: Scenario, t: WctOperator, seed: int):
    rep = power_bounded_report(
        t, s.phi, n_max=20, samples=32, seed=seed, criterion=s.criterion
    )
    n1 = rep.norm_estimates[0]
    if rep.criterion_holds and rep.exact:
        ok = _within(rep.sup_norm_estimate, n1)
        detail = (
            f"criterion true; sup_n ||T^n|| {rep.sup_norm_estimate:.6g} vs "
            f"||T|| {n1:.6g} (exact block norms)"
        )
    elif rep.criterion_holds:
        ok = rep.sup_norm_estimate <= n1 + 1e-6
        detail = (
            f"criterion true; sup_n estimate {rep.sup_norm_estimate:.6g} vs "
            f"n=1 estimate {n1:.6g}"
        )
    else:
        # growth witness |h_i|^(n-1) = N(h^(n-1) T e_i) / N(T e_i): a violating
        # block lies whole in the support and has u_j w_j != 0, so T e_j != 0
        h_crit = np.abs(t.h[rep.criterion_support])
        with np.errstate(over="ignore"):
            top = float(np.max(h_crit[h_crit >= 1.0] ** (rep.n_max - 1), initial=0.0))
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
    criterion_row = make_claim(
        "power_bounded_criterion", "none", ok, rep.sup_norm_estimate, detail
    )
    if not np.isfinite(rep.norm_estimates).all():
        criterion_row = overflow_claim("power_bounded_criterion")
    return [
        criterion_row,
        make_claim(
            "symbol_power_sequence",
            "none",
            rep.horizon_equivalence_ok,
            residual=rep.h_sup,
            detail=f"sup|h|={rep.h_sup:.6g}, bounded over horizon={rep.horizon_bounded}",
        ),
    ]


def _condexp_claims(s: Scenario, t: WctOperator, seed: int):
    report = check_condexp_laws(
        t.e, s.phi, trials=_CONDEXP_TRIALS, tol=s.tolerances["comparison"], seed=seed
    )
    # a law whose own hypothesis fails has passed=None, no residual and a note
    return [
        make_claim(
            name,
            "not_met" if law.passed is None else "none",
            law.passed,
            residual=None if law.passed is None else law.max_residual,
            detail=json.dumps(law.counterexample) if law.passed is False else law.note,
        )
        for name, law in report.laws.items()
    ]


def _boundedness_claims(s: Scenario, t: WctOperator, seed: int):
    norms = exact_norm_powers(t, s.phi, 1)
    if norms is not None:
        # power laws: the conditional Hoelder constant is exactly 1 and the
        # operator norm is exact, so the bound is checked as an inequality
        m_const = bound_constant(t, s.phi, 1.0)
        if not np.isfinite([norms[0], m_const]).all():
            return [overflow_claim("operator_norm_bound")]
        tight = f"{norms[0] / m_const:.6g}" if m_const > 0 else "- (M = 0)"
        return [
            make_claim(
                "operator_norm_bound",
                "none",
                _within(norms[0], m_const),
                residual=norms[0] - m_const,
                detail=f"||T|| {norms[0]:.6g} vs 1*M = {m_const:.6g}, "
                f"tightness ||T||/M = {tight} (exact block norm, C = 1)",
            )
        ]
    c_emp = gch_constant_report(t.e, s.phi, samples=200, seed=seed)[0]
    if c_emp <= 0:
        detail = "empirical constant is zero (degenerate instance)"
        return [make_claim("operator_norm_bound", "not_met", None, detail=detail)]
    bound = bound_constant(t, s.phi, c_emp)
    if not np.isfinite(bound):
        return [overflow_claim("operator_norm_bound")]
    ctx = s.context()
    rng = np.random.default_rng(seed)
    fs = rng.uniform(-3.0, 3.0, (s.space.n_atoms, 200))
    base = luxemburg_norms(ctx, fs)
    keep = base > 0
    ratios = luxemburg_norms(ctx, matrix_of(t) @ fs[:, keep]) / base[keep]
    worst = float(np.max(ratios, initial=0.0))
    return [
        make_claim(
            "operator_norm_bound",
            "none",
            worst <= bound + 1e-6,
            residual=worst - bound,
            detail=f"max ratio {worst:.6g} vs C*M = {bound:.6g} "
            f"(C empirical, self-consistency check)",
        )
    ]


def _structure_run(s: Scenario, t: WctOperator, seed: int):
    return t, s.phi, s.tolerances["rank"], seed, s.criterion


def _walk_run(s: Scenario, t: WctOperator, seed: int):
    return t.block_layout, s.tolerances["comparison"]


# experiment group -> its rows for (scenario, operator, sampling seed)
_GROUPS = {
    "condexp_laws": _condexp_claims,
    "power_bounded": _power_bounded_claims,
    "boundedness": _boundedness_claims,
}
# experiment group -> (the run it keeps of (scenario, operator, sampling
# seed), the rows of each of a list of such runs, from one stacked pass per
# instance size)
_BATCH_GROUPS = {
    "structure": (_structure_run, _structure_claims),
    "iterate_formula": (_walk_run, _iterate_claims),
    "cesaro_identities": (_walk_run, _cesaro_claims),
}


def _suite_claims(runs) -> list[ClaimResult]:
    """The rows of every group that each run of (scenario, sampling seed,
    fingerprint) asks for, each stamped with its run's fingerprint.

    The runs are read one at a time: the groups of ``_GROUPS`` take each run
    as it comes, and of a run that asks for a batch group only what that
    group reads is kept (the operator, or its block layout), so that the
    batch groups take every such run at once, at the end, while the
    instances themselves are let go.
    """
    rows, kept = [], {}

    def stamped(group_rows, fp):
        for row in group_rows:
            row.fingerprint = fp
        return group_rows

    for s, seed, fp in runs:
        t = s.operator()
        for name in s.experiments:
            if name in _BATCH_GROUPS:
                group_runs, fps = kept.setdefault(name, ([], []))
                group_runs.append(_BATCH_GROUPS[name][0](s, t, seed))
                fps.append(fp)
            else:
                rows += stamped(_GROUPS[name](s, t, seed), fp)
    # a group may empty its list of runs as it reads them, and each group's
    # runs are let go before the next group runs
    for name in list(kept):
        group_runs, fps = kept.pop(name)
        for fp, group_rows in zip(fps, _BATCH_GROUPS[name][1](group_runs)):
            rows += stamped(group_rows, fp)
    return rows


_FAST_GROUPS = ("structure", "power_bounded", "iterate_formula", "cesaro_identities")


def _random_instances(scenario: Scenario, seed: int, instances: int):
    """(scenario, sampling seed, fingerprint) of each random instance of
    ``run_verification``, drawn when it is asked for, with the tolerances
    of scenario and those of its experiment groups that are fast."""
    fast = tuple(g for g in scenario.experiments if g in _FAST_GROUPS)
    # the gauges of the rotation, and their conjugates, built once per call
    gauges = {}
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
            gauges=gauges,
        )
        # keep the seed of the draw that was accepted: the fingerprint then
        # rebuilds the instance that ran, and its claims sample with it. The
        # new settings touch no input of the operator, so the accepted
        # draw's operator carries over instead of being rebuilt
        operator = child.operator()
        child = replace(child, tolerances=scenario.tolerances, experiments=fast)
        yield _with_operator(child, operator), child.seed, child.fingerprint()


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
    fp = {**scenario.fingerprint(), "seed": seed, "instances": instances}
    primary = [(scenario, seed, dict(fp))]
    rows = _suite_claims(
        itertools.chain(primary, _random_instances(scenario, seed, instances))
    )
    # one entry per claim id, in group order
    by_id = {
        cid: [] for group in scenario.experiments for cid in EXPERIMENT_CLAIMS[group]
    }
    for row in rows:
        by_id[row.claim_id].append(row)
    return VerificationReport(
        entries=[merge_claims(same) for same in by_id.values()],
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
