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
of ``_BATCH_GROUPS``: the power_bounded, structure, iterate and Cesaro
groups, functions of (operator table, sampling seed per row, tolerances)
that return one ``ClaimColumn`` per claim, the claim's rows on every row of
the table as arrays. A verify call makes one ``OperatorTable`` per instance
size, from the scenario's operator and its random draws' arrays (a random
instance builds no operator), and runs every batch group on it before the
next is made: the power_bounded group through the table form of
``power_bounded_report``, the structure group through that of
``verify_structure_theorems``, and the walk groups over the table's one
packed layout. ``fold_claims`` then folds each claim's rows on every
instance into its report row, with the fingerprint of the instance it
names, and builds a row's detail only where the report prints it; library
calls such as ``verify_structure_theorems`` return rows whose fingerprint
is ``{}``. A scenario builds its operator once, and the groups share it; a
table decides the contraction criterion of all its rows once, which the
power_bounded and structure passes both read; the conjugate gauge is
``phi.conjugate``, which the gauge builds once.

For power-law gauges (``exact_norm_powers`` is not None) the boundedness and
power-boundedness rows use exact operator norms: ``operator_norm_bound`` is
the inequality ||T|| <= 1 * M, since the conditional Hoelder constant is 1
there, and both comparisons allow the relative slack ``_EXACT_SLACK``. The
other gauges keep the sampled estimates and the empirical constant.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import __version__
from .claims import (
    EXPERIMENT_CLAIMS,
    OVERFLOW_DETAIL,
    ClaimColumn,
    ClaimResult,
    fold_claims,
    fold_row,
    make_claim,
    overflow_claim,
)
from .condexp import CondExp, check_condexp_laws, gch_constant_report
from .measure import FiniteMeasureSpace, Partition, block_masses, ess_sup
from .orlicz import OrliczContext, luxemburg_norms
from .subspace import records_well_conditioned, verify_structure_theorems
from .wct import (
    BlockLayout,
    BlockWalk,
    OperatorTable,
    WctOperator,
    b_n_operator,
    bound_constant,
    cesaro_mean,
    exact_norm_powers,
    iterate,
    matrix_of,
    power_bounded_report,
    table_part,
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

    # the operator is built once and shared by every experiment group
    def operator(self) -> WctOperator:
        return self._operator

    @cached_property
    def _operator(self) -> WctOperator:
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


class _Draw(NamedTuple):
    """The arrays of one random draw: per atom its weight, block label, u,
    w and symbol h = E(u w); per block its mass; the gauge rotation entry.
    Its last six fields, in order, are the draw's ``wct.table_part``."""

    seed: int
    profile: str
    entry: tuple[str, float]
    weights: np.ndarray
    labels: np.ndarray
    masses: np.ndarray
    u: np.ndarray
    w: np.ndarray
    h: np.ndarray


def _draw(seed: int, n_atoms: int, n_blocks: int, profile: str) -> _Draw:
    """The draw of a seed, as arrays, from one ``default_rng(seed)`` stream
    (profile post-conditions hold by construction: contracting_h rescales w
    blockwise so sup|h| <= 0.9, expanding_h so min h >= 1.1, nilpotent_h
    orthogonalizes w against u on every block, sparse_support zeroes w
    outside a small atom set). Block b holds the b-th chunk of a random
    permutation of the atoms. Block masses and averages have the bits of
    ``CondExp`` and ``cond_exp``, so the operator built from a draw has
    its h."""
    if not 1 <= n_blocks <= n_atoms <= MAX_RANDOM_ATOMS:
        raise ValueError(f"require 1 <= n_blocks <= n_atoms <= {MAX_RANDOM_ATOMS}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile: {profile!r}")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 2.0, n_atoms)
    perm = rng.permutation(n_atoms)
    cuts = np.zeros(0, dtype=int)
    if n_blocks > 1:
        cuts = np.sort(rng.choice(np.arange(1, n_atoms), n_blocks - 1, replace=False))
    # the atom at place i of the permutation is in the chunk after the cuts
    # at or below i
    labels = np.empty(n_atoms, dtype=int)
    labels[perm] = np.searchsorted(cuts, np.arange(n_atoms), side="right")
    masses = block_masses(weights, labels, n_blocks)
    entry = _YOUNG_ROTATION[int(rng.integers(len(_YOUNG_ROTATION)))]

    def sprinkle_zeros(vec, frac=0.15):
        vec[rng.random(vec.size) < frac] = 0.0
        return vec

    def average(f):
        """E f on each block."""
        return np.bincount(labels, weights * f, minlength=n_blocks) / masses

    if profile == "generic":
        u = sprinkle_zeros(rng.uniform(-2.0, 2.0, n_atoms))
        w = sprinkle_zeros(rng.uniform(-2.0, 2.0, n_atoms))
    elif profile == "nilpotent_h":
        u = rng.uniform(0.5, 2.0, n_atoms) * rng.choice([-1.0, 1.0], n_atoms)
        w = rng.uniform(-2.0, 2.0, n_atoms)
        for b in range(n_blocks):
            idx = np.flatnonzero(labels == b)
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
        lo, hi = (0.2, 0.9) if profile == "contracting_h" else (1.1, 1.5)
        # one target per block, in block order
        w *= (rng.uniform(lo, hi, n_blocks) / average(u * w))[labels]
    else:  # sparse_support
        u = sprinkle_zeros(rng.uniform(-2.0, 2.0, n_atoms))
        w = rng.uniform(-2.0, 2.0, n_atoms)
        keep = rng.choice(n_atoms, size=max(1, n_atoms // 4), replace=False)
        mask = np.zeros(n_atoms, dtype=bool)
        mask[keep] = True
        w[~mask] = 0.0

    h = average(u * w)[labels]
    holds = (
        (profile != "contracting_h" or ess_sup(h) <= 0.9 + 1e-12)
        and (profile != "expanding_h" or float(np.min(h)) >= 1.1 - 1e-12)
        and (profile != "nilpotent_h" or ess_sup(h) <= 1e-10)
    )
    if not holds:
        raise RuntimeError(f"the {profile} draw of seed {seed} breaks its bound on h")
    return _Draw(seed, profile, entry, weights, labels, masses, u, w, h)


def _scenario(draw: _Draw, gauges: dict) -> Scenario:
    """The scenario of a draw; it builds its operator when first asked
    for. Draws given one ``gauges`` dict share the gauge of each rotation
    entry, and so the conjugate it builds."""
    if draw.entry not in gauges:
        gauges[draw.entry] = _YOUNG_FACTORIES[draw.entry[0]](draw.entry[1])
    return Scenario(
        space=FiniteMeasureSpace(draw.weights),
        partition=Partition.from_labels(draw.labels, draw.masses.size),
        u=draw.u,
        w=draw.w,
        phi=gauges[draw.entry],
        profile=draw.profile,
        seed=draw.seed,
    )


def generate_random_instance(
    seed: int,
    n_atoms: int,
    n_blocks: int,
    profile: str = "generic",
    gauges: dict | None = None,
) -> Scenario:
    """Deterministic scenario per seed: the draw of ``_draw``. Draws that
    are given one ``gauges`` dict share the gauge of each rotation entry,
    and so the conjugate it builds: the dict keeps each gauge a draw
    builds."""
    draw = _draw(seed, n_atoms, n_blocks, profile)
    return _scenario(draw, {} if gauges is None else gauges)


def _well_conditioned_draws(specs, tol: float) -> list[_Draw]:
    """The accepted draw of each (seed, n_atoms, n_blocks, profile) spec:
    the first of the seeds seed + 7919 j, j = 0, 1, ..., below _ATTEMPTS,
    whose operator powers carry no singular value too close to its rank
    threshold to classify (``records_well_conditioned``, read from the block
    spectrum with no SVD).

    The draws come in rounds: round j draws attempt j of every spec still
    pending, and the block record of one table of them and one filter over
    it decide them all. A block record is a per-block fact, and each block's sums keep
    their atom order, so each draw is decided as it would be alone.
    ScenarioError, for the first spec in order, when a spec's attempts all
    fail."""
    accepted, pending = [None] * len(specs), list(range(len(specs)))
    for j in range(_ATTEMPTS):
        if not pending:
            break
        draws = [_draw(specs[i][0] + 7919 * j, *specs[i][1:]) for i in pending]
        tab = OperatorTable([d[3:] for d in draws])
        tols = np.full(len(draws), tol)
        ok = records_well_conditioned(tab.record, tab.starts, 7, tols)
        still = []
        for i, d, good in zip(pending, draws, ok.tolist()):
            if good:
                accepted[i] = d
            else:
                still.append(i)
        pending = still
    if pending:
        raise ScenarioError(
            f"no well-conditioned instance within {_ATTEMPTS} draws from seed "
            f"{specs[pending[0]][0]} at rank tolerance {tol:g}"
        )
    return accepted


def generate_well_conditioned_instance(
    seed: int,
    n_atoms: int,
    n_blocks: int,
    profile: str = "generic",
    tol: float = 1e-8,
    gauges: dict | None = None,
) -> Scenario:
    """generate_random_instance of the first well-conditioned draw from
    seed, re-drawing at most _ATTEMPTS times (``_well_conditioned_draws`` on
    one spec, in rounds of one draw); ScenarioError when every draw fails.

    ``gauges`` is state that the draws given one dict share: the gauge of
    each rotation entry, and the draw that a suite's stacked rounds
    accepted, under (seed, n_atoms, n_blocks, profile, tol), which this
    call takes from it in place of the round of one that would draw and
    accept the same."""
    gauges = {} if gauges is None else gauges
    spec = (seed, n_atoms, n_blocks, profile)
    accepted = gauges.pop((*spec, tol), None)
    if accepted is None:
        (accepted,) = _well_conditioned_draws([spec], tol)
    return _scenario(accepted, gauges)


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


def _walk_columns(tab, tol, residuals, detail, a_ns=(), b_ns=(), t_ns=()):
    """The columns of a table's rows from one ``BlockWalk`` over its
    layout: ``residuals(walk)`` gives per claim id one array per power or
    horizon, one value per row, and a row's residual is the worst of them.
    A power that overflowed walks on as inf and NaN, and leaves the row not
    checked: no bound holds on inf, and a NaN decides nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        walk = BlockWalk(tab.layout, a_ns, b_ns, t_ns)
        found = residuals(walk)
    columns = []
    for cid, res in found.items():
        res = np.array(res)
        worst = res.max(axis=0)
        column = ClaimColumn(cid, "none", worst <= tol, residual=worst, detail=detail)
        columns.append(column.unchecked(~np.isfinite(res).all(axis=0), OVERFLOW_DETAIL))
    return columns


def _iterate_columns(tab, seeds, tolerances):
    def residuals(walk):
        gaps = [
            _relative_gap(walk, walk.t[n] - iterate(walk, n), walk.t[n])
            for n in _ITERATE_POWERS
        ]
        return {"iterate_closed_form": gaps}

    detail = "relative max-entry gap over powers 1..6"
    return _walk_columns(
        tab, tolerances["comparison"], residuals, detail, t_ns=_ITERATE_POWERS
    )


def _cesaro_columns(tab, seeds, tolerances):
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
    return _walk_columns(
        tab, tolerances["comparison"], residuals, detail,
        a_ns=h + tuple(n + 1 for n in h), b_ns=h, t_ns=h,
    )


def _power_bounded_columns(tab, seeds, tolerances):
    """The two power_bounded columns of a table's rows, from the table form
    of ``power_bounded_report``."""
    holds, support, h_sup, norms, exact, bounded = power_bounded_report(
        tab, None, n_max=20, samples=32, seed=seeds
    )
    n1, sup = norms[:, 0], norms.max(axis=1)
    # growth witness |h_i|^(n-1) = N(h^(n-1) T e_i) / N(T e_i): a violating
    # block lies whole in the support and has u_j w_j != 0, so T e_j != 0
    h = np.abs(tab.h)
    grows = support & (h >= 1.0)
    top = np.zeros(h.size)
    with np.errstate(over="ignore"):
        top[grows] = h[grows] ** (norms.shape[1] - 1)
    top = np.maximum.reduceat(top, tab.atom_starts)
    ok = np.where(
        holds, np.where(exact, _within(sup, n1), sup <= n1 + 1e-6), top >= 1.0 - 1e-9
    )

    def detail(k):
        if holds[k]:
            sup_n, one, how = (
                ("sup_n ||T^n||", "||T||", " (exact block norms)") if exact[k]
                else ("sup_n estimate", "n=1 estimate", "")
            )
            return f"criterion true; {sup_n} {sup[k]:.6g} vs {one} {n1[k]:.6g}{how}"
        if top[k] >= 2.0:
            return "criterion false, growth confirmed"
        if ok[k]:
            return (
                "criterion false; growth consistent but the symbol is too "
                "close to 1 to confirm it over the horizon"
            )
        return "criterion false but the violating blocks do not grow"

    # u w overflowed where sup|h| is not finite, and T's entries where a
    # norm is not
    overflowed = ~np.isfinite(h_sup)
    criterion = ClaimColumn("power_bounded_criterion", "none", ok, sup, detail)
    criterion.unchecked(overflowed | ~np.isfinite(norms).all(axis=1), OVERFLOW_DETAIL)
    sequence = ClaimColumn(
        "symbol_power_sequence",
        "none",
        bounded == (h_sup <= 1.0 + 1e-12),
        residual=h_sup,
        detail=lambda k: f"sup|h|={h_sup[k]:.6g}, bounded over horizon={bounded[k]}",
    )
    return [criterion, sequence.unchecked(overflowed, OVERFLOW_DETAIL)]


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


# experiment group -> its rows for (scenario, operator, sampling seed)
_GROUPS = {
    "condexp_laws": _condexp_claims,
    "boundedness": _boundedness_claims,
}
# experiment group -> its columns for (operator table, sampling seed per
# row, tolerances), in the order the groups run: power_bounded decides the
# criterion that the structure pass reads
_BATCH_GROUPS = {
    "power_bounded": _power_bounded_columns,
    "structure": lambda tab, seeds, tolerances: verify_structure_theorems(
        tab, None, tolerances["rank"], seeds
    ),
    "iterate_formula": _iterate_columns,
    "cesaro_identities": _cesaro_columns,
}


def _tables(scenario: Scenario, seed: int, instances: int, fingerprints: list):
    """(instance indices, operator table, sampling seed per row) of each
    instance size of a verify call: instance 0 is the scenario, then come
    its random instances, at its rank tolerance, whose draws the rounds of
    ``_well_conditioned_draws`` accept. Each table is built once from its
    rows' arrays, and let go before the next is built. The fingerprint of
    each random instance is appended to ``fingerprints``."""
    tol = scenario.tolerances["rank"]
    specs = []
    for i in range(instances):
        child_seed = seed * 100003 + i
        sizes = np.random.default_rng(child_seed)
        n_atoms = int(sizes.integers(2, 13))
        n_blocks = int(sizes.integers(1, n_atoms + 1))
        specs.append((child_seed, n_atoms, n_blocks, PROFILES[i % len(PROFILES)]))
    accepted = _well_conditioned_draws(specs, tol)
    t = scenario.operator()
    by_size = {t.space.n_atoms: [(0, table_part(t), scenario.phi, seed, t)]}
    # the gauges of the rotation, and their conjugates, built once per call
    shared = {}
    for i, (draw, spec) in enumerate(zip(accepted, specs), 1):
        # generate_well_conditioned_instance, the one builder of a
        # well-conditioned instance (a trace counts its calls as the suite's
        # accepted instances), takes the accepted draw from the shared dict.
        # Its seed rebuilds the instance that ran, and its claims sample
        # with it
        shared[(draw.seed, *spec[1:], tol)] = draw
        child = generate_well_conditioned_instance(draw.seed, *spec[1:], tol, shared)
        fingerprints.append(child.fingerprint())
        row = i, draw[3:], child.phi, draw.seed, None
        by_size.setdefault(spec[1], []).append(row)
    for n in list(by_size):
        index, parts, phis, seeds, ops = zip(*by_size.pop(n))
        yield np.array(index), OperatorTable(parts, phis, ops), np.array(seeds)


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
    fingerprints = [dict(fp)]
    # each claim id's report row, or its (instance indices, column) parts,
    # in group order; the groups of _GROUPS run on the scenario only
    entries = {
        cid: [] for group in scenario.experiments for cid in EXPERIMENT_CLAIMS[group]
    }
    for name in scenario.experiments:
        if name in _GROUPS:
            for row in _GROUPS[name](scenario, scenario.operator(), seed):
                entries[row.claim_id] = fold_row(row, fingerprints[0])
    # the random instances are drawn even when no batch group asks for
    # them, so a suite that cannot draw one is an input error either way
    batch = [name for name in _BATCH_GROUPS if name in scenario.experiments]
    for index, tab, seeds in _tables(scenario, seed, instances, fingerprints):
        for name in batch:
            for column in _BATCH_GROUPS[name](tab, seeds, scenario.tolerances):
                entries[column.claim_id].append((index, column))
    for cid, parts in entries.items():
        if isinstance(parts, list):
            entries[cid] = fold_claims(parts, fingerprints.__getitem__)
    return VerificationReport(
        entries=list(entries.values()),
        fingerprint=fp,
        version=__version__,
        generated_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )


def emit_report(report: VerificationReport, format: str = "json", path=None) -> str:
    """Render a report as JSON, the bytes of ``to_dict()``, or a text table."""
    if format == "json":
        text = json.dumps(report, default=vars, sort_keys=True, indent=2)
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
