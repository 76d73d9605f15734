"""Command line front end: norm, gch, ascent, cesaro, verify, random.

Each subcommand takes only the flags its path reads: --seed belongs to
verify, gch and random, --tol-rank to verify and ascent, and --format to all
but random, which always prints the scenario as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .claims import make_claim, overflow_claim
from .condexp import CondExp, gch_constant_report
from .harness import (
    MAX_RANDOM_ATOMS,
    PROFILES,
    ScenarioError,
    emit_report,
    generate_random_instance,
    identity_residuals,
    load_scenario,
    run_verification,
    scenario_to_dict,
)
from .orlicz import luxemburg_norm, modular
from .subspace import ascent_of
from .wct import BlockWalk, b_n_operator, cesaro_mean


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high], rejected at parse time with
    exit 2 and a message naming the flag."""

    def int_in(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    int_in.__name__ = "int"
    return int_in


def _rank_tolerance(text: str) -> float:
    """argparse type: a rank tolerance, a finite number in (0, 1), rejected
    at parse time with exit 2 and a message naming the flag. At 1 or more
    the relative cut reads every subspace sum as 0-dimensional."""
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    if value >= 1:
        raise argparse.ArgumentTypeError(f"must be < 1, got {text}")
    return value


_rank_tolerance.__name__ = "float"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-wct",
        description="Verification toolkit for weighted conditional operators "
        "on finite atomic Orlicz spaces.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="master seed")
    ranked = argparse.ArgumentParser(add_help=False)
    ranked.add_argument(
        "--tol-rank",
        type=_rank_tolerance,
        default=None,
        help="override rank tolerance, in (0, 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", parents=[common], help="Luxemburg norm of a function")
    p.add_argument("--scenario", required=True)
    p.add_argument(
        "--function",
        required=True,
        help="JSON list of values, or 'u'/'w' to use a scenario field",
    )

    p = sub.add_parser(
        "gch", parents=[common, seeded], help="empirical conditional Hoelder constant"
    )
    p.add_argument("--scenario", required=True)
    p.add_argument("--samples", type=_int_in(1), default=200)

    p = sub.add_parser(
        "ascent",
        parents=[common, ranked],
        help="ascent/descent of the scenario operator",
    )
    p.add_argument("--scenario", required=True)
    p.add_argument("--k-max", type=_int_in(1), default=8)

    p = sub.add_parser(
        "cesaro", parents=[common], help="Cesaro mean, remainder operator, residuals"
    )
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=_int_in(1), required=True)
    p.add_argument("--mode", choices=("direct", "closed_form", "both"), default="both")

    p = sub.add_parser(
        "verify", parents=[common, seeded, ranked], help="full verification suite"
    )
    p.add_argument("--scenario", required=True)
    p.add_argument("--instances", type=_int_in(0), default=0)
    p.add_argument("--output", default=None, help="also write the report here")

    p = sub.add_parser("random", parents=[seeded], help="generate a random scenario")
    p.add_argument("--n-atoms", type=_int_in(1, MAX_RANDOM_ATOMS), default=8)
    p.add_argument("--n-blocks", type=_int_in(1), default=3)
    p.add_argument("--profile", choices=PROFILES, default="generic")
    p.add_argument("--output", default=None, help="write the scenario here")
    return parser


def _apply_overrides(scenario, args):
    tolerances = dict(scenario.tolerances)
    if args.tol_rank is not None:
        tolerances["rank"] = args.tol_rank
    return dataclasses.replace(scenario, tolerances=tolerances)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")


def _cmd_norm(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.function == "u":
        f = scenario.u
    elif args.function == "w":
        f = scenario.w
    else:
        try:
            values = json.loads(args.function)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"--function must be 'u', 'w', or a JSON list: {exc.msg}"
            ) from exc
        try:
            f = scenario.space.function(values)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    ctx = scenario.context()
    norm = luxemburg_norm(ctx, f)
    payload = {
        "norm": norm,
        "modular_at_norm": modular(ctx, f / norm) if norm > 0 else 0.0,
    }
    _emit(payload, args.format)
    return 0


def _cmd_gch(args) -> int:
    scenario = load_scenario(args.scenario)
    e = CondExp(scenario.space, scenario.partition)
    value, detail = gch_constant_report(e, scenario.phi, args.samples, args.seed)
    _emit(detail if args.format == "json" else {
        "empirical_constant": value,
        "worst_f": detail["worst_f"],
        "worst_g": detail["worst_g"],
        "label": detail["label"],
    }, args.format)
    return 0


def _cmd_ascent(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    tol = scenario.tolerances["rank"]
    # the per-block rank chain of verify's ascent_bound row, with its
    # overflow cut: a power that overflowed leaves the bound not checked
    try:
        a = ascent_of(scenario.operator(), k_max=args.k_max, tol=tol)
    except OverflowError:
        row, stable = overflow_claim("ascent_bound"), None
    else:
        row = make_claim("ascent_bound", "none", a is not None and a <= 2)
        # by rank-nullity the kernel and range chains of a square matrix
        # stabilize together, so the descent is the ascent
        stable = a if a is not None else f"exceeds k_max={args.k_max}"
    payload = {"ascent": stable, "descent": stable}
    payload["claims"] = {"ascent_bound": row.status}
    if row.status == "not_checked":
        payload["not_checked"] = {"ascent_bound": row.detail}
    _emit(payload, args.format)
    return 1 if row.status == "fail" else 0


def _cmd_cesaro(args) -> int:
    scenario = load_scenario(args.scenario)
    t = scenario.operator()
    n = args.n
    modes = ("direct", "closed_form") if args.mode == "both" else (args.mode,)
    payload: dict = {"n": n}
    # an overflowing power walks on as inf and NaN, as in verify's iterate
    # and Cesaro groups
    with np.errstate(over="ignore", invalid="ignore"):
        walk = BlockWalk(t, (n, n + 1), (n,) if n >= 2 else (), (n,))
        for mode in modes:
            direct = mode == "direct"
            a_n = walk.unpack(walk.a[n]) if direct else cesaro_mean(t, n)
            payload[f"a_n_{mode}"] = a_n
            if n >= 2:
                b_n = walk.unpack(walk.b[n]) if direct else b_n_operator(t, n)
                payload[f"b_n_{mode}"] = b_n
        residuals = identity_residuals(walk, (n,))[n]
    # a residual that is not finite is not checked, and JSON prints null
    finite = {c: v for c, v in residuals.items() if np.isfinite(v)}
    payload["residuals"] = {c: finite.get(c) for c in residuals}
    skipped = {c: overflow_claim(c).detail for c in residuals if c not in finite}
    if skipped:
        payload["not_checked"] = skipped
    if args.format == "json":
        for key, value in payload.items():
            if isinstance(value, np.ndarray):
                payload[key] = np.where(np.isfinite(value), value, None).tolist()
        print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    else:
        print(f"n = {n}")
        for mode in modes:
            print(f"A_n ({mode}):")
            print(payload[f"a_n_{mode}"])
            if n >= 2:
                print(f"B_n ({mode}):")
                print(payload[f"b_n_{mode}"])
        for key, val in residuals.items():
            print(f"{key}: {skipped[key]}" if key in skipped else f"{key}: {val:.3e}")
    return 0


def _cmd_verify(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    report = run_verification(scenario, seed=args.seed, instances=args.instances)
    try:
        text = emit_report(report, format=args.format, path=args.output)
    except OSError as exc:
        raise ScenarioError(f"cannot write --output: {exc}") from exc
    print(text)
    return report.exit_status


def _cmd_random(args) -> int:
    scenario = generate_random_instance(
        args.seed, args.n_atoms, args.n_blocks, args.profile
    )
    text = json.dumps(scenario_to_dict(scenario), sort_keys=True, indent=2)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ScenarioError(f"cannot write --output: {exc}") from exc
    print(text)
    return 0


_COMMANDS = {
    "norm": _cmd_norm,
    "gch": _cmd_gch,
    "ascent": _cmd_ascent,
    "cesaro": _cmd_cesaro,
    "verify": _cmd_verify,
    "random": _cmd_random,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "random" and args.n_blocks > args.n_atoms:
        _build_parser().error("argument --n-blocks: must be <= --n-atoms")
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
