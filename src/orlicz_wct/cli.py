"""Command line front end: norm, gch, ascent, cesaro, verify, random.

The environment variable ORLICZ_WCT_SEED overrides --seed everywhere so CI
runs can pin reproducibility without editing command lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .condexp import CondExp, gch_constant_report
from .harness import (
    PROFILES,
    ScenarioError,
    emit_report,
    generate_random_instance,
    load_scenario,
    run_verification,
    scenario_to_dict,
)
from .orlicz import luxemburg_norm, modular
from .subspace import ascent_of
from .wct import _direct_sums, b_n_operator, cesaro_mean, iterate, matrix_of
from .young import complementary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-wct",
        description="Verification toolkit for weighted conditional operators "
        "on finite atomic Orlicz spaces.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument(
        "--tol-rank", type=float, default=None, help="override rank tolerance"
    )
    common.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
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
        "gch", parents=[common], help="empirical conditional Hoelder constant"
    )
    p.add_argument("--scenario", required=True)
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser(
        "ascent", parents=[common], help="ascent/descent of the scenario operator"
    )
    p.add_argument("--scenario", required=True)
    p.add_argument("--k-max", type=int, default=8)

    p = sub.add_parser(
        "cesaro", parents=[common], help="Cesaro mean, remainder operator, residuals"
    )
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("direct", "closed_form", "both"), default="both")

    p = sub.add_parser("verify", parents=[common], help="full verification suite")
    p.add_argument("--scenario", required=True)
    p.add_argument("--instances", type=int, default=0)
    p.add_argument("--output", default=None, help="also write the report here")

    p = sub.add_parser("random", parents=[common], help="generate a random scenario")
    p.add_argument("--n-atoms", type=int, default=8)
    p.add_argument("--n-blocks", type=int, default=3)
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
    scenario = _apply_overrides(load_scenario(args.scenario), args)
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
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    e = CondExp(scenario.space, scenario.partition)
    psi = complementary(scenario.phi)
    value, detail = gch_constant_report(
        e, scenario.phi, psi, samples=args.samples, seed=args.seed
    )
    _emit(detail if args.format == "json" else {
        "empirical_constant": value,
        "worst_f": detail["worst_f"],
        "worst_g": detail["worst_g"],
        "label": detail["label"],
    }, args.format)
    return 0


def _cmd_ascent(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    t = scenario.operator()
    m = matrix_of(t)
    tol = scenario.tolerances["rank"]
    a = ascent_of(m, k_max=args.k_max, tol=tol)
    # by rank-nullity the kernel and range chains of a square matrix
    # stabilize together, so the descent is the ascent
    stable = a if a is not None else f"exceeds k_max={args.k_max}"
    payload = {
        "ascent": stable,
        "descent": stable,
        "claims": {"ascent_bound": "pass" if a is not None and a <= 2 else "fail"},
    }
    _emit(payload, args.format)
    return 0 if all(v == "pass" for v in payload["claims"].values()) else 1


def _cmd_cesaro(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    t = scenario.operator()
    n = args.n
    eye = np.eye(scenario.space.n_atoms)
    m = matrix_of(t)
    modes = ("direct", "closed_form") if args.mode == "both" else (args.mode,)
    if n < 1:
        raise ValueError("n must be >= 1")
    a_walk, b_walk = _direct_sums(t, (n, n + 1), (n,) if n >= 2 else ())
    a_n, a_next = a_walk[n], a_walk[n + 1]
    payload: dict = {"n": n}
    for mode in modes:
        direct = mode == "direct"
        payload[f"a_n_{mode}"] = (a_n if direct else cesaro_mean(t, n, mode)).tolist()
        if n >= 2:
            b_n = b_walk[n] if direct else b_n_operator(t, n, mode)
            payload[f"b_n_{mode}"] = b_n.tolist()
    tn = iterate(t, n, "direct")
    payload["residuals"] = {
        "power_over_n_identity": float(
            np.max(np.abs(tn / n - ((n + 1) / n) * a_next + a_n))
        ),
        "telescoping_identity": float(
            np.max(np.abs((eye - m) @ a_n - (eye - tn) / n))
        ),
    }
    if n >= 2:
        payload["residuals"]["remainder_factorization_identity"] = float(
            np.max(np.abs(eye - a_n - (eye - m) @ b_walk[n]))
        )
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"n = {n}")
        for mode in modes:
            print(f"A_n ({mode}):")
            print(np.asarray(payload[f"a_n_{mode}"]))
            if n >= 2:
                print(f"B_n ({mode}):")
                print(np.asarray(payload[f"b_n_{mode}"]))
        for key, val in payload["residuals"].items():
            print(f"{key}: {val:.3e}")
    return 0


def _cmd_verify(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    report = run_verification(scenario, seed=args.seed, instances=args.instances)
    print(emit_report(report, format=args.format, path=args.output))
    return report.exit_status


def _cmd_random(args) -> int:
    scenario = generate_random_instance(
        args.seed, args.n_atoms, args.n_blocks, args.profile
    )
    text = json.dumps(scenario_to_dict(scenario), sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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
    env_seed = os.environ.get("ORLICZ_WCT_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"ignoring non-integer ORLICZ_WCT_SEED={env_seed!r}", file=sys.stderr)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
