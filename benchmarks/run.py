"""End-to-end benchmark of ``orlicz-wct verify`` on seeded workloads.

    python3 benchmarks/run.py --workload suite200 --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. Each run is one process with one BLAS thread. It sets
up the workload (imports, then building and loading its scenario file),
makes one untimed warm-up call of ``orlicz_wct.cli.main(["verify", ...])``,
then times further calls until ``--seconds`` have passed since the warm-up
started (at least three timed calls).

Every call must exit 0 and give a report whose JSON, without
``generated_at``, is byte-identical to the warm-up's; the warm-up report
must also pass the known-answer checks in ``workloads.check_report``.

``--trace 0`` prints the end-to-end metrics: setup_s (median of seven
set-ups, six of them in fresh interpreters), verify_s (median seconds per
call), peak_rss_mb and claim_pass_share. ``--trace 1`` alternates traced
and untraced calls (at least two pairs) and prints per-layer metrics per
call (medians for times) plus the tracing overhead, the median of traced
minus untraced seconds over the pairs. The last line of stdout is the result
JSON; the line before it records the environment, the sample counts and
quartiles, and the report digest.
"""

import os

# Before numpy is imported here or in a set-up probe: one BLAS thread, and
# no ORLICZ_WCT_SEED, which would override --seed inside cli.main.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ORLICZ_WCT_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("suite200", "primary64", "wide256")
SETUP_SAMPLES = 7
MIN_TIMED_CALLS = 3
MIN_TRACE_PAIRS = 2

# per-layer metric -> (unit, key in the per-call trace summary)
PER_LAYER = {
    "harness.run_verification.self_s": ("s", "harness.run_verification.self_s"),
    "harness.emit_report.busy_s": ("s", "harness.emit_report.busy_s"),
    "harness.draws": ("count", "harness.generate_random_instance.calls"),
    "harness.accepted": ("count", "harness.generate_well_conditioned_instance.calls"),
    "harness.accepted_draw_ratio": ("share", None),
    "young.complementary.calls": ("count", "young.complementary.calls"),
    "young.complementary.busy_s": ("s", "young.complementary.busy_s"),
    "young.constructions": ("count", "young.YoungFunction.calls"),
    "young.generalized_inverse.calls": ("count", "young.generalized_inverse.calls"),
    "young.generalized_inverse.elements": (
        "count",
        "young.generalized_inverse.elements",
    ),
    "young.generalized_inverse.busy_s": ("s", "young.generalized_inverse.busy_s"),
    "young.generalized_inverse.self_s": ("s", "young.generalized_inverse.self_s"),
    "young.generalized_inverse.hint_share": ("share", None),
    "orlicz.luxemburg_norms.calls": ("count", "orlicz.luxemburg_norms.calls"),
    "orlicz.luxemburg_norms.columns": ("count", "orlicz.luxemburg_norms.columns"),
    "orlicz.luxemburg_norms.self_s": ("s", "orlicz.luxemburg_norms.self_s"),
    "orlicz.luxemburg_norms.columns_per_s": ("1/s", None),
    "orlicz.luxemburg_norm.calls": ("count", "orlicz.luxemburg_norm.calls"),
    "orlicz.luxemburg_norm.busy_s": ("s", "orlicz.luxemburg_norm.busy_s"),
    "condexp.cond_exp.calls": ("count", "condexp.cond_exp.calls"),
    "condexp.cond_exp.busy_s": ("s", "condexp.cond_exp.busy_s"),
    "condexp.CondExp.matrix.builds": ("count", "condexp.CondExp.matrix.calls"),
    "condexp.CondExp.matrix.busy_s": ("s", "condexp.CondExp.matrix.busy_s"),
    "condexp.check_condexp_laws.self_s": ("s", "condexp.check_condexp_laws.self_s"),
    "condexp.gch_constant_report.self_s": ("s", "condexp.gch_constant_report.self_s"),
    "wct.matrix_of.calls": ("count", "wct.matrix_of.calls"),
    "wct.matrix_of.busy_s": ("s", "wct.matrix_of.busy_s"),
    "wct.power_bounded_report.self_s": ("s", "wct.power_bounded_report.self_s"),
    "wct.iterate.busy_s": ("s", "wct.iterate.busy_s"),
    "wct.cesaro_mean.busy_s": ("s", "wct.cesaro_mean.busy_s"),
    "wct.b_n_operator.busy_s": ("s", "wct.b_n_operator.busy_s"),
    "subspace.verify_structure_theorems.self_s": (
        "s",
        "subspace.verify_structure_theorems.self_s",
    ),
    "subspace.powers_well_conditioned.calls": (
        "count",
        "subspace.powers_well_conditioned.calls",
    ),
    "subspace.powers_well_conditioned.busy_s": (
        "s",
        "subspace.powers_well_conditioned.busy_s",
    ),
    "subspace.svd.calls": ("count", "subspace.svd.calls"),
    "subspace.svd.busy_s": ("s", "subspace.svd.busy_s"),
    "trace.spans": ("count", None),
    "trace.overhead_s": ("s", None),
    "trace.untraced_verify_s": ("s", None),
}


def timed_setup(name: str, seed: int):
    """Import the program from this checkout and build the workload; returns
    (workloads module, workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import orlicz_wct
    import workloads

    package = Path(orlicz_wct.__file__).resolve().parent
    if package != ROOT / "src" / "orlicz_wct":
        raise RuntimeError(f"orlicz_wct imported from {package}, not this checkout")
    workload = workloads.build(name, seed, ROOT, OUT_DIR)
    return workloads, workload, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Session:
    """The warm-up reference and the checks every later call must pass."""

    def __init__(self, wl_module, workload):
        self.wl, self.workload = wl_module, workload
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        code, stdout, _ = self.call()
        try:
            self.report, self.digest = wl_module.report_digest(stdout)
        except ValueError:
            self.report, self.digest = {"entries": []}, None
            self.problems.append("warm-up call printed no report JSON")
        else:
            self.problems += wl_module.check_report(workload, self.report)

    def call(self) -> tuple[int, str, float]:
        self.attempted += 1
        start = time.perf_counter()
        try:
            code, stdout = self.wl.call_verify(self.workload)
        except Exception as exc:  # a crash is a failed call, not a lost run
            code, stdout = -1, ""
            self.problems.append(f"verify raised {exc!r}")
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.problems.append(f"verify exited {code}")
        return code, stdout, elapsed

    def timed(self) -> float:
        code, stdout, elapsed = self.call()
        if code == 0 and self.wl.report_digest(stdout)[1] != self.digest:
            self.failed += 1
            self.problems.append("report differs from the warm-up report")
        return elapsed


def _keep_going(durations: list[float], minimum: int, deadline: float) -> bool:
    """Another round fits: fewer than ``minimum`` so far, or the median round
    still ends before the deadline."""
    return len(durations) < minimum or time.perf_counter() + statistics.median(
        durations
    ) <= deadline


def run_untraced(session: Session, deadline: float) -> list[float]:
    times: list[float] = []
    while _keep_going(times, MIN_TIMED_CALLS, deadline):
        times.append(session.timed())
    return times


def run_traced(session: Session, deadline: float):
    """Pairs of one traced call, with a fresh tracer, and one untraced call, so
    that drift in machine speed hits both alike. Returns (pairs of seconds,
    per-call summaries, the first call's tracer)."""
    import tracer

    pairs, summaries, first = [], [], None
    while _keep_going([t + u for t, u in pairs], MIN_TRACE_PAIRS, deadline):
        with tracer.Tracer() as tr:
            traced = session.timed()
        if any(owner.__dict__[attr] is not orig for owner, attr, orig in tr.patched):
            raise RuntimeError("tracer left a wrapper installed")
        pairs.append((traced, session.timed()))
        summaries.append(tracer.summarize(tr.spans, tr.counters))
        summaries[-1]["trace.spans"] = len(tr.spans)
        first = first or tr
    return pairs, summaries, first


def layer_metrics(summaries: list[dict], overhead: float, untraced: float) -> dict:
    def median(key):
        return statistics.median(s.get(key, 0) for s in summaries)

    values = {}
    for name, (unit, key) in PER_LAYER.items():
        if key is not None:
            values[name] = median(key)
    draws = values["harness.draws"]
    values["harness.accepted_draw_ratio"] = (
        values["harness.accepted"] / draws if draws else 0.0
    )
    calls = values["young.generalized_inverse.calls"]
    values["young.generalized_inverse.hint_share"] = (
        median("young.generalized_inverse.hint_calls") / calls if calls else 0.0
    )
    busy = median("orlicz.luxemburg_norms.busy_s")
    values["orlicz.luxemburg_norms.columns_per_s"] = (
        values["orlicz.luxemburg_norms.columns"] / busy if busy else 0.0
    )
    values["trace.spans"] = median("trace.spans")
    values["trace.overhead_s"] = overhead
    values["trace.untraced_verify_s"] = untraced
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}


def counts_repeat(summaries: list[dict]) -> bool:
    """Every count-valued entry is identical across the traced calls."""
    keys = {k for s in summaries for k in s if not k.endswith("_s")}
    return all(len({s.get(k) for s in summaries}) == 1 for k in keys)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set up, then print the set-up seconds (used for setup_s)",
    )
    args = parser.parse_args(argv)

    try:
        wl_module, workload, setup_s = timed_setup(args.workload, args.seed)
    except (ImportError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: cannot set up {args.workload}: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    start = time.perf_counter()
    session = Session(wl_module, workload)
    deadline = start + args.seconds
    info = {"env": environment(), "workload": args.workload, "seed": args.seed,
            "report_sha256": session.digest}
    if args.trace:
        pairs, summaries, tr = run_traced(session, deadline)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tr.dump(OUT_DIR / f"spans-{args.workload}.json")
        if not counts_repeat(summaries):
            session.problems.append("span counts differ between traced calls")
        overhead = statistics.median(t - u for t, u in pairs)
        untraced = statistics.median(u for _, u in pairs)
        metrics = layer_metrics(summaries, overhead, untraced)
        info.update(trace_pairs=len(pairs))
    else:
        times = run_untraced(session, deadline)
        setups = [setup_s] + [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        q1, q2, q3 = statistics.quantiles(times, n=4)
        info.update(verify_s_samples=len(times), verify_s_quartiles=[q1, q2, q3],
                    setup_s_samples=setups)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "verify_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "claim_pass_share": {
                "value": wl_module.claim_pass_share(session.report), "unit": "share"
            },
        }
    info["problems"] = session.problems
    print(json.dumps(info))
    print(json.dumps({
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
