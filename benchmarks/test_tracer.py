"""Tests for the benchmark's tracer: restoration, self time, repeatable counts."""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import orlicz_wct  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from orlicz_wct import condexp, harness, orlicz, wct  # noqa: E402


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def _bindings():
    """Every attribute of every orlicz_wct module, plus the patched extras."""
    out = {}
    for key, module in sys.modules.items():
        if key == "orlicz_wct" or key.startswith("orlicz_wct."):
            for attr, value in vars(module).items():
                out[(key, attr)] = value
    out["svd"] = np.linalg.svd
    out["matrix"] = condexp.CondExp.__dict__["matrix"]
    out["young_init"] = orlicz_wct.YoungFunction.__dict__["__init__"]
    return out


def test_traced_run_restores_every_patched_name():
    before = _bindings()
    path = ROOT / "scenarios" / "r3_contracting.json"
    argv = ("verify", "--scenario", str(path), "--instances", "2", "--seed", "3",
            "--format", "json")
    wl = workloads.Workload("r3_two_instances", 3, 2, path, argv)
    with tracer.Tracer() as tr:
        original = before[("orlicz_wct.orlicz", "luxemburg_norms")]
        assert orlicz.luxemburg_norms is not original
        code, _ = workloads.call_verify(wl)
    assert code == 0
    patched = {(owner.__name__, attr) for owner, attr, _ in tr.patched}
    # luxemburg_norms is bound in three module namespaces; each gets a wrapper
    for module in (orlicz, wct, harness):
        assert (module.__name__, "luxemburg_norms") in patched
    assert ("numpy.linalg", "svd") in patched
    assert ("CondExp", "matrix") in patched
    for owner, attr, original in tr.patched:
        assert owner.__dict__[attr] is original
    assert _same(_bindings(), before)
    assert tr.spans and all(end >= start for _, start, end, _ in tr.spans)


def test_restores_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert _same(_bindings(), before)


def test_self_time_on_a_nested_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b", 6.0, 8.0, 3],  # recursion: same name nested in itself
        ["c", 3.5, 6.0, 0],  # overlaps a and b; covered time is a union
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 2.0, 2.0, 2.5])
    summary = tracer.summarize(spans, {"b.extra": 7})
    assert summary["root.self_s"] == pytest.approx(2.0)
    assert summary["b.self_s"] == pytest.approx(4.0)
    assert summary["b.busy_s"] == pytest.approx(4.0)  # outermost b only
    assert summary["b.calls"] == 2
    assert summary["leaf.busy_s"] == pytest.approx(1.0)
    assert summary["b.extra"] == 7


def test_suite200_span_counts_repeat_at_a_fixed_seed(tmp_path):
    wl = workloads.build("suite200", 1, ROOT, tmp_path)
    counts = []
    for _ in range(2):
        with tracer.Tracer() as tr:
            code, _ = workloads.call_verify(wl)
        assert code == 0
        summary = tracer.summarize(tr.spans, tr.counters)
        counts.append({k: v for k, v in summary.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["harness.generate_well_conditioned_instance.calls"] == 200
    assert counts[0]["subspace.svd.calls"] > 0
