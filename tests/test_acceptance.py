"""Acceptance suite: every top-level guarantee at its pinned tolerance.

Each test prints one ``[criterion NN] PASS`` line (visible with ``-s`` or in
the captured output of failures). Random suites re-draw instances whose
operator powers carry singular values too close to a rank threshold to
classify; those re-draws are part of the instance distribution, not of the
checks themselves.

Criterion 8 note: the remainder operators B_n, defined by
I - A_n = (I - T) B_n, satisfy exactly
B_n - (I-T)^(-1) = -(I-T)^(-2) (I - T^n) / n whenever I - T is invertible,
so they converge to (I - T)^(-1) at rate O(1/n). Criterion 08 checks this
identity at n = 200 and n = 400 and the halving of the gap between them.
"""

import dataclasses

import numpy as np
import pytest

from orlicz_wct import (
    CondExp,
    OrliczContext,
    b_n_operator,
    bound_constant,
    capped,
    cesaro_mean,
    check_condexp_laws,
    complementary,
    cond_exp,
    deadzone,
    ess_sup,
    exp_type,
    gch_constant_report,
    generalized_inverse,
    generate_random_instance,
    iterate,
    luxemburg_norms,
    matrix_of,
    power_bounded_report,
    power_plain,
    power_scaled,
    support,
)
from orlicz_wct.harness import PROFILES, Scenario, generate_well_conditioned_instance

from oracles import meet_dim, power_threshold, power_walk, range_null, sum_dim

RANK_TOL = 1e-8


def ok(num, text):
    print(f"[criterion {num:02d}] PASS - {text}")


def draw(seed, profile, max_atoms=16):
    sizes = np.random.default_rng(seed)
    n_atoms = int(sizes.integers(2, max_atoms + 1))
    n_blocks = int(sizes.integers(1, n_atoms + 1))
    return generate_well_conditioned_instance(seed, n_atoms, n_blocks, profile)


def dense_ranks(m, k_max=6):
    """Ranks of m^0..m^k_max: np.linalg.svd of each sequential dense power,
    cut at its power threshold; independent of the structure pass, which
    reads the chain from the block spectrum."""
    n = m.shape[0]
    base = float(np.linalg.norm(m, 2))
    ranks, power = [n], np.eye(n)
    for k in range(1, k_max + 1):
        power = power @ m
        sv = np.linalg.svd(power, compute_uv=False)
        ranks.append(int(np.sum(sv > power_threshold(sv, base, k, RANK_TOL))))
    return ranks


def rescaled_symbol_cap(scenario: Scenario, cap: float) -> Scenario:
    """Rescale w so that sup|h| <= cap; identity when already below."""
    e = CondExp(scenario.space, scenario.partition)
    h_sup = ess_sup(cond_exp(e, scenario.u * scenario.w))
    if h_sup <= cap:
        return scenario
    return dataclasses.replace(scenario, w=scenario.w * (cap / h_sup))


@pytest.fixture(scope="session")
def bounded_away_instances():
    """500 instances whose symbol stays >= 1e-6 in modulus on its support."""
    out = []
    i = 0
    while len(out) < 500:
        profile = PROFILES[len(out) % len(PROFILES)]
        s = draw(10_000 + 17 * i, profile)
        i += 1
        t = s.operator()
        supp = support(t.h, 1e-12)
        if supp and min(abs(t.h[j]) for j in supp) < 1e-6:
            continue
        out.append((s, t))
    return out


def test_criterion_01_ascent_bound():
    """Ascent <= 2 and kernel-chain stabilization on 1000 mixed instances."""
    worst = 0
    for i in range(1000):
        s = draw(1_000 + i, PROFILES[i % len(PROFILES)])
        m = matrix_of(s.operator())
        n = m.shape[0]
        dims = [n - r for r in dense_ranks(m)]
        ascent = next(k for k in range(6) if dims[k] == dims[k + 1])
        assert ascent <= 2, (s.fingerprint(), dims)
        assert all(dims[2] == dims[2 + j] for j in range(1, 5)), (
            s.fingerprint(),
            dims,
        )
        worst = max(worst, ascent)
    ok(1, f"ascent <= 2 on 1000 instances across all profiles (max seen {worst})")


def test_criterion_02_iterate_closed_form():
    """Direct and symbol-power iterates agree for n <= 6 on 100 instances."""
    worst = 0.0
    for i in range(100):
        sizes = np.random.default_rng(2_000 + i)
        n_atoms = int(sizes.integers(2, 17))
        s = generate_random_instance(
            2_000 + i,
            n_atoms,
            int(sizes.integers(1, n_atoms + 1)),
            PROFILES[i % len(PROFILES)],
        )
        t = s.operator()
        for n in range(1, 7):
            direct = np.linalg.matrix_power(matrix_of(t), n)
            closed = iterate(t, n)
            gap = float(np.max(np.abs(direct - closed)))
            bound = 1e-9 * (1.0 + float(np.max(np.abs(direct))))
            assert gap <= bound, (s.fingerprint(), n, gap, bound)
            worst = max(worst, gap / bound)
    ok(2, f"iterate closed form within 1e-9 scaled on 100 instances (worst {worst:.2e})")


def test_criterion_03_descent_bound(bounded_away_instances):
    """Descent <= 2 and range-chain stabilization when |h| >= 1e-6 on S(h)."""
    for s, t in bounded_away_instances:
        m = matrix_of(t)
        ranks = dense_ranks(m)
        descent = next(k for k in range(6) if ranks[k] == ranks[k + 1])
        assert descent <= 2, (s.fingerprint(), ranks)
        assert all(ranks[2 + j] == ranks[2] for j in range(1, 5)), (
            s.fingerprint(),
            ranks,
        )
    ok(3, "descent <= 2 with stable range chain on 500 bounded-away instances")


def test_criterion_04_decompositions(bounded_away_instances):
    """Intersection and sum decompositions on the same 500 instances."""
    for s, t in bounded_away_instances:
        m = matrix_of(t)
        n = m.shape[0]
        smax = float(np.linalg.norm(m, 2))

        def bases(k):
            power = np.linalg.matrix_power(m, k)
            u, sv, vh = np.linalg.svd(power)
            thr = power_threshold(sv, smax, k, RANK_TOL)
            rank = int(np.sum(sv > thr))
            return u[:, :rank], vh[rank:].T

        r2, n2 = bases(2)
        for mm in range(1, 5):
            _, null_m = bases(mm)
            assert meet_dim(r2, null_m, RANK_TOL) == 0, s.fingerprint()
        for nn in range(1, 5):
            rng_n, _ = bases(nn)
            assert sum_dim(rng_n, n2, RANK_TOL) == n, s.fingerprint()
        mh = t.h[:, None] * m
        u_mh, sv_mh, vh_mh = np.linalg.svd(mh)
        thr = power_threshold(sv_mh, smax, 2, RANK_TOL)
        rank = int(np.sum(sv_mh > thr))
        rs, ns = u_mh[:, :rank], vh_mh[rank:].T
        assert sum_dim(rs, ns, RANK_TOL) == n, s.fingerprint()
        assert sum_dim(r2, n2, RANK_TOL) == n, s.fingerprint()
    ok(4, "trivial intersections and full-space sums on 500 instances")


def test_criterion_05_norm_bound():
    """N(Tf) <= (C_emp * M + 1e-6) N(f) on 100 instances, 1000 samples each."""
    rng = np.random.default_rng(77)
    worst_margin = np.inf
    for i in range(100):
        s = draw(5_000 + 13 * i, PROFILES[i % len(PROFILES)], max_atoms=12)
        t = s.operator()
        c_emp = gch_constant_report(t.e, s.phi, samples=200, seed=i)[0]
        if c_emp == 0.0:
            continue  # operator is zero on every sampled pair
        bound = bound_constant(t, s.phi, c_emp) + 1e-6
        ctx = OrliczContext(s.space, s.phi)
        fs = rng.uniform(-3.0, 3.0, (s.space.n_atoms, 1000))
        base = luxemburg_norms(ctx, fs)
        keep = base > 0
        ratios = luxemburg_norms(ctx, matrix_of(t) @ fs[:, keep]) / base[keep]
        top = float(np.max(ratios, initial=0.0))
        assert top <= bound, (s.fingerprint(), top, bound)
        worst_margin = min(worst_margin, bound - top)
    ok(5, f"norm bound held on 100 instances (smallest margin {worst_margin:.3e})")


def test_criterion_06_power_boundedness():
    """Contracting symbols never grow, expanding ones grow tenfold by n=50."""
    checked = 0
    for i in range(30):
        s = draw(6_000 + i, "contracting_h", max_atoms=12)
        t = s.operator()
        rep = power_bounded_report(t, s.phi, n_max=50, samples=32, seed=i)
        assert rep.criterion_holds, s.fingerprint()
        assert rep.sup_norm_estimate <= rep.norm_estimates[0] + 1e-6, s.fingerprint()
        assert rep.horizon_equivalence_ok, s.fingerprint()
        checked += 1
    for i in range(30):
        s = draw(6_500 + i, "expanding_h", max_atoms=12)
        t = s.operator()
        rep = power_bounded_report(t, s.phi, n_max=50, samples=32, seed=i)
        assert not rep.criterion_holds, s.fingerprint()
        assert rep.norm_estimates[-1] >= 10.0 * rep.norm_estimates[0], s.fingerprint()
        assert rep.horizon_equivalence_ok, s.fingerprint()
        checked += 1
    for i in range(20):
        s = draw(6_800 + i, "generic", max_atoms=12)
        t = s.operator()
        rep = power_bounded_report(t, s.phi, n_max=50, samples=16, seed=i)
        assert rep.horizon_equivalence_ok, s.fingerprint()
        checked += 1
    ok(6, f"power-boundedness criterion and horizon growth on {checked} instances")


def test_criterion_07_cesaro_identities():
    """All three mean identities and both closed forms within 1e-10 absolute.

    Instance symbols are capped at 1.3 in sup norm so that twenty-step
    iterates stay within the float budget of an absolute 1e-10 bound.
    """
    worst = 0.0
    for i in range(100):
        sizes = np.random.default_rng(7_000 + i)
        n_atoms = int(sizes.integers(2, 17))
        s = rescaled_symbol_cap(
            generate_random_instance(
                7_000 + i,
                n_atoms,
                int(sizes.integers(1, n_atoms + 1)),
                PROFILES[i % len(PROFILES)],
            ),
            cap=1.3,
        )
        t = s.operator()
        dim = s.space.n_atoms
        eye = np.eye(dim)
        m = matrix_of(t)
        a_walk, b_walk, _ = power_walk(t, range(1, 22), range(2, 21))
        for n in range(1, 21):
            a_direct = a_walk[n]
            gaps = [np.max(np.abs(a_direct - cesaro_mean(t, n)))]
            tn = np.linalg.matrix_power(m, n)
            a_next = a_walk[n + 1]
            gaps.append(np.max(np.abs(tn / n - ((n + 1) / n) * a_next + a_direct)))
            gaps.append(np.max(np.abs((eye - m) @ a_direct - (eye - tn) / n)))
            if n >= 2:
                b_direct = b_walk[n]
                gaps.append(np.max(np.abs(b_direct - b_n_operator(t, n))))
                gaps.append(
                    np.max(np.abs(eye - a_direct - (eye - m) @ b_direct))
                )
            top = float(max(gaps))
            assert top <= 1e-10, (s.fingerprint(), n, top)
            worst = max(worst, top)
    ok(7, f"Cesaro identities within 1e-10 for n <= 20 (worst {worst:.2e})")


def _contracting_ergodic_data(i):
    s = draw(8_000 + i, "contracting_h", max_atoms=12)
    t = s.operator()
    m = matrix_of(t)
    imt = np.eye(s.space.n_atoms) - m
    sv = np.linalg.svd(imt, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        return None
    return s, t, m, imt


def test_criterion_08_cesaro_limit_invariance():
    """The limit of the Cesaro means is invariant under the operator."""
    rng = np.random.default_rng(88)
    for i in range(30):
        data = _contracting_ergodic_data(i)
        if data is None:
            continue
        s, t, m, imt = data
        n = s.space.n_atoms
        fs = rng.uniform(-1.0, 1.0, (n, 100))
        rng_b, nul_b = range_null(imt, RANK_TOL)
        basis = np.hstack([rng_b, nul_b])
        assert basis.shape[1] == n, s.fingerprint()
        coeff = np.linalg.solve(basis, fs)
        limit = nul_b @ coeff[rng_b.shape[1] :]
        residual = float(np.max(np.abs(m @ limit - limit), initial=0.0))
        assert residual <= 1e-8, (s.fingerprint(), residual)
        # the means do head toward that limit
        drift = [
            float(np.max(np.abs(cesaro_mean(t, k) @ fs - limit)))
            for k in (50, 200)
        ]
        assert drift[1] < drift[0] or drift[1] <= 1e-10, (s.fingerprint(), drift)
    ok(8, "Cesaro-mean limits are operator-invariant at 1e-8")


def test_criterion_08_remainder_convergence_at_fixed_horizon():
    """B_n f - (I-T)^(-1) f = -(I-T)^(-2) (I - T^n) f / n at n = 200 and 400.

    The identity follows from I - A_n = (I - T) B_n and
    (I - T) A_n = (I - T^n) / n. The predicted gap is built from a linear
    solve with I - T and the directly multiplied power T^n, independently of
    the closed form of B_n; the two must agree to 1e-9 relative to the
    prediction's sup norm. The gap's sup norm must halve from n = 200 to
    n = 400 to within 1e-6, the signature of the O(1/n) rate.
    """
    rng = np.random.default_rng(99)
    worst_rel = 0.0
    worst_halving = 0.0
    checked = 0
    skipped = 0
    for i in range(30):
        data = _contracting_ergodic_data(i)
        if data is None:
            skipped += 1
            continue
        s, t, m, imt = data
        fs = rng.uniform(-1.0, 1.0, (s.space.n_atoms, 100))
        target = np.linalg.solve(imt, fs)
        gaps = {}
        for n in (200, 400):
            gap = b_n_operator(t, n) @ fs - target
            residue = fs - np.linalg.matrix_power(m, n) @ fs
            predicted = -np.linalg.solve(imt, np.linalg.solve(imt, residue)) / n
            scale = float(np.max(np.abs(predicted)))
            rel = float(np.max(np.abs(gap - predicted))) / scale
            assert rel <= 1e-9, (s.fingerprint(), n, rel)
            worst_rel = max(worst_rel, rel)
            gaps[n] = float(np.max(np.abs(gap)))
        halving = abs(gaps[400] / gaps[200] - 0.5)
        assert halving <= 1e-6, (s.fingerprint(), gaps[200], gaps[400])
        worst_halving = max(worst_halving, halving)
        checked += 1
    assert checked > 0, f"all {skipped} instances had a singular I - T"
    ok(
        8,
        f"remainder gap matches -(I-T)^(-2)(I-T^n)f/n on {checked} instances "
        f"({skipped} skipped; worst relative gap {worst_rel:.2e}, "
        f"worst halving deviation {worst_halving:.2e})",
    )


def test_criterion_09_luxemburg_oracle():
    """Closed-form and bisection norms both match weighted p-norms computed
    directly in NumPy; the unit-ball property holds across the catalog.

    The catalog power law takes the closed-form route; a gauge with the same
    evaluator but no power-law pair takes the bisection route.
    """
    rng = np.random.default_rng(9)
    from orlicz_wct import FiniteMeasureSpace, YoungFunction, modular

    for p in (1.5, 2.0, 3.0):
        space = FiniteMeasureSpace.from_weights(rng.uniform(0.3, 2.5, 10))
        phi = power_plain(p)
        bare = YoungFunction("bare", phi.params, phi._fn)
        fs = rng.uniform(-4.0, 4.0, (10, 1000))
        oracle = np.sum(np.abs(fs) ** p * space.weights[:, None], axis=0) ** (1.0 / p)
        for gauge in (phi, bare):
            got = luxemburg_norms(OrliczContext(space, gauge), fs)
            assert np.all(np.abs(got - oracle) <= 1e-9 * (1.0 + oracle)), (p, gauge)
    for phi in (power_scaled(2), power_plain(2), exp_type(), deadzone(), capped()):
        space = FiniteMeasureSpace.from_weights(rng.uniform(0.3, 2.5, 8))
        ctx = OrliczContext(space, phi)
        fs = rng.uniform(-3.0, 3.0, (8, 200))
        norms = luxemburg_norms(ctx, fs)
        for j in range(fs.shape[1]):
            if norms[j] > 0:
                assert modular(ctx, fs[:, j] / norms[j]) <= 1.0 + 1e-8, phi.kind
    ok(9, "closed-form and bisection norms within 1e-9 of the p-norm oracle; "
       "unit-ball property across the catalog")


def test_criterion_10_inequalities_and_laws():
    """Young/inverse-product inequalities plus the expectation law suite:
    x y <= phi(x) + psi(y) and x < phi_inv(x) psi_inv(x) <= 2x on the grid."""
    grid = np.logspace(-6, 6, 97)
    x, y = np.meshgrid(grid, grid)
    pairs = [
        power_scaled(2),
        power_scaled(1.5),
        power_plain(2),
        power_plain(3),
        exp_type(),
        deadzone(),
        capped(),
    ]
    for phi in pairs:
        psi = complementary(phi)
        excess = x * y - (phi(x) + psi(y)) - 1e-8 * (1.0 + x * y)
        assert not np.any(excess > 0), (phi.kind, phi.params, np.max(excess))
        prod = generalized_inverse(phi, grid, tol=1e-12)
        prod = prod * generalized_inverse(psi, grid, tol=1e-12)
        inside = (prod > grid * (1.0 - 1e-8)) & (prod <= 2.0 * grid * (1.0 + 1e-8))
        assert inside.all(), (phi.kind, phi.params, grid[~inside], prod[~inside])

    total = {}
    for combo_seed, phi in ((1, power_scaled(2)), (2, power_plain(2))):
        s = generate_random_instance(400 + combo_seed, 10, 3, "generic")
        e = CondExp(s.space, s.partition)
        report = check_condexp_laws(e, phi, trials=500, seed=combo_seed)
        for name, law in report.laws.items():
            assert law.passed is True, (name, law.counterexample)
            total[name] = total.get(name, 0) + report.trials
    assert all(v >= 1000 for v in total.values())
    ok(10, "conjugate inequalities on [1e-6, 1e6] and 1000 draws per law")
