"""End-to-end verification matrix.

Each test covers one numbered criterion and reports a single line
    [PASS|FAIL] <nn> <what was measured>
collected by the conftest terminal-summary hook.  Criterion 10 asserts a
claimed closed-form identity for the squared horizontal gradient of the
central coordinate; the identity is recorded as stated and currently fails
(the measured value is 3B - A, not B), see the failure detail.
"""

import dataclasses
import time

import numpy as np

from conftest import record_line

from hgauge import bgg, coercive, fd, inequalities, measures
from hgauge.group import GroupParams, Point, field_coefficients_batch
from hgauge.inequalities import check_gradient_bounds, check_partial_bounds, shell_cloud
from hgauge.measures import MeasureSpec, batch_means_se
from hgauge.norm import ab_batch, norm_batch, norm_field, partials_batch

QCFG = bgg.QuadratureConfig()
TOL_MARGIN = -1e-12


def _check(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    record_line(f"[{verdict}] {num:02d} {label}: {detail}")
    assert ok, f"criterion {num:02d} ({label}): {detail}"


def test_01_closed_form_matches_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 6, 8):
        out = bgg.compare_cloud(GroupParams(n), 200, seed=1000 + n, cfg=QCFG)
        worst = max(worst, out["max_rel_err"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 30.0
    _check(
        1,
        "closed-form solution vs quadrature oracle (200 pts, n in {2,3,6,8})",
        ok,
        f"max rel err {worst:.3e} (tol 1e-8), {elapsed:.1f}s (limit 30s)",
    )


def test_02_solution_gauge_product_and_homogeneity():
    rng = np.random.default_rng(2026)
    worst_prod = 0.0
    for n in (2, 3, 6):
        params = GroupParams(n)
        k = bgg.solution_constant(n)
        for _ in range(3400 if n == 2 else 3300):
            p = Point(rng.uniform(-3, 3, 2 * n), rng.uniform(-6, 6))
            u = bgg.fundamental_solution_closed(p, params)
            nn = norm_batch(p.x[None, :], np.asarray([p.t]))[0]
            worst_prod = max(worst_prod, abs(u * nn ** (2 * n) / k - 1.0))
    x = rng.uniform(-3, 3, (10_000, 4))
    t = rng.uniform(-6, 6, 10_000)
    lam = rng.uniform(0.1, 10.0, 10_000)
    n0 = norm_batch(x, t)
    n1 = norm_batch(x * lam[:, None], t * lam**2)
    worst_hom = float(np.max(np.abs(n1 / (lam * n0) - 1.0)))
    ok = worst_prod <= 1e-12 and worst_hom <= 1e-12
    _check(
        2,
        "u * N^(2n) constant and gauge homogeneity (1e4 pts)",
        ok,
        f"product dev {worst_prod:.3e}, homogeneity dev {worst_hom:.3e} (tol 1e-12)",
    )


def test_03_harmonicity_within_truncation():
    params = GroupParams(6)
    coords = shell_cloud(params, 100, seed=33)
    ladder = [6.4e-3, 3.2e-3, 1.6e-3, 8e-4]
    means = []
    for h in ladder:
        res = fd.harmonicity_residual_batch(coords, params, fd.FdConfig(h_base=h))
        means.append(float(np.mean(np.abs(res))))
    slope = np.polyfit(np.log(ladder), np.log(means), 1)[0]
    h = 1.6e-3
    plain = fd.harmonicity_residual_batch(coords, params, fd.FdConfig(h_base=h))
    half = fd.harmonicity_residual_batch(coords, params, fd.FdConfig(h_base=h / 2))
    rich = fd.harmonicity_residual_batch(coords, params, fd.FdConfig(h_base=h, richardson=True))
    estimate = np.abs(plain - half)
    bounded = bool(np.all(np.abs(rich) <= estimate))
    ok = bounded and abs(slope - 2.0) <= 0.3
    _check(
        3,
        "sub-Laplacian of N^(2-Q) is harmonic within FD truncation (100 pts, n=6)",
        ok,
        f"h^2 slope {slope:.4f} (want 2 +- 0.3), residuals bounded by estimate: {bounded}",
    )


def test_04_laplacian_gradient_ratio():
    worst = 0.0
    for n in (2, 6):
        params = GroupParams(n)
        coords = shell_cloud(params, 1000, seed=40 + n)
        q_hom = params.homogeneous_dim
        lap = fd.sub_laplacian_batch(norm_field(params), coords, fd.FdConfig())
        pb = partials_batch(coords[:, :-1], coords[:, -1])
        ratio = lap * pb.N / ((q_hom - 1) * pb.grad_sq)
        worst = max(worst, float(np.max(np.abs(ratio - 1.0))))
    ok = worst <= 1e-5
    _check(
        4,
        "Delta N * N / ((Q-1) |grad N|^2) = 1 (1e3 pts, n in {2,6})",
        ok,
        f"max deviation {worst:.3e} (tol 1e-5)",
    )


def test_05_gradient_bound_margins():
    t0 = time.perf_counter()
    worst = np.inf
    for n in (2, 6, 10):
        reports = check_gradient_bounds(GroupParams(n), 1_000_000, seed=50 + n, threads=4)
        worst = min(worst, min(r.min_margin for r in reports))
        assert all(r.passed for r in reports)
    elapsed = time.perf_counter() - t0
    ok = worst >= TOL_MARGIN and elapsed <= 60.0
    _check(
        5,
        "radial and two-sided gradient bounds (1e6 pts, n in {2,6,10})",
        ok,
        f"min margin {worst:.3e} (tol -1e-12), {elapsed:.1f}s (limit 60s)",
    )


def test_06_per_coordinate_bound_margins():
    reports = check_partial_bounds(GroupParams(6), 100_000, seed=66)
    worst = min(r.min_margin for r in reports)
    ok = len(reports) == 7 and worst >= TOL_MARGIN
    _check(
        6,
        "seven per-coordinate slope bounds (1e5 pts, n=6)",
        ok,
        f"min margin {worst:.3e} over {len(reports)} bounds (tol -1e-12)",
    )


def test_07_coercivity_constants():
    signs = all(inequalities.coercivity_margin(n) < 0 for n in range(2, 6)) and all(
        inequalities.coercivity_margin(n) > 0 for n in range(6, 21)
    )
    m6 = inequalities.coercivity_margin(6)
    stat_worst = 0.0
    for n in range(2, 21):
        a = inequalities.alpha_opt(n)
        h = 1e-5 * a
        der = (inequalities.split_objective(a + h, n) - inequalities.split_objective(a - h, n)) / (2 * h)
        stat_worst = max(stat_worst, abs(der))
    ok = signs and abs(m6 - 0.139) <= 1e-3 and stat_worst <= 1e-10
    _check(
        7,
        "coercivity margin signs, value at n=6, stationarity",
        ok,
        f"margin(6) = {m6:.6f} (want 0.139 +- 0.001), max |d/dalpha| {stat_worst:.2e} (tol 1e-10)",
    )


def test_08_infinity_laplacian_witness():
    params = GroupParams(2)
    p = Point(np.array([1.0, 1.0, 0.0, 0.0]), 0.3)
    value, floor = fd.infinity_laplacian_witness(p, params, fd.FdConfig())
    ratio = abs(value) / floor
    ok = ratio > 10.0
    _check(
        8,
        "infinity-Laplacian of N nonzero beyond FD noise at generic point",
        ok,
        f"|value| {abs(value):.3e}, noise floor {floor:.3e}, ratio {ratio:.1f} (want > 10)",
    )


def test_09_exact_gradients_vs_fd():
    params = GroupParams(2)
    specs = [
        MeasureSpec(family="power", k=4.0),
        MeasureSpec(family="cosh-power", k=1.0),
        MeasureSpec(family="power-log", k=3.0),
        MeasureSpec(family="alpha-power", alpha=1.0, p=4.0, beta=0.25),
    ]
    coords = shell_cloud(params, 1000, seed=99)
    # gauge gradient
    fd_n = fd.fd_gradient(norm_field(params), coords, fd.FdConfig())
    pb = partials_batch(coords[:, :-1], coords[:, -1])
    exact_n = np.column_stack([pb.dN_dx, pb.dN_dt])
    scale = np.maximum(np.abs(exact_n), 1.0)
    worst = float(np.max(np.abs(fd_n - exact_n) / scale))
    # log-density gradients per family
    for spec in specs:
        def field(rows, spec=spec):
            out = np.empty(rows.shape[0])
            for i, row in enumerate(rows):
                out[i] = measures.log_density(spec, Point(row[:-1], row[-1]), params)
            return out

        sub = coords[:100]
        fd_g = fd.fd_gradient(field, sub, fd.FdConfig())
        exact_g = np.array(
            [measures.grad_log_density(spec, Point(r[:-1], r[-1]), params) for r in sub]
        )
        scale = np.maximum(np.abs(exact_g), 1.0)
        worst = max(worst, float(np.max(np.abs(fd_g - exact_g) / scale)))
    ok = worst <= 1e-6
    _check(
        9,
        "exact gradients of N and log-densities vs finite differences",
        ok,
        f"max rel dev {worst:.3e} (tol 1e-6)",
    )


def test_10_horizontal_gradient_identities():
    worst_pair = 0.0
    worst_central = 0.0
    worst_true = 0.0
    for n in (2, 6):
        rng = np.random.default_rng(10 + n)
        x = rng.uniform(-3, 3, (10_000, 2 * n))
        c = field_coefficients_batch(x)
        # |grad x_1|^2: X_j x_1 = delta_{j1} exactly
        gx1 = np.zeros_like(x)
        gx1[:, 0] = 1.0
        worst_pair = max(worst_pair, float(np.max(np.abs(np.sum(gx1**2, axis=1) - 1.0))))
        # |grad t|^2 = sum_j c_j(x)^2, claimed equal to B
        grad_t_sq = np.sum(c * c, axis=1)
        a, b = ab_batch(x)
        worst_central = max(worst_central, float(np.max(np.abs(grad_t_sq / b - 1.0))))
        worst_true = max(worst_true, float(np.max(np.abs(grad_t_sq / (3 * b - a) - 1.0))))
    ok = worst_pair <= 1e-14 and worst_central <= 1e-14
    _check(
        10,
        "|grad x_1|^2 = 1 and |grad t|^2 = B (1e4 pts, n in {2,6})",
        ok,
        f"|grad x_1|^2 dev {worst_pair:.1e}; |grad t|^2 vs B dev {worst_central:.3e} "
        f"(tol 1e-14) -- measured sum_j c_j^2 equals 3B - A instead "
        f"(dev {worst_true:.1e}); the claimed identity holds only where the "
        f"non-distinguished coordinates vanish",
    )


def test_11_chain_moments(power4_chains):
    b0, b1 = power4_chains
    m0, m1 = float(np.mean(b0.norms())), float(np.mean(b1.norms()))
    se = np.hypot(batch_means_se(b0.norms()), batch_means_se(b1.norms()))
    mean_ok = abs(m0 - m1) <= 3.0 * se
    odd_worst = 0.0
    odd_ok = True
    for b in (b0, b1):
        for j in range(b.coords.shape[1]):
            col = b.coords[:, j]
            z = abs(float(np.mean(col))) / batch_means_se(col)
            odd_worst = max(odd_worst, z)
            odd_ok = odd_ok and z <= 3.0
    ok = mean_ok and odd_ok
    _check(
        11,
        "two-chain agreement of E[N] and vanishing odd moments (1e5 steps, n=6)",
        ok,
        f"|E0[N]-E1[N]| = {abs(m0-m1):.4f} vs 3*SE = {3*se:.4f}; max odd-moment z {odd_worst:.2f} (want <= 3)",
    )


def test_12_ubound_feasibility(power4_chains, family_chains, params6):
    fam = coercive.default_family(params6)
    cases = [
        (MeasureSpec(family="power", k=4.0), power4_chains[0]),
        (family_chains["specs"]["cosh1"], family_chains["cosh1"]),
        (family_chains["specs"]["cosh2"], family_chains["cosh2"]),
        (family_chains["specs"]["plog3"], family_chains["plog3"]),
    ]
    worst = -np.inf
    all_ok = True
    for spec, batch in cases:
        for q in (2.0, 3.0):
            _, res = coercive.fit_ubound_constants(
                fam, dataclasses.replace(spec, q=q), batch
            )
            worst = max(worst, res.max_violation)
            all_ok = all_ok and res.feasible and res.max_violation <= 0.0
    _check(
        12,
        "U-bound constants feasible for four measures x q in {2,3} (n=6)",
        all_ok,
        f"max violation {worst:.3e} (want <= 0)",
    )


def test_13_poincare_ratios(power4_chains, stability_chains, params6):
    spec = MeasureSpec(family="power", k=4.0)
    fam = coercive.default_family(params6)[1:]
    base = power4_chains[0]
    ratios = [coercive.poincare_ratio(f, spec, base)[0] for f in fam]
    finite = all(np.isfinite(r) and r > 0 for r in ratios)
    coord_ratio = ratios[0]
    var = float(np.var(base.coords[:, 0]))
    coord_ok = abs(coord_ratio / var - 1.0) <= 1e-12
    maxima = []
    for b in stability_chains:
        maxima.append(max(coercive.poincare_ratio(f, spec, b)[0] for f in fam))
    mean_max = float(np.mean(maxima))
    spread_ok = all(abs(m / mean_max - 1.0) <= 0.2 for m in maxima)
    ok = finite and coord_ok and spread_ok
    _check(
        13,
        "q-Poincare ratios finite, coordinate ratio = variance, 5-seed stability",
        ok,
        f"coord ratio {coord_ratio:.4f} vs var {var:.4f}; "
        f"max-ratio spread {min(maxima):.3f}..{max(maxima):.3f} about {mean_max:.3f} (+-20%)",
    )


def test_14_beta_lsi_feasibility(alpha_chain, params6):
    spec, batch = alpha_chain
    res = coercive.fit_beta_lsi(coercive.default_family(params6), spec, batch)
    grid = np.geomspace(1.0, 1e4, 400)
    cond = measures.check_lsi_conditions(spec, grid, c=0.5, d=1.0)
    ok = res.feasible and res.max_violation <= 0.0 and cond.min_margin >= TOL_MARGIN
    _check(
        14,
        "beta log-Sobolev feasibility and grid conditions (alpha-power, beta=1/4)",
        ok,
        f"fit violation {res.max_violation:.3e}, condition margin {cond.min_margin:.3e}",
    )


def test_15_integral_identities():
    rng = np.random.default_rng(15)
    b = rng.uniform(0.2, 4.0, 50)
    a = b * rng.uniform(1.0, 2.0, 50)
    t = rng.uniform(-6.0, 6.0, 50)
    worst_split = worst_deriv = worst_closed = worst_pole = 0.0
    for ai, bi, ti in zip(a, b, t):
        whole = bgg.real_part_integral_quad(ai, bi, ti, QCFG)
        split = bgg.modulus_integral(ai, bi, ti) - bgg.phase_correction_quad(ai, bi, ti, QCFG)
        worst_split = max(worst_split, abs(whole / split - 1.0))
        h = 1e-5 * max(1.0, abs(ti))
        i1 = bgg.modulus_integral(ai, bi, ti)
        der = (bgg.modulus_integral(ai, bi, ti + h) - bgg.modulus_integral(ai, bi, ti - h)) / (2 * h)
        corr = bgg.phase_correction_quad(ai, bi, ti, QCFG)
        worst_deriv = max(worst_deriv, abs(corr - (-ti * der)) / abs(i1))
        quad1 = bgg.modulus_integral_quad(ai, bi, ti, QCFG)
        worst_closed = max(worst_closed, abs(bgg.modulus_integral(ai, bi, ti) / quad1 - 1.0))
        quartic = [ai**2, 0.0, 4 * ai * bi + 4 * ti**2, 0.0, 4 * bi**2 + 4 * ti**2]
        upper = np.sort(np.roots(quartic).imag)
        mean_sq = float(np.mean(upper[upper > 0])) ** 2
        worst_pole = max(worst_pole, abs(bgg.pole_imag_mean_sq(ai, bi, ti) / mean_sq - 1.0))
    ok = (
        worst_split <= 1e-6
        and worst_deriv <= 1e-6
        and worst_closed <= 1e-9
        and worst_pole <= 1e-10
    )
    _check(
        15,
        "integral split, time-derivative identity, closed modulus part, pole oracle",
        ok,
        f"split dev {worst_split:.2e} (1e-6), t-derivative dev {worst_deriv:.2e} (1e-6), "
        f"closed-vs-quad {worst_closed:.2e} (1e-9), pole-vs-roots {worst_pole:.2e} (1e-10)",
    )
