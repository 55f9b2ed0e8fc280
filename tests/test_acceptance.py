"""End-to-end verification matrix.

Each test covers one numbered criterion and reports a single line
    [PASS|FAIL] <nn> <what was measured>
collected by the conftest terminal-summary hook.  Criterion 10 asserts a
claimed closed-form identity for the squared horizontal gradient of the
central coordinate; the identity is recorded as stated and currently fails
(the measured value is 3B - A, not B), see the failure detail.
"""

import time

import numpy as np

from conftest import CHAIN_N, FD_STEP, norm_field, record_line
from reference import closed_form_solution, fd_gradient, sub_laplacian_batch, sub_laplacian_scale

from hgauge import bgg, coercive, fd, inequalities, measures
from hgauge.group import Point, field_coefficients_batch
from hgauge.inequalities import check_gradient_bounds, check_partial_bounds, shell_cloud
from hgauge.measures import MeasureSpec, batch_means_se
from hgauge.norm import ROUNDING_GATE, ab_batch, norm_batch, partials_batch

TOL_MARGIN = -1e-12
# criterion 03's rounding floor, in eps times the stencil's sum |weight value|:
# each value N^(2-Q) carries |2-Q| = 10 times N's few ulps, with room
STENCIL_ROUNDING = 64.0


def _check(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    record_line(f"[{verdict}] {num:02d} {label}: {detail}")
    assert ok, f"criterion {num:02d} ({label}): {detail}"


def test_01_closed_form_matches_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 6, 8):
        out = bgg.compare_cloud(n, 200, seed=1000 + n)
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
        k = bgg.solution_constant(n)
        for _ in range(3400 if n == 2 else 3300):
            p = Point(rng.uniform(-3, 3, 2 * n), rng.uniform(-6, 6))
            u = closed_form_solution(p)
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
    coords = shell_cloud(6, 100, seed=33)

    def field(rows):
        return norm_field(rows) ** (2 - (2 * 6 + 2))

    ladder = [6.4e-3, 3.2e-3, 1.6e-3, 8e-4]
    means = []
    for h in ladder:
        res = sub_laplacian_batch(field, coords, h)
        means.append(float(np.mean(np.abs(res))))
    slope = np.polyfit(np.log(ladder), np.log(means), 1)[0]
    h = 1.6e-3
    plain = sub_laplacian_batch(field, coords, h)
    half = sub_laplacian_batch(field, coords, h / 2)
    rich = (4.0 * half - plain) / 3.0
    estimate = np.abs(plain - half)
    # rich = (4 half - plain) / 3 carries (4/3) half's rounding and 1/3 plain's
    scale = (4.0 * sub_laplacian_scale(field, coords, h / 2) + sub_laplacian_scale(field, coords, h)) / 3.0
    floor = STENCIL_ROUNDING * np.finfo(float).eps * scale
    bounded = bool(np.all(np.abs(rich) <= estimate + floor))
    ok = bounded and abs(slope - 2.0) <= 0.3
    _check(
        3,
        "sub-Laplacian of N^(2-Q) is harmonic within FD truncation (100 pts, n=6)",
        ok,
        f"h^2 slope {slope:.4f} (want 2 +- 0.3), residuals bounded by estimate + 64 eps rounding floor: {bounded}",
    )


def test_04_laplacian_gradient_ratio():
    worst = 0.0
    for n in (2, 6):
        coords = shell_cloud(n, 1000, seed=40 + n)
        q_hom = 2 * n + 2
        lap = sub_laplacian_batch(norm_field, coords, 1e-4)
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
        reports = check_gradient_bounds(n, 1_000_000, seed=50 + n, threads=4)
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
    reports = check_partial_bounds(6, 100_000, seed=66)
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
    p = Point(np.array([1.0, 1.0, 0.0, 0.0]), 0.3)
    value, ratio = fd.infinity_laplacian_witness(p)
    ok = ratio > 10 * ROUNDING_GATE
    _check(
        8,
        "infinity-Laplacian of N nonzero beyond rounding at generic point",
        ok,
        f"|value| {abs(value):.3e}, rounding ratio {ratio:.1f} eps sum|terms| (want > {10 * ROUNDING_GATE:g})",
    )


def test_09_exact_gradients_vs_fd():
    specs = [
        MeasureSpec(family="power", k=4.0),
        MeasureSpec(family="cosh-power", k=1.0),
        MeasureSpec(family="power-log", k=3.0),
        MeasureSpec(family="alpha-power", alpha=1.0, p=4.0),
    ]
    coords = shell_cloud(2, 1000, seed=99)
    # gauge gradient
    fd_n = fd_gradient(norm_field, coords, FD_STEP)
    pb = partials_batch(coords[:, :-1], coords[:, -1])
    exact_n = np.column_stack([pb.dN_dx, pb.dN_dt])
    scale = np.maximum(np.abs(exact_n), 1.0)
    worst = float(np.max(np.abs(fd_n - exact_n) / scale))
    # log-density gradients per family, as the MALA sampler computes them,
    # on the central line x = 0 too
    central = np.zeros((6, 5))
    central[:, -1] = [-3.0, -1.0, -0.3, 0.3, 1.0, 3.0]
    sub = np.vstack([coords[:100], central])
    for spec in specs:
        fd_g = fd_gradient(lambda rows: measures._log_pi_rows(spec, rows)[1], sub, FD_STEP)
        exact_g = measures._log_pi_grad_rows(spec, sub)[2]
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
    m0, m1 = float(np.mean(b0.gauge)), float(np.mean(b1.gauge))
    se = np.hypot(batch_means_se(b0.gauge), batch_means_se(b1.gauge))
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


def test_12_ubound_feasibility(power4_chains, family_chains):
    fam = coercive.default_family(CHAIN_N)
    cases = [power4_chains[0], family_chains["cosh1"], family_chains["cosh2"], family_chains["plog3"]]
    worst = -np.inf
    all_ok = True
    for batch in cases:
        for q in (2.0, 3.0):
            _, res = coercive.fit_ubound_constants(fam, batch, q)
            worst = max(worst, res.max_violation)
            all_ok = all_ok and res.feasible and res.max_violation <= 0.0
    _check(
        12,
        "U-bound constants feasible for four measures x q in {2,3} (n=6)",
        all_ok,
        f"max violation {worst:.3e} (want <= 0)",
    )


def test_13_poincare_ratios(power4_chains, stability_chains):
    fam = coercive.default_family(CHAIN_N)[1:]
    base = power4_chains[0]
    ratios = [coercive.poincare_ratio(f, base, 2.0)[0] for f in fam]
    finite = all(np.isfinite(r) and r > 0 for r in ratios)
    coord_ratio = ratios[0]
    var = float(np.var(base.coords[:, 0]))
    coord_ok = abs(coord_ratio / var - 1.0) <= 1e-12
    maxima = []
    for b in stability_chains:
        maxima.append(max(coercive.poincare_ratio(f, b, 2.0)[0] for f in fam))
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


def test_14_beta_lsi_feasibility(alpha_chain):
    batch = alpha_chain
    beta, c, d = 0.25, 0.5, 1.0
    res = coercive.fit_beta_lsi(coercive.default_family(CHAIN_N), batch, 2.0, beta=beta)
    # the conditions on {N >= 1} in closed form for g = a N^p: g' = a p N^(p-1)
    # increases, N^2 g^beta / g' = a^(beta-1) N^(3-p+p beta) / p and
    # g'' / g'^2 = (p-1) / (a p N^p) both peak at N = 1 when 3 - p + p beta <= 0
    a, p = batch.spec.alpha, batch.spec.p
    growth, curvature = a ** (beta - 1) / p, (p - 1) / (a * p)
    conditions = a > 0 and p > 1 and 3 - p + p * beta <= 0 and growth <= c and curvature <= d
    ok = res.feasible and res.max_violation <= 0.0 and conditions
    _check(
        14,
        "beta log-Sobolev feasibility and closed-form conditions (alpha-power, beta=1/4)",
        ok,
        f"fit violation {res.max_violation:.3e}, sup N^2 g^beta/g' {growth:.3g} (c = {c}), "
        f"sup g''/g'^2 {curvature:.3g} (d = {d})",
    )


def test_15_integral_identities():
    ids = bgg.compare_cloud(2, 200, seed=15)["identities"]
    ok = (
        ids["split"] <= 1e-6
        and ids["t_derivative"] <= 1e-6
        and ids["modulus_closed"] <= 1e-9
        and ids["pole_roots"] <= 1e-10
    )
    _check(
        15,
        "integral split, time-derivative identity, closed modulus part, pole oracle",
        ok,
        f"split dev {ids['split']:.2e} (1e-6), t-derivative dev {ids['t_derivative']:.2e} (1e-6), "
        f"closed-vs-quad {ids['modulus_closed']:.2e} (1e-9), pole-vs-roots {ids['pole_roots']:.2e} (1e-10)",
    )
