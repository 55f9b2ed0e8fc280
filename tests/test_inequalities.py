import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pins

from hgauge import bgg, inequalities
from hgauge.norm import norm_batch, partials_batch
from hgauge.inequalities import (
    EXCLUSION,
    TOLERANCE,
    alpha_opt,
    check_gradient_bounds,
    check_partial_bounds,
    coercivity_margin,
    sample_cloud,
    shell_cloud,
    split_objective,
)


def test_sample_cloud_shape_and_determinism():
    assert sample_cloud(3, 500, seed=5).shape == (500, 7)
    for n, digest in pins.CLOUD_DIGESTS.items():
        assert pins.digest(pins.cloud_parts(n)) == digest, n


def test_sample_cloud_respects_exclusion():
    c = sample_cloud(2, 2000, seed=1)
    assert np.min(np.linalg.norm(c[:, :-1], axis=1)) >= EXCLUSION


def test_sample_cloud_covers_scales():
    # a quarter of the points are log-radial rescales spanning ~1e-2..1e2
    c = sample_cloud(2, 4000, seed=2)
    radii = np.linalg.norm(c[:, :-1], axis=1)
    assert radii.min() < 0.05
    assert radii.max() > 50.0


@pytest.mark.parametrize("n", [2, 3, 6])
def test_gradient_bounds_hold(n):
    reports = check_gradient_bounds(n, 40_000, seed=10 + n)
    assert [r.name for r in reports] == ["radial-lower", "gradient-lower", "gradient-upper"]
    for r in reports:
        assert r.passed, f"{r.name}: {r.min_margin}"
        assert r.min_margin >= TOLERANCE


def test_partial_bounds_hold_n6():
    reports = check_partial_bounds(6, 40_000, seed=16)
    assert len(reports) == 7
    names = {r.name for r in reports}
    assert "pair-slope-nonneg" in names
    for r in reports:
        assert r.passed, f"{r.name}: {r.min_margin}"


def test_threading_does_not_change_results():
    serial = check_gradient_bounds(2, 30_000, seed=3, threads=1)
    parallel = check_gradient_bounds(2, 30_000, seed=3, threads=4)
    for a, b in zip(serial, parallel):
        assert a.min_margin == b.min_margin
        assert np.array_equal(np.asarray(a.worst_point), np.asarray(b.worst_point))


@pytest.fixture
def pool_sizes(monkeypatch):
    """[max_workers, spans] of each pool the cloud checks open.

    A stand-in executor records them and maps in this thread, so a huge
    thread count starts no threads even if the cap were missing.
    """
    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            seen.append(len(chunks))
            return map(fn, chunks)

    monkeypatch.setattr(inequalities, "ThreadPoolExecutor", Recorder)
    return seen


def test_thread_pool_is_capped_at_cpu_count(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    capped = check_gradient_bounds(2, 20_000, seed=3, threads=10**6)
    assert pool_sizes == [3, 2]  # one box span of 15000 rows, one radial span of 5000
    assert capped == check_gradient_bounds(2, 20_000, seed=3, threads=1)


def test_default_threads_are_one_per_cpu(monkeypatch, pool_sizes):
    # threads=None means one worker per CPU, in the library as in the CLI
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    default = check_partial_bounds(2, 20_000, seed=3)
    assert pool_sizes == [2, 2]
    assert default == check_partial_bounds(2, 20_000, seed=3, threads=1)


@pytest.mark.parametrize("threads", [0, -1])
@pytest.mark.parametrize("check", [check_gradient_bounds, check_partial_bounds])
def test_threads_below_one_raise(check, threads):
    # every run maps its spans through a pool, and a pool needs a worker
    with pytest.raises(ValueError):
        check(2, 100, 1, threads=threads)


CHUNK = inequalities._CHUNK


@pytest.mark.parametrize("n", [2, 6, 10])
@pytest.mark.parametrize("m", [1, 5, CHUNK + 1, 100_003, 4 * CHUNK + 8])
def test_span_rows_concatenate_to_sample_cloud(n, m):
    # the spans, each drawn at its own stream positions, concatenate to the
    # layout drawn whole: box x, box t, then radial x, t and dilations.  At
    # 4 * CHUNK + 8 points the radial part has two spans
    seed, dim = 20261017, 2 * n
    spans = inequalities._spans(m)
    assert all(b - a <= CHUNK for a, b in spans)
    rows = np.concatenate(
        [np.column_stack(inequalities._span_rows(n, m, seed, span)) for span in spans]
    )
    m_box = (3 * m) // 4
    x = inequalities._uniform(seed, 0, m_box * dim, -5.0, 5.0).reshape(m_box, dim)
    t = inequalities._uniform(seed, m_box * dim, m_box, -25.0, 25.0)
    r0, k = m_box * (dim + 1), m - m_box
    rx = inequalities._uniform(seed, r0, k * dim, -1.0, 1.0).reshape(k, dim)
    rt = inequalities._uniform(seed, r0 + k * dim, k, -1.0, 1.0)
    lam = 10.0 ** inequalities._uniform(seed, r0 + k * (dim + 1), k, -2.0, 2.0)
    radial = np.column_stack([rx * lam[:, None], rt * (lam * lam)])
    whole = np.vstack([np.column_stack([x, t]), radial])
    assert rows.tobytes() == whole.tobytes()
    assert rows.tobytes() == sample_cloud(n, m, seed).tobytes()


def test_rejection_moves_no_other_row():
    # BOX=1e-3 rejects about 1 box row in 3 at n=2; each is redrawn in place
    n, m, seed = 2, 100_003, 9
    m_box = (3 * m) // 4
    radial = sample_cloud(n, m, seed)[m_box:]
    parts = pins.redraw_parts("sample_cloud")
    cloud = parts["cloud"]
    assert cloud[m_box:].tobytes() == radial.tobytes()
    x = inequalities._uniform(seed, 0, m_box * 4, -1e-3, 1e-3).reshape(m_box, 4)
    t = inequalities._uniform(seed, m_box * 4, m_box, -1e-6, 1e-6)
    kept = np.linalg.norm(x, axis=1) >= EXCLUSION
    assert 0.5 < kept.mean() < 0.9
    assert cloud[:m_box][kept].tobytes() == np.column_stack([x, t])[kept].tobytes()
    assert np.all(np.linalg.norm(cloud[:, :-1], axis=1) >= EXCLUSION)
    # the redraws come from a stream keyed by (seed, part origin, span start)
    assert pins.digest(parts) == pins.REDRAW_DIGESTS["sample_cloud"]


@pytest.mark.parametrize("dim", [4, 12, 20])
def test_exclusion_prefilter_matches_the_full_norm(dim):
    # the exclusion takes the norm only where |x_1| < 2 EXCLUSION; its decision
    # is np.linalg.norm(x, axis=1) < EXCLUSION on rows a few ulp either side
    # of the sphere |x| = EXCLUSION and of the prefilter bound |x_1| = 2 EXCLUSION
    rng = np.random.default_rng(dim)
    ulps = 1.0 + np.arange(-4, 5) * np.finfo(float).eps
    u = rng.normal(size=(300, dim))
    u[:100, 1:] *= 1e-3  # |x_1| close to |x|
    u /= np.linalg.norm(u, axis=1)[:, None]
    sphere = (u[:, None, :] * (EXCLUSION * ulps)[:, None]).reshape(-1, dim)
    edge = rng.uniform(-1e-4, 1e-4, (2 * ulps.size, dim))
    edge[:, 0] = np.concatenate([2.0 * EXCLUSION * ulps, -2.0 * EXCLUSION * ulps])
    edge[: ulps.size // 2, 1:] = 0.0
    # rows drawn at BOX = 1e-3 all take the exact norm; at dim 4 about a third is inside
    box = inequalities._uniform(9, 0, 10_000 * dim, -1e-3, 1e-3).reshape(-1, dim)
    x = np.vstack([sphere, edge, box])
    want = np.linalg.norm(x, axis=1) < EXCLUSION
    assert 0 < np.count_nonzero(want[: len(sphere)]) < len(sphere)
    assert np.array_equal(inequalities._in_ball(x, EXCLUSION), want)


@pytest.mark.parametrize("n", sorted(pins.SHELL_DIGESTS))
def test_shell_cloud_digests(n):
    assert pins.digest(pins.shell_parts(n)) == pins.SHELL_DIGESTS[n]


def test_shell_cloud_redraws_in_place():
    # at n=2 a few rows per hundred fall inside |x| < 1/2, the one rejection
    parts = pins.redraw_parts("shell_cloud")
    cloud = parts["cloud"]
    x = inequalities._uniform(42, 0, 4000, -2.0, 2.0).reshape(1000, 4)
    t = inequalities._uniform(42, 4000, 1000, -3.0, 3.0)
    kept = np.linalg.norm(x, axis=1) >= 0.5
    assert 0 < np.count_nonzero(~kept) < 100
    assert cloud[kept].tobytes() == np.column_stack([x, t])[kept].tobytes()
    assert np.all(np.linalg.norm(cloud[:, :-1], axis=1) >= 0.5)
    assert pins.digest(parts) == pins.REDRAW_DIGESTS["shell_cloud"]


def test_shell_cloud_has_no_gauge_window():
    # a box draw whose one rejection is |x| < 1/2: at n = 20 N's median is
    # about 5, and rows past N = 5 are kept
    cloud = shell_cloud(20, 1000, seed=0)
    x, t = cloud[:, :-1], cloud[:, -1]
    assert np.all(np.linalg.norm(x, axis=1) >= 0.5)
    assert np.all(np.abs(x) <= 2.0) and np.all(np.abs(t) <= 3.0)
    assert np.any(norm_batch(x, t) >= 5.0)


def _margin_fn(check, n, seed, monkeypatch):
    """The margin_fn that check hands to _cloud_reports."""
    captured = []
    reports = inequalities._cloud_reports

    def capture(names, margin_fn, *args):
        captured.append(margin_fn)
        return reports(names, margin_fn, *args)

    monkeypatch.setattr(inequalities, "_cloud_reports", capture)
    check(n, 1, seed)
    monkeypatch.setattr(inequalities, "_cloud_reports", reports)
    return captured[0]


def _materialised_reports(check, n, m, seed, monkeypatch):
    """(min_margin, worst row) per column of margin_fn over the whole sample_cloud."""
    coords = sample_cloud(n, m, seed)
    margins = np.column_stack(_margin_fn(check, n, seed, monkeypatch)(coords[:, :-1], coords[:, -1]))
    worst = np.argmin(margins, axis=0)
    return [(margins[w, i], coords[w]) for i, w in enumerate(worst)]


@pytest.mark.parametrize(
    "n, m, box",
    [(n, m, 5.0) for n in (2, 6, 10) for m in (1, CHUNK - 1, CHUNK, CHUNK + 1, 100_003)]
    + [(2, 5000, 1e-3), (2, 100_003, 1e-3)],
)
def test_streamed_reports_equal_materialised_cloud(n, m, box, monkeypatch):
    # BOX=1e-3 rejects rows, which the spans redraw in place
    monkeypatch.setattr(inequalities, "BOX", box)
    for check in (check_gradient_bounds, check_partial_bounds):
        want = _materialised_reports(check, n, m, 9, monkeypatch)
        for threads in (1, 2):
            got = check(n, m, 9, threads=threads)
            assert [r.n_points for r in got] == [m] * len(want)
            for r, (value, row) in zip(got, want):
                assert r.min_margin == value, (check.__name__, threads, r.name)
                assert r.worst_point.coords().tobytes() == row.tobytes(), (check.__name__, threads, r.name)


def _reference_margins(check, x, t, n):
    """The margins as read off partials_batch's record, field by field."""
    pb = partials_batch(x, t)
    if check is check_gradient_bounds:
        xsq = pb.R + pb.S
        ratio = pb.N * pb.N * pb.grad_sq / xsq
        m1 = pb.N * pb.x_dot / xsq + 1.0 / (4 * n)
        return np.stack([m1, ratio - 2.0 ** -(5.0 + 2.0 / n), (2 * n + 1) ** 2 / (8.0 * n * n) - ratio]).T
    sp, sb = pb.N * pb.pair_slope, pb.N * pb.block_slope
    tt = pb.N * np.abs(pb.dN_dt)
    top = (2 * n + 1) / (4.0 * n)
    return np.stack(
        [
            sp,
            0.5 - np.abs(sp),
            sb + 1.0 / (4 * n),
            np.abs(sb) + tt - (2 * n - 1) / (2.0 ** (1.0 / n + 2.0) * n),
            np.abs(sp) + 0.5 * tt - 2.0 ** -(2.0 + 1.0 / n),
            top - np.abs(sb),
            top - tt,
        ]
    ).T


@pytest.mark.parametrize("n", [2, 6, 10])
@pytest.mark.parametrize("check", [check_gradient_bounds, check_partial_bounds])
def test_margins_match_partials_batch_reference(check, n, monkeypatch):
    # the margins come from (R, S, t) with |x|^2 as one row dot; every
    # margin is bounded by 1, so rounding leaves each row within a few eps
    # of the record's formulas, and no column's worst row moves
    m, seed = 40_000, 500 + n
    coords = sample_cloud(n, m, seed)
    x, t = coords[:, :-1], coords[:, -1]
    got = np.column_stack(_margin_fn(check, n, seed, monkeypatch)(x, t))
    want = _reference_margins(check, x, t, n)
    assert got.shape == want.shape == (m, len(want[0]))
    assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps
    m_box = (3 * m) // 4
    for rows in (slice(0, m_box), slice(m_box, m), slice(0, m)):  # box, radial, all
        assert np.array_equal(np.argmin(got[rows], axis=0), np.argmin(want[rows], axis=0)), rows


def _assert_scale_free(check, n, x, t, lam, monkeypatch):
    """check's margin columns at delta_lam (x, t) equal those at (x, t) to
    1e-13 of max(1, |margin|); lam is a scalar or one factor per row."""
    margin_fn = _margin_fn(check, n, 0, monkeypatch)
    lam = np.broadcast_to(lam, t.shape)
    want = np.column_stack(margin_fn(x.copy(), t.copy()))
    got = np.column_stack(margin_fn(x * lam[:, None], t * lam * lam))
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert np.all(err <= 1e-13), (check.__name__, lam[np.argmax(np.max(err, axis=1))], np.max(err))


@pytest.mark.parametrize("check", [check_gradient_bounds, check_partial_bounds])
@pytest.mark.parametrize("s", [1e-155, 1e-153, 1e-100, 1e-60, 1e-51, 1e51, 1e60, 1e100, 1e150])
def test_margins_hold_along_a_dilation_ray(check, s, monkeypatch):
    # delta_s(e_1 + e_4 / 2, t = 0.3) at n = 6; the margins have degree 0
    # and read only the chart point, so no scale in which |x|^2 is a normal
    # float moves them (at s = 1e-155 it is subnormal, and still holds here)
    x = np.zeros((1, 12))
    x[0, 0], x[0, 3] = 1.0, 0.5
    _assert_scale_free(check, 6, x, np.array([0.3]), s, monkeypatch)


@pytest.mark.parametrize("n", [2, 6, 10])
@pytest.mark.parametrize("check", [check_gradient_bounds, check_partial_bounds])
def test_margins_hold_at_random_scales(check, n, monkeypatch):
    # box rows (|x| >= EXCLUSION) dilated by lam = 10^U(-150, 150), row by row
    coords = sample_cloud(n, 4000, seed=40 + n)[:3000]
    lam = 10.0 ** np.random.default_rng(n).uniform(-150.0, 150.0, len(coords))
    _assert_scale_free(check, n, coords[:, :-1], coords[:, -1], lam, monkeypatch)


def test_streamed_check_never_builds_the_cloud(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sample_cloud called")

    monkeypatch.setattr(inequalities, "sample_cloud", refuse)
    for r in check_gradient_bounds(2, 200_000, seed=5, threads=2):
        assert r.passed and r.n_points == 200_000


@pytest.mark.parametrize("m", [0, -3])
def test_clouds_need_a_point(m):
    for call in (
        lambda: check_gradient_bounds(2, m, seed=1),
        lambda: check_partial_bounds(2, m, seed=1),
        lambda: sample_cloud(2, m, seed=1),
        lambda: shell_cloud(2, m, seed=1),
        lambda: bgg.compare_cloud(2, m, 1),
    ):
        with pytest.raises(ValueError, match="at least 1 point"):
            call()


def test_report_as_dict_roundtrips_through_json():
    (r, *_rest) = check_gradient_bounds(2, 1000, seed=4)
    d = r.as_dict()
    s = json.dumps(d)
    back = json.loads(s)
    assert back["name"] == r.name
    assert back["pass"] is True
    assert back["min_margin"] == r.min_margin


# -- constants ----------------------------------------------------------------


def test_margin_identity_with_split_objective():
    for n in range(2, 21):
        lhs = 2.0 ** (5.0 + 2.0 / n) * split_objective(alpha_opt(n), n)
        assert lhs == pytest.approx(coercivity_margin(n), abs=1e-12)


def test_margin_signs():
    for n in range(2, 6):
        assert coercivity_margin(n) < 0
    for n in range(6, 21):
        assert coercivity_margin(n) > 0


def test_margin_frozen_value_n6():
    assert coercivity_margin(6) == pytest.approx(0.13867275670576784, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 15), st.floats(0.01, 5.0))
def test_alpha_opt_maximizes_objective(n, alpha):
    best = split_objective(alpha_opt(n), n)
    assert split_objective(alpha, n) <= best + 1e-12


def test_objective_rejects_bad_alpha():
    with pytest.raises(ValueError):
        split_objective(0.0, 4)
    with pytest.raises(ValueError):
        split_objective(-1.0, 4)


def test_stationarity_at_alpha_opt():
    for n in range(2, 21):
        a = alpha_opt(n)
        h = 1e-5 * a
        der = (split_objective(a + h, n) - split_objective(a - h, n)) / (2 * h)
        assert abs(der) < 1e-10
