import numpy as np
import pytest

from hgauge import fd, norm
from hgauge.fd import (
    FdConfig,
    fd_gradient,
    harmonicity_check,
    harmonicity_residual_batch,
    infinity_laplacian_witness,
    sub_laplacian_batch,
)
from hgauge.group import GroupParams, Point, dilate, field_coefficients_batch
from hgauge.norm import norm_batch


def _quadratic_field(n):
    # f = |x|^2 + t^2 has sub-Laplacian 4n + 2 sum_j c_j^2 exactly
    def field(coords):
        return np.sum(coords[:, :-1] ** 2, axis=1) + coords[:, -1] ** 2

    return field


def _exact_quadratic_sublap(coords, n):
    c = field_coefficients_batch(coords[:, :-1])
    return 4.0 * n + 2.0 * np.sum(c * c, axis=1)


def test_config_validation():
    for h in (-1.6e-3, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            FdConfig(h_base=h)
        with pytest.raises(ValueError, match="finite and positive"):
            FdConfig(h_first=h)


@pytest.mark.parametrize("h", [-1.6e-3, 0.0, float("nan"), float("inf")])
def test_harmonicity_check_rejects_bad_step(h):
    coords = np.array([[1.0, 0.5, -0.3, 0.2, 0.4]])
    with pytest.raises(ValueError, match="finite and positive"):
        harmonicity_check(coords, GroupParams(2), h)


def test_sub_laplacian_quadratic():
    n = 3
    params = GroupParams(n)
    rng = np.random.default_rng(0)
    coords = rng.uniform(-2, 2, (50, 2 * n + 1))
    got = sub_laplacian_batch(_quadratic_field(n), coords, FdConfig())
    want = _exact_quadratic_sublap(coords, n)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6


def test_sub_laplacian_kills_linear_and_central():
    n = 2
    rng = np.random.default_rng(1)
    coords = rng.uniform(-2, 2, (30, 5))
    for field in (lambda c: c[:, 0].copy(), lambda c: c[:, -1].copy()):
        got = sub_laplacian_batch(field, coords, FdConfig())
        assert np.max(np.abs(got)) < 1e-8


def test_harmonicity_residual_small():
    # N^(2-Q) is annihilated by the sub-Laplacian away from the centre
    params = GroupParams(2)
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, (40, 4))
    t = rng.uniform(-3, 3, 40)
    keep = np.linalg.norm(x, axis=1) > 0.7
    coords = np.column_stack([x, t])[keep]
    res = harmonicity_residual_batch(coords, params, FdConfig())
    nn = norm_batch(coords[:, :-1], coords[:, -1])
    q_hom = 2 * 2 + 2
    # scale-free residual: the raw one decays like N^(-Q-2)
    assert np.max(np.abs(res) * nn ** (q_hom + 2)) < 1e-4


def test_harmonicity_rejects_central_line():
    params = GroupParams(2)
    with pytest.raises(ValueError):
        harmonicity_residual_batch(np.array([[0.0, 0.0, 0.0, 0.0, 1.0]]), params, FdConfig())


def test_fd_gradient_polynomial():
    def field(c):
        return c[:, 0] ** 2 + 3.0 * c[:, 1] * c[:, -1]

    coords = np.array([[0.7, -0.2, 0.1, 0.4, 1.2]])
    g = fd_gradient(field, coords, FdConfig())[0]
    want = np.array([1.4, 3.6, 0.0, 0.0, -0.6])
    assert np.allclose(g, want, atol=1e-7)


def test_infinity_laplacian_scaling():
    # degree -1 homogeneity under the dilations
    params = GroupParams(2)
    p = Point(np.array([1.0, 1.0, 0.0, 0.0]), 0.3)
    lam = 2.0
    v1, _ = infinity_laplacian_witness(p, params, FdConfig())
    v2, _ = infinity_laplacian_witness(dilate(lam, p), params, FdConfig())
    assert v2 == pytest.approx(v1 / lam, rel=1e-4)


def test_witness_makes_three_gauge_passes(monkeypatch):
    # one at p for the inner gradient, one per step for the outer stencil
    calls = []

    def counted(*args):
        calls.append(args[0].shape[0])
        return norm.partials_batch(*args)

    monkeypatch.setattr(fd, "partials_batch", counted)
    params = GroupParams(2)
    infinity_laplacian_witness(Point(np.array([1.0, 1.0, 0.0, 0.0]), 0.3), params, FdConfig())
    assert calls == [1, 10, 10]
    with pytest.raises(ValueError):
        infinity_laplacian_witness(Point(np.zeros(4), 0.3), params, FdConfig())


def test_witness_clears_noise_floor():
    params = GroupParams(2)
    p = Point(np.array([1.0, 1.0, 0.0, 0.0]), 0.3)
    value, floor = infinity_laplacian_witness(p, params, FdConfig())
    assert floor > 0
    assert abs(value) > 10 * floor


def test_abelian_slice_is_infinity_harmonic():
    # on t = 0 with only pair coordinates active the gauge is a multiple of
    # |x| there; the infinity-Laplacian of a norm-like radial function
    # vanishes along generic directions
    params = GroupParams(2)
    p = Point(np.array([1.0, 0.0, 1.0, 0.0]), 0.0)
    value, floor = infinity_laplacian_witness(p, params, FdConfig())
    assert abs(value) <= max(10 * floor, 1e-8)
