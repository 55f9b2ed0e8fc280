import numpy as np
import pytest

from conftest import FD_STEP, dilate, norm_field
from reference import fd_gradient, horizontal, sub_laplacian_batch

from hgauge import fd, norm
from hgauge.fd import infinity_laplacian_witness
from hgauge.group import Point, field_coefficients_batch
from hgauge.inequalities import sample_cloud, shell_cloud
from hgauge.norm import ROUNDING_GATE, norm_batch, partials_batch

EPS = np.finfo(float).eps


def _npow_field(power):
    def field(coords):
        return norm_field(coords) ** power

    return field


def _quadratic_field(n):
    # f = |x|^2 + t^2 has sub-Laplacian 4n + 2 sum_j c_j^2 exactly
    def field(coords):
        return np.sum(coords[:, :-1] ** 2, axis=1) + coords[:, -1] ** 2

    return field


def _exact_quadratic_sublap(coords, n):
    c = field_coefficients_batch(coords[:, :-1])
    return 4.0 * n + 2.0 * np.sum(c * c, axis=1)


def test_config_validation():
    coords = np.array([[1.0, 0.5, -0.3, 0.2, 0.4]])
    for h in (-1.6e-3, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            fd_gradient(_quadratic_field(2), coords, h)


@pytest.mark.parametrize("h", [-1.6e-3, 0.0, float("nan"), float("inf")])
def test_harmonicity_check_rejects_bad_step(h):
    # the finite-difference harmonicity check of criterion 03 takes its step
    # from the caller and refuses one that is not finite and positive
    coords = np.array([[1.0, 0.5, -0.3, 0.2, 0.4]])
    with pytest.raises(ValueError, match="finite and positive"):
        sub_laplacian_batch(_npow_field(2 - (2 * 2 + 2)), coords, h)


@pytest.mark.parametrize("width", [3, 4, 6])
def test_rows_of_wrong_width_raise(width):
    # n is read off the rows, so only widths 2n + 1 with n >= 2 are valid
    coords = np.full((3, width), 0.5)
    with pytest.raises(ValueError, match="width 2n \\+ 1"):
        fd_gradient(norm_field, coords, FD_STEP)
    with pytest.raises(ValueError, match="width 2n \\+ 1"):
        norm._harmonicity_residual(coords[:, :-1], coords[:, -1], 2.0 - (width + 1))


@pytest.mark.parametrize("width", [2, 3, 5, 7])
def test_kernels_reject_horizontal_width_not_2n(width):
    # each kernel reads n off the horizontal width, which must be 2n with n >= 2
    x = np.full((2, width), 0.5)
    t = np.full(2, 0.5)
    for call in (
        lambda: norm.norm_batch(x, t),
        lambda: norm.partials_batch(x, t),
        lambda: norm.ab_batch(x),
        lambda: norm._second_order(x, t),
        lambda: field_coefficients_batch(x),
        lambda: sub_laplacian_batch(lambda c: c[:, -1] * c[:, 0], np.column_stack([x, t]), 1e-4),
    ):
        with pytest.raises(ValueError, match="width 2n \\+ 1"):
            call()


def test_sub_laplacian_quadratic():
    n = 3
    rng = np.random.default_rng(0)
    coords = rng.uniform(-2, 2, (50, 2 * n + 1))
    got = sub_laplacian_batch(_quadratic_field(n), coords, 1e-4)
    want = _exact_quadratic_sublap(coords, n)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6


def test_sub_laplacian_kills_linear_and_central():
    n = 2
    rng = np.random.default_rng(1)
    coords = rng.uniform(-2, 2, (30, 5))
    for field in (lambda c: c[:, 0].copy(), lambda c: c[:, -1].copy()):
        got = sub_laplacian_batch(field, coords, 1e-4)
        assert np.max(np.abs(got)) < 1e-8


def test_harmonicity_residual_small():
    # N^(2-Q) is annihilated by the sub-Laplacian away from the centre
    q_hom = 2 * 2 + 2
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, (40, 4))
    t = rng.uniform(-3, 3, 40)
    keep = np.linalg.norm(x, axis=1) > 0.7
    coords = np.column_stack([x, t])[keep]
    res = sub_laplacian_batch(_npow_field(2 - q_hom), coords, 1e-4)
    nn = norm_batch(coords[:, :-1], coords[:, -1])
    # scale-free residual: the raw one decays like N^(-Q-2)
    assert np.max(np.abs(res) * nn ** (q_hom + 2)) < 1e-4


def test_harmonicity_rejects_only_identity():
    # the central line is smooth: a finite residual, no warning; the identity
    # raises as invalid input, and an overflowing field as a numerical breakdown
    field = _npow_field(2 - (2 * 2 + 2))  # 2 - Q at n = 2
    res = sub_laplacian_batch(field, np.array([[0.0, 0.0, 0.0, 0.0, 1.0]]), 1e-4)
    assert np.all(np.isfinite(res))
    with pytest.raises(ValueError, match="identity"):
        sub_laplacian_batch(field, np.zeros((1, 5)), 1e-4)
    with pytest.raises(RuntimeError, match="overflows"):
        sub_laplacian_batch(field, np.array([[1e-200, 0.0, 0.0, 0.0, 0.0]]), 1e-4)


@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_harmonicity_check_passes_on_central_line(n):
    # check fundamental's exact residual on x = 0, where R = S = 0, sits
    # inside its rounding gate
    t = np.geomspace(0.3, 25.0, 6)
    t = np.concatenate([t, -t])
    residual, scale = norm._harmonicity_residual(np.zeros((12, 2 * n)), t, -2.0 * n)
    assert np.all(scale > 0)
    assert np.all(np.abs(residual) <= ROUNDING_GATE * EPS * scale)


def _shell(n):
    coords = shell_cloud(n, 400, seed=n)
    return coords, coords[:, :-1], coords[:, -1]


@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_second_order_kernel_matches_first_order(n):
    # one gradient: N and (N_R, N_S, N_t) are partials_batch's N and
    # (pair_slope / 2, block_slope / 2, dN_dt) bit for bit, on shell rows and
    # on sample_cloud rows, whose dilations span 10^(+-2)
    cloud = sample_cloud(n, 4000, seed=n)
    for x, t in (_shell(n)[1:], (cloud[:, :-1], cloud[:, -1])):
        r, s, nn, grad, _ = norm._second_order(x, t)
        pb = partials_batch(x, t)
        assert np.array_equal(nn, pb.N) and np.array_equal(nn, norm_batch(x, t))
        assert np.array_equal(r, pb.R) and np.array_equal(s, pb.S)
        assert np.array_equal(grad, np.stack([pb.pair_slope / 2, pb.block_slope / 2, pb.dN_dt]))


@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_sub_laplacian_of_n_matches_stencil(n):
    # power 1 makes the residual L N itself; criterion 04 allows 1e-5
    coords, x, t = _shell(n)
    exact = norm._harmonicity_residual(x, t, 1.0)[0]
    stencil = sub_laplacian_batch(norm_field, coords, 1e-4)
    assert np.max(np.abs(exact - stencil) / np.abs(stencil)) <= 1e-5


def _fd_witness(x, t):
    """The two-step FD witness: first differences of |grad_H N|^2 at FD_STEP
    and FD_STEP / 2 against the exact grad_H N, and the floor of that
    estimate (their difference / 3 plus a roundoff term)."""
    coords = np.column_stack([x, t])
    pb = partials_batch(x, t)
    c = field_coefficients_batch(x)

    def grad_sq(rows):
        return partials_batch(rows[:, :-1], rows[:, -1]).grad_sq

    def value(h):
        egrad = fd_gradient(grad_sq, coords, h)
        return 0.5 * np.sum((egrad[:, :-1] + c * egrad[:, -1:]) * horizontal(pb), axis=1)

    coarse, fine = value(FD_STEP), value(FD_STEP / 2)
    h = FD_STEP * (1.0 + np.max(np.abs(coords), axis=1))
    roundoff = EPS * coords.shape[1] * pb.grad_sq * np.sqrt(pb.grad_sq) / h
    return fine, np.abs(coarse - fine) / 3.0 + roundoff


@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_infinity_laplacian_matches_fd_witness(n):
    # the two-step floor is an estimate, not a bound: at n = 2 the exact
    # value sits up to 1.18 floors from the FD value on 7 of 50 seeded
    # 400-row shells, and a 50-digit evaluation of one such row agrees
    # with the exact value to 2e-14, so the test allows two floors
    _, x, t = _shell(n)
    exact = norm._infinity_laplacian(x, t)[0]
    estimate, floor = _fd_witness(x, t)
    assert np.all(np.abs(exact - estimate) <= 2.0 * floor)


def test_fd_gradient_polynomial():
    def field(c):
        return c[:, 0] ** 2 + 3.0 * c[:, 1] * c[:, -1]

    coords = np.array([[0.7, -0.2, 0.1, 0.4, 1.2]])
    g = fd_gradient(field, coords, FD_STEP)[0]
    want = np.array([1.4, 3.6, 0.0, 0.0, -0.6])
    assert np.allclose(g, want, atol=1e-7)


def test_infinity_laplacian_scaling():
    # degree -1 homogeneity under the dilations at every scale: the witness
    # evaluates at unit scale, so its kernel's degree-10 products, which
    # over- or underflow beyond about 1e+-30, never leave the unit range
    # and its rounding ratio, of degree 0, is formed there
    p = Point(np.array([1.0, 1.0, 0.0, 0.0]), 0.3)
    v1, r1 = infinity_laplacian_witness(p)
    for lam in (2.0, 10.0, 1e-3, 1e5, 1e-28, 1e28, 1e-32, 1e31, 1e-150, 1e150):
        v2, r2 = infinity_laplacian_witness(dilate(lam, p))
        assert v2 == pytest.approx(v1 / lam, rel=1e-12)
        assert r2 == pytest.approx(r1, rel=1e-12)


def test_witness_is_exact_with_a_priori_floor():
    # hgauge.fd holds no stencil and no setting of its own, only the exact
    # witness and its rounding ratio |value| / (eps sum |terms|), in the unit
    # of ROUNDING_GATE, the gate of every exact check
    defined = {name for name, v in vars(fd).items() if getattr(v, "__module__", None) == fd.__name__}
    assert defined == {"infinity_laplacian_witness"} and not hasattr(fd, "FLOOR_EPS")
    assert not hasattr(fd, "ROUNDING_GATE")
    p = Point(np.array([1.0, 1.0, 0.0, 0.0]), 0.3)
    value, ratio = infinity_laplacian_witness(p)
    want, scale = norm._infinity_laplacian(p.x[None, :], np.array([p.t]))
    assert (value, ratio) == (want[0], abs(want[0]) / (EPS * scale[0]))
    with pytest.raises(ValueError):
        infinity_laplacian_witness(Point(np.zeros(4), 0.0))


def test_witness_clears_noise_floor():
    p = Point(np.array([1.0, 1.0, 0.0, 0.0]), 0.3)
    _, ratio = infinity_laplacian_witness(p)
    assert ratio > 10 * ROUNDING_GATE


def test_abelian_slice_is_infinity_harmonic():
    # on t = 0 with only the pair coordinates (S = 0), or all the block
    # coordinates (R = 0), active the gauge is a multiple of |x|, whose
    # infinity-Laplacian vanishes: the exact value stays within the rounding
    # gate, at unit scale and at 2^+-900
    rng = np.random.default_rng(12)
    for n in (2, 3, 6, 10):
        block = [j for j in range(2 * n) if j not in (0, n)]
        for scale in (2.0**-900, 1.0, 2.0**900):
            for idx in ([0, n], block):
                for _ in range(20):
                    x = np.zeros(2 * n)
                    x[idx] = scale * rng.uniform(-2.0, 2.0, len(idx))
                    _, ratio = infinity_laplacian_witness(Point(x, 0.0))
                    assert ratio <= ROUNDING_GATE
