"""Pointwise gauge-derivative bounds and the coercivity constants.

Every bound is checked in a scale-free normalised form.  Because the first
derivatives factor as dN/dx_j = x_j * slope(A, B, t), each per-coordinate
bound reduces to a bound on N * slope, which is homogeneous of degree zero
and well defined even where the coordinate vanishes.  The normalised margins
are therefore uniform over dilations, and a single tolerance (default
-1e-12) covers the whole cloud.

Checked bounds, with s_p = N * pair_slope, s_b = N * block_slope and
T = N * |dN/dt|:

    gradient block
      radial-lower      N (x . grad N) / |x|^2 + 1/(4n)              >= 0
      gradient-lower    N^2 |grad N|^2 / |x|^2 - 2^-(5 + 2/n)        >= 0
      gradient-upper    (2n+1)^2 / (2^3 n^2) - N^2 |grad N|^2 / |x|^2 >= 0

    per-coordinate block
      pair-slope-nonneg   s_p                        >= 0
      pair-slope-upper    1/2 - |s_p|                >= 0
      block-slope-lower   s_b + 1/(4n)               >= 0
      block-mixed-lower   |s_b| + T - (2n-1)/(2^(1/n+2) n)  >= 0
      pair-mixed-lower    |s_p| + T/2 - 2^-(2 + 1/n)        >= 0
      block-slope-upper   (2n+1)/(4n) - |s_b|        >= 0
      time-slope-upper    (2n+1)/(4n) - T            >= 0

The coercivity side: for the splitting parameter a > 0 the objective

    f(a) = 2^-(5+2/n) - a/(2n) - (2n+1)^2/(a 2^5 n^3 (n-1)^2) - a/(n(n-1))

is maximised at a* = (2n+1) / (2^2 n sqrt(n^2-1)), and

    2^(5+2/n) f(a*) = 1 - 2^(3+2/n) ((2n+1)/n^2) sqrt(n+1)/(n-1)^(3/2)

is the coercivity margin; it is positive exactly for n >= 6.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .group import GroupParams, Point
from .norm import norm_batch, partials_batch

__all__ = [
    "InequalityReport",
    "draw_cloud",
    "sample_cloud",
    "shell_cloud",
    "check_gradient_bounds",
    "check_partial_bounds",
    "split_objective",
    "alpha_opt",
    "coercivity_margin",
]

DEFAULT_TOLERANCE = -1e-12
EXCLUSION = 1e-3


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one normalised bound over a point cloud."""

    name: str
    n_points: int
    min_margin: float
    worst_point: object  # Point for clouds, a scalar location for grids
    tolerance: float
    passed: bool
    seed: Optional[int] = None

    def as_dict(self) -> dict:
        worst = self.worst_point
        if isinstance(worst, Point):
            worst = [float(v) for v in worst.coords()]
        elif worst is not None:
            worst = float(worst)
        return {
            "name": self.name,
            "n_points": self.n_points,
            "min_margin": self.min_margin,
            "worst_point": worst,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seed": self.seed,
        }


def draw_cloud(
    rng: np.random.Generator,
    params: GroupParams,
    n_points: int,
    x_box: float,
    t_box: float,
    min_radius: float,
    window: Optional[tuple[float, float]],
) -> np.ndarray:
    """The one rejection sampler behind every seeded cloud: (n_points, 2n+1) rows.

    x is uniform in [-x_box, x_box]^{2n} and rows with |x| < min_radius are
    rejected; t is uniform in [-t_box, t_box], drawn only for kept rows.
    With window = (lo, hi) a row is also rejected unless lo < N < hi.
    Rejected rows are redrawn until n_points are kept.  Raises ValueError when
    the box holds no |x| > min_radius, where no row could ever be kept.
    """
    dim = params.horizontal_dim
    if not x_box * math.sqrt(dim) > min_radius:  # min_radius >= 0: x_box <= 0 or NaN fails too
        raise ValueError(f"The x box {x_box!r} holds no |x| > {min_radius!r} in dimension {dim}.")
    out = np.empty((n_points, params.horizontal_dim + 1))
    got = 0
    while got < n_points:
        x = rng.uniform(-x_box, x_box, (n_points - got, params.horizontal_dim))
        x = x[np.linalg.norm(x, axis=1) >= min_radius]
        t = rng.uniform(-t_box, t_box, x.shape[0])
        if window is not None:
            nn = norm_batch(x, t)
            keep = (nn > window[0]) & (nn < window[1])
            x, t = x[keep], t[keep]
        k = x.shape[0]
        out[got : got + k, :-1] = x
        out[got : got + k, -1] = t
        got += k
    return out


def sample_cloud(
    params: GroupParams,
    n_points: int,
    seed: int,
    box: float = 5.0,
) -> np.ndarray:
    """Random (m, 2n+1) cloud: 3/4 uniform box, 1/4 log-radial dilates.

    Rows keep |x| >= EXCLUSION, and box rows take t in [-box^2, box^2]; the
    log-radial part rescales unit-box points by dilation factors 10^U(-2, 2)
    to stress small and large scales.
    """
    rng = np.random.default_rng(seed)
    m_box = (3 * n_points) // 4
    boxed = draw_cloud(rng, params, m_box, box, box * box, EXCLUSION, None)
    radial = draw_cloud(rng, params, n_points - m_box, 1.0, 1.0, EXCLUSION, None)
    lam = 10.0 ** rng.uniform(-2.0, 2.0, n_points - m_box)
    radial[:, :-1] *= lam[:, None]
    radial[:, -1] *= lam * lam
    return np.concatenate([boxed, radial])


def shell_cloud(params: GroupParams, n_points: int, seed: int) -> np.ndarray:
    """Random (m, 2n+1) cloud on a gauge shell, for finite-difference checks.

    x in [-2, 2]^{2n} with |x| >= 1/2, t in [-3, 3] and 1/2 < N < 5: every
    row keeps its FD stencil clear of the central line and the identity.
    """
    return draw_cloud(np.random.default_rng(seed), params, n_points, 2.0, 3.0, 0.5, (0.5, 5.0))


def _cloud_reports(
    names: Sequence[str],
    margin_fn,
    params: GroupParams,
    n_points: int,
    seed: int,
    box: float,
    tolerance: float,
    threads: Optional[int],
) -> list[InequalityReport]:
    """One report per named column of margin_fn over sample_cloud.

    margin_fn maps a coordinate block to an (m, k) margin matrix; with
    threads > 1, clouds of 20000 points or more are split over a thread pool.
    """
    coords = sample_cloud(params, n_points, seed, box=box)
    if threads is None or threads <= 1 or coords.shape[0] < 20000:
        margins = margin_fn(coords)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            margins = np.concatenate(list(pool.map(margin_fn, np.array_split(coords, threads * 4))))
    out = []
    for i, name in enumerate(names):
        col = margins[:, i]
        worst = int(np.argmin(col))
        row = coords[worst]
        out.append(
            InequalityReport(
                name=name,
                n_points=coords.shape[0],
                min_margin=float(col[worst]),
                worst_point=Point(row[:-1], float(row[-1])),
                tolerance=tolerance,
                passed=bool(col[worst] >= tolerance),
                seed=seed,
            )
        )
    return out


_GRADIENT_NAMES = ("radial-lower", "gradient-lower", "gradient-upper")


def check_gradient_bounds(
    params: GroupParams,
    n_points: int,
    seed: int,
    box: float = 5.0,
    tolerance: float = DEFAULT_TOLERANCE,
    threads: Optional[int] = None,
) -> list[InequalityReport]:
    """Radial and two-sided gradient bounds on a random cloud."""
    n = params.n

    lower_const = 2.0 ** -(5.0 + 2.0 / n)
    upper_const = (2 * n + 1) ** 2 / (2.0 ** 3 * n * n)

    def margins(block: np.ndarray) -> np.ndarray:
        pb = partials_batch(block[:, :-1], block[:, -1])
        xsq = np.sum(block[:, :-1] ** 2, axis=1)
        ratio = pb.N * pb.N * pb.grad_sq / xsq
        m1 = pb.N * pb.x_dot / xsq + 1.0 / (4 * n)
        m2 = ratio - lower_const
        m3 = upper_const - ratio
        return np.column_stack([m1, m2, m3])

    return _cloud_reports(_GRADIENT_NAMES, margins, params, n_points, seed, box, tolerance, threads)


_PARTIAL_NAMES = (
    "pair-slope-nonneg",
    "pair-slope-upper",
    "block-slope-lower",
    "block-mixed-lower",
    "pair-mixed-lower",
    "block-slope-upper",
    "time-slope-upper",
)


def check_partial_bounds(
    params: GroupParams,
    n_points: int,
    seed: int,
    box: float = 5.0,
    tolerance: float = DEFAULT_TOLERANCE,
    threads: Optional[int] = None,
) -> list[InequalityReport]:
    """Per-coordinate slope bounds on a random cloud."""
    n = params.n

    mixed_block_const = (2 * n - 1) / (2.0 ** (1.0 / n + 2.0) * n)
    mixed_pair_const = 2.0 ** -(2.0 + 1.0 / n)

    def margins(block: np.ndarray) -> np.ndarray:
        pb = partials_batch(block[:, :-1], block[:, -1])
        sp = pb.N * pb.pair_slope
        sb = pb.N * pb.block_slope
        tt = pb.N * np.abs(pb.dN_dt)
        return np.column_stack(
            [
                sp,
                0.5 - np.abs(sp),
                sb + 1.0 / (4 * n),
                np.abs(sb) + tt - mixed_block_const,
                np.abs(sp) + 0.5 * tt - mixed_pair_const,
                (2 * n + 1) / (4.0 * n) - np.abs(sb),
                (2 * n + 1) / (4.0 * n) - tt,
            ]
        )

    return _cloud_reports(_PARTIAL_NAMES, margins, params, n_points, seed, box, tolerance, threads)


def split_objective(alpha: float, n: int) -> float:
    """Coefficient left on the coercive term after the splitting with weight alpha."""
    if alpha <= 0:
        raise ValueError(f"Need alpha > 0, got {alpha}.")
    _check_n(n)
    return (
        2.0 ** -(5.0 + 2.0 / n)
        - alpha / (2 * n)
        - (2 * n + 1) ** 2 / (alpha * 2 ** 5 * n ** 3 * (n - 1) ** 2)
        - alpha / (n * (n - 1))
    )


def alpha_opt(n: int) -> float:
    """Stationary point of the split objective."""
    _check_n(n)
    return (2 * n + 1) / (4.0 * n * math.sqrt(n * n - 1.0))


def coercivity_margin(n: int) -> float:
    """1 - 2^(3+2/n) ((2n+1)/n^2) sqrt(n+1)/(n-1)^(3/2).

    Positive iff the splitting closes; this happens exactly for n >= 6.
    Equals 2^(5+2/n) * split_objective(alpha_opt(n), n).
    """
    _check_n(n)
    return 1.0 - 2.0 ** (3.0 + 2.0 / n) * ((2 * n + 1) / n ** 2) * math.sqrt(
        n + 1.0
    ) / (n - 1.0) ** 1.5


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"Need an integer n >= 2, got {n!r}.")
