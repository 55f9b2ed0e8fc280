"""Pointwise gauge-derivative bounds and the coercivity constants.

Every bound is checked in a scale-free normalised form.  Because the first
derivatives factor as dN/dx_j = x_j * slope(A, B, t), each per-coordinate
bound reduces to a bound on N * slope, which is homogeneous of degree zero
and well defined even where the coordinate vanishes.  The normalised margins
are therefore uniform over dilations, and one fixed tolerance, TOLERANCE =
-1e-12, covers the whole cloud.  For the same reason sample_cloud's box is
the constant BOX: its box rows at a box B are, up to rounding, delta_B of its
rows at box 1, drawn from the same stream positions, and no margin sees delta_B.

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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .group import GroupParams, Point, _check_n
from .norm import norm_batch, partials_batch

__all__ = [
    "InequalityReport",
    "draw_rows",
    "sample_cloud",
    "shell_cloud",
    "check_gradient_bounds",
    "check_partial_bounds",
    "split_objective",
    "alpha_opt",
    "coercivity_margin",
]

TOLERANCE = -1e-12  # a margin at or above this passes
BOX = 5.0  # sample_cloud: x in [-BOX, BOX]^{2n}, t in [-BOX^2, BOX^2]
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


def _check_box(x_box: float, t_box: float, min_radius: float) -> None:
    # x_box >= min_radius keeps the ball |x| < min_radius inside the box, so at
    # least 1 - V_2n(1) / 2^2n of the rows (0.69 at 2n = 4) are kept
    if not x_box >= min_radius:  # NaN fails too
        raise ValueError(f"The x box {x_box!r} is below the exclusion radius {min_radius!r}.")
    if not (math.isfinite(2.0 * x_box) and math.isfinite(2.0 * t_box)):
        raise ValueError(f"The box widths 2*{x_box!r} and 2*{t_box!r} must be finite.")


def _check_points(n_points: int) -> None:
    if not n_points >= 1:
        raise ValueError(f"Need at least 1 point, got {n_points!r}.")


def _uniform(seed: int, position: int, size: int, lo, hi) -> np.ndarray:
    """default_rng(seed).uniform(lo, hi, size) with the stream advanced to position.

    Generator.uniform is lo + (hi - lo) * random(), one PCG64 output per double.
    """
    lo, hi = float(lo), float(hi)
    out = np.random.Generator(np.random.PCG64(seed).advance(position)).random(size)
    out *= hi - lo
    out += lo
    return out


def _in_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """np.linalg.norm(x, axis=1) < radius, bit for bit, on (rows, 2n) x.

    The norm is taken only on rows with |x_1| < 2 radius.  A rounded sum of
    non-negative squares is at least fl(x_1^2), so every other row has
    |x| >= radius while radius stays far above the underflow range.
    """
    out = np.zeros(x.shape[0], dtype=bool)
    near = np.flatnonzero(np.abs(x[:, 0]) < 2.0 * radius)
    out[near] = np.linalg.norm(x[near], axis=1) < radius
    return out


def _draw(
    params: GroupParams,
    seed: int,
    origin: int,
    m: int,
    x_box: float,
    t_box: float,
    min_radius: float,
    window: Optional[tuple[float, float]],
    span: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """draw_rows as its columns: contiguous x of shape (rows, 2n) and t of shape (rows,)."""
    _check_points(m)
    _check_box(x_box, t_box, min_radius)
    dim = params.horizontal_dim
    a, b = span
    x = _uniform(seed, origin + a * dim, (b - a) * dim, -x_box, x_box).reshape(-1, dim)
    t = _uniform(seed, origin + m * dim + a, b - a, -t_box, t_box)

    def rejected(x: np.ndarray, t: np.ndarray) -> np.ndarray:
        out = _in_ball(x, min_radius)
        if window is not None:
            nn = norm_batch(x, t)
            out |= ~((nn > window[0]) & (nn < window[1]))
        return out

    redraw = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(origin, a)))
    bad = np.flatnonzero(rejected(x, t))
    while bad.size:
        x[bad] = redraw.uniform(-x_box, x_box, (bad.size, dim))
        t[bad] = redraw.uniform(-t_box, t_box, bad.size)
        bad = bad[rejected(x[bad], t[bad])]
    return x, t


def draw_rows(
    params: GroupParams,
    seed: int,
    origin: int,
    m: int,
    x_box: float,
    t_box: float,
    min_radius: float,
    window: Optional[tuple[float, float]],
    span: tuple[int, int],
) -> np.ndarray:
    """The one sampler behind every seeded cloud: rows span[0]:span[1] of an m-row part.

    Row i takes x uniform in [-x_box, x_box]^{2n} from the PCG64 stream of
    seed at positions origin + i*2n and t uniform in [-t_box, t_box] at
    origin + m*2n + i.  A row with |x| < min_radius, or with window = (lo, hi)
    and N outside (lo, hi), is redrawn in place from a stream keyed by
    (seed, origin, span[0]), so a rejection moves no other row.  Raises
    ValueError when x_box < min_radius or a width 2 x_box or 2 t_box is not
    a finite float.  The rows are drawn as x and t columns and stacked into
    (rows, 2n+1) coordinate rows on return.
    """
    return np.column_stack(_draw(params, seed, origin, m, x_box, t_box, min_radius, window, span))


_CHUNK = 1 << 15  # rows per span of sample_cloud


def _spans(n_points: int) -> list[tuple[int, int]]:
    """sample_cloud's row ranges of at most _CHUNK rows; none mixes box and radial rows."""
    _check_points(n_points)
    m_box = (3 * n_points) // 4
    parts = ((0, m_box), (m_box, n_points))
    return [(a, min(a + _CHUNK, end)) for lo, end in parts for a in range(lo, end, _CHUNK)]


def _span_rows(
    params: GroupParams, n_points: int, seed: int, span: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Rows span[0]:span[1] of sample_cloud as (x, t) columns: box rows, or
    radial rows with their dilations applied to x and t in place."""
    m_box = (3 * n_points) // 4
    if span[0] < m_box:
        return _draw(params, seed, 0, m_box, BOX, BOX * BOX, EXCLUSION, None, span)
    # the radial part's stream follows the box part's, and its dilations follow its rows
    a, b = span[0] - m_box, span[1] - m_box
    width = params.horizontal_dim + 1  # stream positions per row
    m, origin = n_points - m_box, m_box * width
    x, t = _draw(params, seed, origin, m, 1.0, 1.0, EXCLUSION, None, (a, b))
    lam = 10.0 ** _uniform(seed, origin + m * width + a, b - a, -2.0, 2.0)
    x *= lam[:, None]
    t *= lam * lam
    return x, t


def sample_cloud(params: GroupParams, n_points: int, seed: int) -> np.ndarray:
    """Random (m, 2n+1) cloud: 3/4 uniform box, 1/4 log-radial dilates.

    Rows keep |x| >= EXCLUSION.  Box rows take x in [-BOX, BOX]^{2n} and t in
    [-BOX^2, BOX^2]; the log-radial part rescales unit-box points by dilation
    factors 10^U(-2, 2) to stress small and large scales.  The rows are those
    of the spans that the bound checks stream, stacked as coordinate rows.
    """
    spans = _spans(n_points)
    return np.concatenate(
        [np.column_stack(_span_rows(params, n_points, seed, span)) for span in spans]
    )


def shell_cloud(params: GroupParams, n_points: int, seed: int) -> np.ndarray:
    """Random (m, 2n+1) cloud on a gauge shell, for finite-difference checks.

    x in [-2, 2]^{2n} with |x| >= 1/2, t in [-3, 3] and 1/2 < N < 5: every
    row keeps its FD stencil clear of the central line and the identity.
    """
    return draw_rows(params, seed, 0, n_points, 2.0, 3.0, 0.5, (0.5, 5.0), (0, n_points))


def _cloud_reports(
    names: Sequence[str],
    margin_fn,
    params: GroupParams,
    n_points: int,
    seed: int,
    threads: Optional[int],
) -> list[InequalityReport]:
    """One report per named column of margin_fn over sample_cloud, streamed.

    margin_fn maps a span's columns x, of shape (rows, 2n), and t, of shape
    (rows,), to a (rows, k) margin matrix, best stored column by column (the
    transpose of a stacked (k, rows) array) so that each column's minimum
    reads contiguous memory.  The cloud is never built: each of sample_cloud's
    spans of _CHUNK rows draws its own x and t and keeps only its per-column
    minima, with a coordinate row built only for the first row attaining
    each, so time grows linearly and memory stays flat in n_points.  Spans run
    on a pool of min(threads, os.cpu_count()) workers, one per CPU when
    threads is None; threads below 1 raise ValueError.  The reports are those
    of the whole sample_cloud.
    """
    spans = _spans(n_points)
    cpus = os.cpu_count() or 1
    workers = cpus if threads is None else min(threads, cpus)

    def span_minima(span):
        """(per-column minimum of margin_fn over the span, the first row attaining each)."""
        x, t = _span_rows(params, n_points, seed, span)
        margins = margin_fn(x, t)
        worst = np.argmin(margins, axis=0)
        return margins[worst, np.arange(margins.shape[1])], np.column_stack([x[worst], t[worst]])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(span_minima, spans))
    minima = np.stack([part[0] for part in parts])  # (spans, k)
    rows = np.stack([part[1] for part in parts])  # (spans, k, 2n+1)
    first = np.argmin(minima, axis=0)  # spans run in row order: the first row attaining the minimum
    out = []
    for i, name in enumerate(names):
        value, row = minima[first[i], i], rows[first[i], i]
        out.append(
            InequalityReport(
                name=name,
                n_points=n_points,
                min_margin=float(value),
                worst_point=Point(row[:-1], float(row[-1])),
                tolerance=TOLERANCE,
                passed=bool(value >= TOLERANCE),
                seed=seed,
            )
        )
    return out


_GRADIENT_NAMES = ("radial-lower", "gradient-lower", "gradient-upper")


def check_gradient_bounds(
    params: GroupParams,
    n_points: int,
    seed: int,
    threads: Optional[int] = None,
) -> list[InequalityReport]:
    """Radial and two-sided gradient bounds on a random cloud."""
    n = params.n

    lower_const = 2.0 ** -(5.0 + 2.0 / n)
    upper_const = (2 * n + 1) ** 2 / (2.0 ** 3 * n * n)

    def margins(x: np.ndarray, t: np.ndarray) -> np.ndarray:
        pb = partials_batch(x, t)
        xsq = pb.R + pb.S  # |x|^2
        ratio = pb.N * pb.N * pb.grad_sq / xsq
        m1 = pb.N * pb.x_dot / xsq + 1.0 / (4 * n)
        m2 = ratio - lower_const
        m3 = upper_const - ratio
        return np.stack([m1, m2, m3]).T

    return _cloud_reports(_GRADIENT_NAMES, margins, params, n_points, seed, threads)


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
    threads: Optional[int] = None,
) -> list[InequalityReport]:
    """Per-coordinate slope bounds on a random cloud."""
    n = params.n

    mixed_block_const = (2 * n - 1) / (2.0 ** (1.0 / n + 2.0) * n)
    mixed_pair_const = 2.0 ** -(2.0 + 1.0 / n)

    def margins(x: np.ndarray, t: np.ndarray) -> np.ndarray:
        pb = partials_batch(x, t)
        sp = pb.N * pb.pair_slope
        sb = pb.N * pb.block_slope
        tt = pb.N * np.abs(pb.dN_dt)
        return np.stack(
            [
                sp,
                0.5 - np.abs(sp),
                sb + 1.0 / (4 * n),
                np.abs(sb) + tt - mixed_block_const,
                np.abs(sp) + 0.5 * tt - mixed_pair_const,
                (2 * n + 1) / (4.0 * n) - np.abs(sb),
                (2 * n + 1) / (4.0 * n) - tt,
            ]
        ).T

    return _cloud_reports(_PARTIAL_NAMES, margins, params, n_points, seed, threads)


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
