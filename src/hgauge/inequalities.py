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

Every margin has degree 0, so the checks build no PartialsBatch: phi = R/|x|^2,
s_p, s_b and T come from norm._chart_slopes, which evaluates them on the
slice B = 1 of the orbit chart, and this module keeps only the margin
arithmetic.  The chart reads a row only through |x|^2, R and t, so the
checks never hold a cloud's coordinates: each span of _CHUNK rows is drawn
in blocks of _BLOCK rows through one reused buffer, which keeps those three
numbers per row, and only each column's worst row is drawn again as a point.
With |x|^2 = R + S the gradient block reads

    N (x . grad N) / |x|^2   = phi s_p + (1 - phi) s_b,
    N^2 |grad N|^2 / |x|^2  = phi s_p^2 + (1 - phi) s_b^2 + (phi/4 + 1 - phi) T^2.

norm.partials_batch holds the same formulas on raw (A, B, t), and its pinned
bits keep it apart.  The margins hold wherever |x|^2 is a normal float and
|t|/|x|^2 is below about 1e150, far past partials_batch's 1e-50 to 1e50.

The coercivity side: for the splitting parameter a > 0 the objective

    f(a) = 2^-(5+2/n) - a/(2n) - (2n+1)^2/(a 2^5 n^3 (n-1)^2) - a/(n(n-1))

is maximised at a* = (2n+1) / (2^2 n sqrt(n^2-1)), and

    2^(5+2/n) f(a*) = 1 - 2^(3+2/n) ((2n+1)/n^2) sqrt(n+1)/(n-1)^(3/2)

is the coercivity margin; it is positive exactly for n >= 6.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .group import Point, _check_n
from .norm import _chart_slopes, _row_dots

__all__ = [
    "InequalityReport",
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
    worst_point: Point  # the first cloud row attaining min_margin
    tolerance: float
    passed: bool
    seed: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "n_points": self.n_points,
            "min_margin": self.min_margin,
            "worst_point": [float(v) for v in self.worst_point.coords()],
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seed": self.seed,
        }


def _check_points(n_points: int) -> None:
    if not n_points >= 1:
        raise ValueError(f"Need at least 1 point, got {n_points!r}.")


def _stream(seed: int, position: int) -> np.random.Generator:
    """default_rng(seed) with its PCG64 stream advanced to position."""
    return np.random.Generator(np.random.PCG64(seed).advance(position))


def _scaled(out: np.ndarray, lo, hi) -> np.ndarray:
    """random()'s doubles in out, scaled in place as Generator.uniform(lo, hi) scales them."""
    lo, hi = float(lo), float(hi)
    out *= hi - lo
    out += lo
    return out


def _uniform(seed: int, position: int, size: int, lo, hi) -> np.ndarray:
    """default_rng(seed).uniform(lo, hi, size) with the stream advanced to position.

    Generator.uniform is lo + (hi - lo) * random(), one PCG64 output per double.
    """
    return _scaled(_stream(seed, position).random(size), lo, hi)


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


_BLOCK = 1 << 13  # rows of x that _draw holds at once


def _draw(
    n: int,
    seed: int,
    origin: int,
    m: int,
    x_box: float,
    t_box: float,
    min_radius: float,
    span: tuple[int, int],
    keep,
    dilate: bool = False,
) -> np.ndarray:
    """The one sampler behind every seeded cloud: rows span[0]:span[1] of an m-row part.

    Row i takes x uniform in [-x_box, x_box]^{2n} from the PCG64 stream of
    seed at positions origin + i*2n and t uniform in [-t_box, t_box] at
    origin + m*2n + i; with dilate, a factor lam = 10^U(-2, 2) at
    origin + m*(2n+1) + i then scales x by lam and t by lam^2.  A row with
    |x| < min_radius, the one rejection, is redrawn in place from a stream
    keyed by (seed, origin, span[0]), so a rejection moves no other row.
    Every caller's ball excludes under a third of its box, which keeps the
    redraw loop short: the worst case is the tests' BOX = 1e-3 at n = 2,
    where the ball is pi^2/32, about 31%, of the box.

    x is drawn in blocks of _BLOCK rows into one reused buffer, and only the
    caller keeps what it needs of them: keep(rows, x) receives each block's
    final x with rows the slice of span rows it holds, then, if any row was
    rejected, the redrawn rows' final x with rows their sorted index array.
    A block's rejected rows reach keep before their redraw.  Returns the t
    column of the span.
    """
    dim = 2 * n
    a, b = span
    t = _uniform(seed, origin + m * dim + a, b - a, -t_box, t_box)
    lam = 10.0 ** _uniform(seed, origin + m * (dim + 1) + a, b - a, -2.0, 2.0) if dilate else None
    stream = _stream(seed, origin + a * dim)
    buffer = np.empty((min(_BLOCK, b - a), dim))
    rejected = []
    for lo in range(0, b - a, _BLOCK):
        hi = min(lo + _BLOCK, b - a)
        x = buffer[: hi - lo]
        _scaled(stream.random(out=x), -x_box, x_box)
        bad = np.flatnonzero(_in_ball(x, min_radius))
        if bad.size:
            rejected.append(bad + lo)
        if dilate:
            x *= lam[lo:hi, None]
        keep(slice(lo, hi), x)
    if rejected:  # a SeedSequence costs tens of microseconds: built only for a redraw
        bad = np.concatenate(rejected)
        x = np.empty((bad.size, dim))
        redraw = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(origin, a)))
        live = np.arange(bad.size)
        while live.size:
            x[live] = redraw.uniform(-x_box, x_box, (live.size, dim))
            t[bad[live]] = redraw.uniform(-t_box, t_box, live.size)
            live = live[_in_ball(x[live], min_radius)]
        if dilate:
            x *= lam[bad, None]
        keep(bad, x)
    if dilate:
        t *= lam * lam
    return t


_CHUNK = 1 << 15  # rows per span of sample_cloud


def _spans(n_points: int) -> list[tuple[int, int]]:
    """sample_cloud's row ranges of at most _CHUNK rows; none mixes box and radial rows."""
    _check_points(n_points)
    m_box = (3 * n_points) // 4
    parts = ((0, m_box), (m_box, n_points))
    return [(a, min(a + _CHUNK, end)) for lo, end in parts for a in range(lo, end, _CHUNK)]


def _span_rows(n: int, n_points: int, seed: int, span: tuple[int, int], keep) -> np.ndarray:
    """Rows span[0]:span[1] of sample_cloud through _draw's keep; returns their t.

    Box rows, or radial rows, whose part's stream follows the box part's.
    """
    m_box = (3 * n_points) // 4
    if span[0] < m_box:
        return _draw(n, seed, 0, m_box, BOX, BOX * BOX, EXCLUSION, span, keep)
    m = n_points - m_box
    span = (span[0] - m_box, span[1] - m_box)
    return _draw(n, seed, m_box * (2 * n + 1), m, 1.0, 1.0, EXCLUSION, span, keep, dilate=True)


def _into(out: np.ndarray):
    """The keep that writes _draw's x rows into out's first 2n columns."""

    def keep(rows, x):
        out[rows, : x.shape[1]] = x

    return keep


def _part(
    n: int, seed: int, m: int, x_box: float, t_box: float, min_radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """x of shape (m, 2n) and t of shape (m,) of a whole m-row part of _draw at origin 0."""
    _check_points(m)
    x = np.empty((m, 2 * n))
    return x, _draw(n, seed, 0, m, x_box, t_box, min_radius, (0, m), _into(x))


def sample_cloud(n: int, n_points: int, seed: int) -> np.ndarray:
    """Random (m, 2n+1) cloud: 3/4 uniform box, 1/4 log-radial dilates.

    Rows keep |x| >= EXCLUSION.  Box rows take x in [-BOX, BOX]^{2n} and t in
    [-BOX^2, BOX^2]; the log-radial part rescales unit-box points by dilation
    factors 10^U(-2, 2) to stress small and large scales.  The rows are those
    of the spans that the bound checks stream, written as coordinate rows.
    """
    _check_n(n)
    spans = _spans(n_points)
    cloud = np.empty((n_points, 2 * n + 1))
    for a, b in spans:
        cloud[a:b, -1] = _span_rows(n, n_points, seed, (a, b), _into(cloud[a:b]))
    return cloud


def shell_cloud(n: int, n_points: int, seed: int) -> np.ndarray:
    """Random (m, 2n+1) cloud clear of the central line, the rows of check fundamental.

    x in [-2, 2]^{2n} with |x| >= 1/2 and t in [-3, 3]: clear of the central
    line and the identity, as the tests' FD stencils need too.  The draw
    never reads the gauge, so N's median grows with n (5.1 at n = 20, 7.2
    at n = 40) while the rejected share stays that of the ball.
    Its callers take coordinate rows, so _part's columns are stacked.
    """
    _check_n(n)
    return np.column_stack(_part(n, seed, n_points, 2.0, 3.0, 0.5))


def _cloud_reports(
    names: Sequence[str],
    margin_fn,
    n: int,
    n_points: int,
    seed: int,
    threads: Optional[int],
) -> list[InequalityReport]:
    """One report per named margin column of margin_fn over sample_cloud, streamed.

    margin_fn maps a span's chart values (phi, s_p, s_b, T), each of shape
    (rows,), from norm._chart_slopes, to a sequence of k margin columns of
    the same shape, and may overwrite its arguments.  A row's margins then
    depend on its chart point alone, that is on |x|^2, R and t, so streamed
    and materialised clouds report alike.  The cloud is never built: each
    of sample_cloud's spans of _CHUNK rows draws its x in blocks of _BLOCK
    rows through _draw and keeps only the two row dots of norm._row_dots
    and t, then the minimum of each column and the first row attaining it.
    Only the first worst row of each column over the whole cloud is drawn
    again as coordinates, from its own stream positions, or from its span's
    redrawn rows if it was rejected once.  Time grows linearly in n_points,
    and memory per pool thread is one block of x plus a span's row sums.
    Spans run on a pool of min(threads, os.cpu_count()) workers, one per CPU
    when threads is None; threads below 1 raise ValueError.  The reports are
    those of the whole sample_cloud.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, not at import: only this pool needs it

    spans = _spans(n_points)
    cpus = os.cpu_count() or 1
    workers = cpus if threads is None else min(threads, cpus)

    def span_minima(span):
        """(per-column minimum over the span, the cloud row of the first attaining
        each, {cloud row: coordinates} of those among them that were redrawn)."""
        xsq, r = np.empty(span[1] - span[0]), np.empty(span[1] - span[0])
        redrawn = {}  # span row: final x of a row rejected once

        def keep(i, x):
            xsq[i], r[i] = _row_dots(x)
            if not isinstance(i, slice):
                redrawn.update(zip(i.tolist(), x))

        t = _span_rows(n, n_points, seed, span, keep)
        columns = margin_fn(*_chart_slopes(n, xsq, r, t))
        worst = [int(np.argmin(col)) for col in columns]
        found = {span[0] + i: np.append(redrawn[i], t[i]) for i in worst if i in redrawn}
        return [col[i] for col, i in zip(columns, worst)], [span[0] + i for i in worst], found

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(span_minima, spans))
    # spans run in row order: the first span attaining a minimum holds its first row
    first = np.argmin([part[0] for part in parts], axis=0)
    out = []
    for c, name in enumerate(names):
        minima, worst, found = parts[first[c]]
        value, i = minima[c], worst[c]
        row = found[i] if i in found else _fetch_row(n, n_points, seed, i)
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


def _fetch_row(n: int, n_points: int, seed: int, i: int) -> np.ndarray:
    """Coordinates of sample_cloud's row i, drawn alone from its stream positions.

    Right for every row that was not rejected: a rejected row's redraw is
    keyed by its span's start, which a one-row span does not share.
    """
    found = []
    t = _span_rows(n, n_points, seed, (i, i + 1), lambda rows, x: found.append(x[0]))
    return np.append(found[0], t[0])


_GRADIENT_NAMES = ("radial-lower", "gradient-lower", "gradient-upper")


def check_gradient_bounds(
    n: int,
    n_points: int,
    seed: int,
    threads: Optional[int] = None,
) -> list[InequalityReport]:
    """Radial and two-sided gradient bounds on a random cloud."""
    _check_n(n)

    lower_const = 2.0 ** -(5.0 + 2.0 / n)
    upper_const = (2 * n + 1) ** 2 / (2.0 ** 3 * n * n)

    def margins(phi, sp, sb, tt):
        radial = np.subtract(sp, sb)  # phi s_p + (1 - phi) s_b + 1/(4n)
        radial *= phi
        radial += sb
        radial += 1.0 / (4 * n)
        # ratio = s_b^2 + T^2 + phi (s_p^2 - s_b^2 - 3/4 T^2), in sp
        sp *= sp
        sb *= sb
        tt *= tt
        sp -= sb
        sb += tt
        tt *= 0.75
        sp -= tt
        sp *= phi
        sp += sb
        return radial, np.subtract(sp, lower_const, out=sb), np.subtract(upper_const, sp, out=sp)

    return _cloud_reports(_GRADIENT_NAMES, margins, n, n_points, seed, threads)


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
    n: int,
    n_points: int,
    seed: int,
    threads: Optional[int] = None,
) -> list[InequalityReport]:
    """Per-coordinate slope bounds on a random cloud."""
    _check_n(n)

    mixed_block_const = (2 * n - 1) / (2.0 ** (1.0 / n + 2.0) * n)
    mixed_pair_const = 2.0 ** -(2.0 + 1.0 / n)

    def margins(phi, sp, sb, tt):
        abs_p, abs_b = np.abs(sp), np.abs(sb)
        mixed_block = abs_b + tt
        mixed_block -= mixed_block_const
        mixed_pair = 0.5 * tt
        mixed_pair += abs_p
        mixed_pair -= mixed_pair_const
        top = (2 * n + 1) / (4.0 * n)
        return (
            sp,
            np.subtract(0.5, abs_p, out=abs_p),
            np.add(sb, 1.0 / (4 * n), out=sb),
            mixed_block,
            mixed_pair,
            np.subtract(top, abs_b, out=abs_b),
            np.subtract(top, tt, out=tt),
        )

    return _cloud_reports(_PARTIAL_NAMES, margins, n, n_points, seed, threads)


def _split_terms(alpha: float, n: int) -> tuple[float, ...]:
    """The four terms of the split objective, the one home of its formula."""
    if alpha <= 0:
        raise ValueError(f"Need alpha > 0, got {alpha}.")
    _check_n(n)
    return (
        2.0 ** -(5.0 + 2.0 / n),
        -alpha / (2 * n),
        -(2 * n + 1) ** 2 / (alpha * 2 ** 5 * n ** 3 * (n - 1) ** 2),
        -alpha / (n * (n - 1)),
    )


def split_objective(alpha: float, n: int) -> float:
    """Coefficient left on the coercive term after the splitting with weight alpha."""
    return sum(_split_terms(alpha, n))


def _split_slope(alpha: float, n: int) -> tuple[float, float]:
    """f'(alpha) and the sum of its terms' magnitudes, which sets its rounding.

    alpha f'(alpha) is the sum of f's alpha terms with the 1/alpha one negated.
    """
    _, lin, inv, lin2 = _split_terms(alpha, n)
    terms = (lin / alpha, -inv / alpha, lin2 / alpha)
    return sum(terms), sum(abs(term) for term in terms)


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
