"""Group structure of the anisotropic Heisenberg group H_{2n}(1/2, 1).

Points live on R^{2n+1} with coordinates (x_1, ..., x_{2n}, t).  The pair
(x_1, x_{n+1}) carries symplectic weight 1/2, every remaining pair
(x_j, x_{j+n}) carries weight 1, and t is the central coordinate.  The
dilation delta_lam(x, t) = (lam x, lam^2 t) is a group automorphism, so the
homogeneous dimension is Q = 2n + 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupParams",
    "Point",
    "compose",
    "inverse",
    "dilate",
    "field_coefficients",
    "field_coefficients_batch",
]


def _check_n(n: int) -> None:
    """The one check of the layer parameter: an integer n >= 2."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"Need an integer n >= 2, got {n!r}.")


def _width_n(x: np.ndarray) -> int:
    """n read off horizontal parts x of width 2n; the width must be even and at least 4.

    Integer arithmetic on the shape alone: the gauge kernels call this once per batch.
    """
    n, odd = divmod(x.shape[-1], 2)
    if odd or n < 2:
        raise ValueError(
            "Coordinate rows must have width 2n + 1, and horizontal parts width 2n, "
            f"with n >= 2; got a horizontal width of {x.shape[-1]}."
        )
    return n


@dataclass(frozen=True)
class GroupParams:
    """Layer parameter n >= 2; the horizontal layer has dimension 2n."""

    n: int

    def __post_init__(self) -> None:
        _check_n(self.n)

    @property
    def horizontal_dim(self) -> int:
        return 2 * self.n

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + 1


@dataclass(frozen=True, eq=False)
class Point:
    """A group element: horizontal part x (length 2n) and central part t."""

    x: np.ndarray
    t: float

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.t == other.t and np.array_equal(self.x, other.x)

    def __hash__(self) -> int:
        return hash((self.x.tobytes(), self.t))

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"Point.x must be a flat array, got shape {x.shape}.")
        _width_n(x)
        if not np.all(np.isfinite(x)) or not np.isfinite(self.t):
            raise ValueError("Point coordinates must be finite.")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return self.x.size // 2

    def coords(self) -> np.ndarray:
        """Flat coordinate vector (x_1, ..., x_{2n}, t)."""
        return np.concatenate([self.x, [self.t]])


def _check_match(p: Point, q: Point) -> None:
    if p.n != q.n:
        raise ValueError(f"Dimension mismatch: n={p.n} vs n={q.n}.")


def compose(p: Point, q: Point) -> Point:
    """Group product p * q.

    The central coordinate picks up the twist eta . c(x), where c is the
    vector of central coefficients of the horizontal fields at x.
    """
    _check_match(p, q)
    twist = float(q.x @ field_coefficients(p))
    return Point(p.x + q.x, p.t + q.t + twist)


def inverse(p: Point) -> Point:
    """Group inverse; coordinate negation."""
    return Point(-p.x, -p.t)


def dilate(lam: float, p: Point) -> Point:
    """Anisotropic dilation delta_lam(x, t) = (lam x, lam^2 t), lam > 0."""
    if not lam > 0:
        raise ValueError(f"Dilation factor must be positive, got {lam}.")
    return Point(lam * p.x, lam * lam * p.t)


def field_coefficients(p: Point) -> np.ndarray:
    """Central coefficients c_j(x) of the horizontal fields X_j = d_j + c_j d_t.

    c_1 = -x_{n+1}/2 and c_{n+1} = x_1/2 on the distinguished pair;
    c_j = -x_{j+n} and c_{j+n} = x_j on the remaining pairs.
    """
    return field_coefficients_batch(p.x[None, :])[0]


def field_coefficients_batch(x: np.ndarray) -> np.ndarray:
    """Vectorised field_coefficients for an (m, 2n) array of horizontal parts."""
    x = np.asarray(x, dtype=float)
    n = _width_n(x)
    c = np.empty_like(x)
    c[..., 0] = -0.5 * x[..., n]
    c[..., n] = 0.5 * x[..., 0]
    c[..., 1:n] = -x[..., n + 1 : 2 * n]
    c[..., n + 1 : 2 * n] = x[..., 1:n]
    return c
