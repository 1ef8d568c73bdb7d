"""Step-2 truncated tensor group over R^d.

Elements are triples (1, g1, g2) with g1 a vector and g2 a d x d matrix,
multiplied by (g ⊗ h)_1 = g1 + h1, (g ⊗ h)_2 = g2 + h2 + g1 ⊗ h1.
This is the pointwise value of a rough path; products of increments
compose along intervals, which is what makes prefix storage exact.

A "geometric" element satisfies sym(g2) = g1 ⊗ g1 / 2 (the lift of an
actual bounded-variation path always does).  The homogeneous norm used
throughout is

    ||g|| = max(|g1|_2, 2^(3/4) * |antisym(g2)|_F ** 0.5)

which scales linearly under dilation, is invariant under inversion, is
equivalent to |g1| + |g2|^(1/2) on geometric elements, and is
sub-additive under ⊗ (so the induced left-invariant distance satisfies
the triangle inequality): with A* = antisym parts,

    |A_(gh)|_F <= |A_g|_F + |A_h|_F + |g1||h1|/sqrt(2),

and the coefficient c = 2^(3/4) is the largest with c^2/sqrt(2) <= 2,
which is exactly what closes the square in (||g|| + ||h||)^2.  Additive
combinations |g1| + c |antisym|^(1/2) fail sub-additivity for every c
(take orthogonal pure level-1 elements and let the angle shrink), which
is why the max form is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands live over different R^d."""


class NonGeometricError(ValueError):
    """Symmetric part of level2 deviates from g1 ⊗ g1 / 2 beyond tolerance."""

    def __init__(self, defect: float, tol: float):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(
            f"element is not geometric: max symmetric-part defect "
            f"{self.defect:.3e} exceeds tolerance {self.tol:.3e}"
        )


# Lifts are assembled from exact segment formulas, so only round-off
# accumulates; 1e-9 absolute is far above that but still strict.
GEOMETRIC_TOL = 1e-9


@dataclass(frozen=True)
class GroupElement:
    """One element (1, level1, level2) of the step-2 group over R^d."""

    level1: np.ndarray
    level2: np.ndarray

    def __post_init__(self):
        l1 = np.asarray(self.level1, dtype=float)
        l2 = np.asarray(self.level2, dtype=float)
        if l1.ndim != 1:
            raise ValueError(f"level1 must be a vector, got shape {l1.shape}")
        d = l1.shape[0]
        if l2.shape != (d, d):
            raise ValueError(f"level2 must be {d}x{d}, got shape {l2.shape}")
        l1.setflags(write=False)
        l2.setflags(write=False)
        object.__setattr__(self, "level1", l1)
        object.__setattr__(self, "level2", l2)

    @property
    def dim(self) -> int:
        return self.level1.shape[0]

    def symmetric_defect(self) -> float:
        """Max entrywise |sym(level2) - level1 ⊗ level1 / 2|."""
        sym = 0.5 * (self.level2 + self.level2.T)
        return float(np.max(np.abs(sym - 0.5 * np.outer(self.level1, self.level1))))


def unit(dim: int) -> GroupElement:
    return GroupElement(np.zeros(dim), np.zeros((dim, dim)))


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.dim != h.dim:
        raise DimensionMismatchError(f"dims {g.dim} and {h.dim} differ")
    return GroupElement(
        g.level1 + h.level1,
        g.level2 + h.level2 + np.outer(g.level1, h.level1),
    )


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(-g.level1, np.outer(g.level1, g.level1) - g.level2)


def dilate(lam: float, g: GroupElement) -> GroupElement:
    """Scaling (1, g1, g2) -> (1, lam*g1, lam^2*g2); lifts of lam*path."""
    return GroupElement(lam * g.level1, lam * lam * g.level2)


def _outer(x, y):
    """x ⊗ y over the trailing axis, broadcast over any leading axes:
    out[..., a, b] = x[..., a] * y[..., b], one np.multiply per entry
    (a, b) over the leading axes.  Each entry is one rounded product, so
    the bits are those of np.einsum("...a,...b->...ab", x, y)."""
    d = x.shape[-1]
    out = np.empty(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (d, d))
    for a in range(d):
        for b in range(d):
            np.multiply(x[..., a], y[..., b], out=out[..., a, b])
    return out


def _pair_increment(l1_i, l2_i, l1_j, l2_j, out=None, work=None):
    """Levels of g^{-1} ⊗ h for g = (l1_i, l2_i), h = (l1_j, l2_j),
    broadcast over any leading axes; written into out = (level1, level2)
    when given.  work, shaped like one level-2 entry (the leading axes),
    receives each entry's product term in turn in place of a temporary;
    the bits are the same either way.

    The product is expanded in difference form (h2 - g2 - g1 ⊗ (h1 - g1)),
    which is algebraically identical but cancels exactly when g = h, so
    the square root in the norm cannot amplify round-off into a spurious
    positive self-distance.  The product term is formed and subtracted one
    entry (a, b) at a time, so no level2-sized product is ever made.
    """
    a1, a2 = (None, None) if out is None else out
    a1 = np.subtract(l1_j, l1_i, out=a1)
    a2 = np.subtract(l2_j, l2_i, out=a2)
    # Callers often pass freshly gathered copies that only this frame
    # references; dropping them before the product term keeps one table
    # fewer live, which keeps the Besov increment tables as fast as the
    # unshared expression they replaced.
    del l2_i, l2_j
    d = a1.shape[-1]
    row = np.empty(a1.shape[:-1]) if work is None else work
    for a in range(d):
        for b in range(d):
            entry = a2[..., a, b]
            np.subtract(entry, np.multiply(l1_i[..., a], a1[..., b], out=row), out=entry)
    return a1, a2


# Largest coefficient keeping the norm sub-additive under ⊗.
AREA_COEFF = 2.0 ** 0.75


def _hom_norms(l1, l2):
    """Homogeneous norms of the elements (l1, l2), broadcast over any
    leading axes; no geometricity check.

    Reduced one entry at a time over the leading axes: |l1|^2 sums the
    squared components in component order, and |antisym(l2)|_F^2 forms
    each antisymmetric entry x = (l2_ab - l2_ba) / 2 with a < b once and
    adds 2 x^2 (its two entries are ±x) in row-major order.
    """
    d = l1.shape[-1]
    lead = np.broadcast_shapes(l1.shape[:-1], l2.shape[:-2])
    n, s, t = (np.empty(lead) for _ in range(3))
    np.multiply(l1[..., 0], l1[..., 0], out=n)
    for a in range(1, d):
        n += np.multiply(l1[..., a], l1[..., a], out=t)
    s[...] = 0.0
    for a in range(d):
        for b in range(a + 1, d):
            x = np.subtract(l2[..., a, b], l2[..., b, a], out=t)
            x *= 0.5
            x *= x
            x *= 2.0
            s += x
    np.sqrt(n, out=n)
    np.sqrt(s, out=s)
    np.sqrt(s, out=s)
    s *= AREA_COEFF
    return np.maximum(n, s, out=n)


def hom_norm(g: GroupElement, tol: float = GEOMETRIC_TOL) -> float:
    """Homogeneous symmetric norm max(|g1|_2, 2^(3/4)*|antisym(g2)|_F^(1/2)).

    Only meaningful on geometric elements; raises NonGeometricError
    otherwise, reporting the symmetric-part violation.
    """
    defect = g.symmetric_defect()
    if defect > tol:
        raise NonGeometricError(defect, tol)
    return float(_hom_norms(g.level1, g.level2))


def group_dist(g: GroupElement, h: GroupElement, tol: float = GEOMETRIC_TOL) -> float:
    """Left-invariant distance ||g^{-1} ⊗ h|| between geometric elements."""
    if g.dim != h.dim:
        raise DimensionMismatchError(f"dims {g.dim} and {h.dim} differ")
    for e in (g, h):
        defect = e.symmetric_defect()
        if defect > tol:
            raise NonGeometricError(defect, tol)
    return float(_hom_norms(*_pair_increment(g.level1, g.level2, h.level1, h.level2)))

