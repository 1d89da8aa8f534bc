"""Independent numpy routes for checking the CLI's outputs.

None of this calls into ``abconvex``: every quantity is recomputed from the
definitions on plain arrays, so a wrong CLI result cannot agree with its own
check by construction.  Couplings are ``(|X|, |Y|)`` float arrays, functions
are 1-d arrays with ``np.inf`` marking points outside the effective domain,
and a mapping is a pair of equal-length index arrays ``(xs, ys)``.
"""

from __future__ import annotations

import numpy as np

#: Absolute tolerance of value comparisons.  Looser than the CLI's own
#: 1e-9 so that rounding in a different summation order never fails a
#: correct result; far below any corruption the checks must catch.
TOL = 1e-7


def transform(c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """f^c(y) = max_x [c(x, y) - f(x)] over the finite entries of f."""
    keep = np.isfinite(f)
    return (c[keep] - f[keep, None]).max(axis=0)


def transform_rev(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g^c(x) = max_y [c(x, y) - g(y)]."""
    return transform(c.T, g)


def convexify(c: np.ndarray, f: np.ndarray) -> np.ndarray:
    return transform_rev(c, transform(c, f))


def subdiff(c: np.ndarray, f: np.ndarray, eps: float) -> np.ndarray:
    """Boolean |X| x |Y| mask of the pairs with f(x) + f^c(y) = c(x, y)."""
    fc = transform(c, f)
    with np.errstate(invalid="ignore"):
        gap = np.abs(f[:, None] + fc[None, :] - c)
    return np.isfinite(f)[:, None] & np.isfinite(fc)[None, :] & (gap <= eps)


def close(a: np.ndarray, b: np.ndarray, tol: float = TOL) -> bool:
    """Same shape, +inf in the same places, finite entries within tol."""
    if a.shape != b.shape:
        return False
    fa, fb = np.isfinite(a), np.isfinite(b)
    if not np.array_equal(fa, fb) or not np.array_equal(a[~fa], b[~fb]):
        return False
    return bool(np.all(np.abs(a[fa] - b[fb]) <= tol))


def is_antiderivative(c, h, pairs, tol: float = TOL) -> bool:
    xs, ys = pairs
    return bool(subdiff(c, h, tol)[xs, ys].all())


def member_problems(c, h, pairs, sites, anchor, tol: float = TOL) -> list[str]:
    """Why h is not a c-convex antiderivative of the mapping agreeing with
    the anchor on the sites (empty when it is)."""
    problems = []
    if not close(h, convexify(c, h), tol):
        problems.append("not c-convex")
    if not is_antiderivative(c, h, pairs, tol):
        problems.append("not an antiderivative of the mapping")
    if not np.all(np.abs(h[sites] - anchor[sites]) <= tol):
        problems.append("disagrees with the anchor on the sites")
    return problems


def gain_matrix(c: np.ndarray, pairs) -> np.ndarray:
    """Gain graph restricted to dom(M): a[u, v] = max_{y in M(u)} c(v,y) - c(u,y)."""
    xs, ys = pairs
    dom = np.unique(xs)
    a = np.full((dom.size, dom.size), -np.inf)
    for i, u in enumerate(dom):
        images = ys[xs == u]
        a[i] = (c[np.ix_(dom, images)] - c[u, images][None, :]).max(axis=1)
    return a


def has_positive_cycle(a: np.ndarray, tol: float = TOL) -> bool:
    """Max-plus Floyd-Warshall closure; a positive diagonal is a positive cycle."""
    d = a.copy()
    for w in range(d.shape[0]):
        d = np.maximum(d, d[:, w, None] + d[None, w, :])
    return bool((np.diag(d) > tol).any())


def two_cycle_max(c: np.ndarray, pairs) -> float:
    """Largest defining sum over ordered 2-selections of G(M)."""
    xs, ys = pairs
    step = c[xs[None, :], ys[:, None]] - c[xs, ys][:, None]   # [i, j]: hop i -> j
    return float((step + step.T).max())


def chain_gain(c: np.ndarray, selection) -> float:
    """Sum of c(x_{i+1}, y_i) - c(x_i, y_i) around a cyclic selection."""
    xs = np.array([x for x, _ in selection])
    ys = np.array([y for _, y in selection])
    return float((c[np.roll(xs, -1), ys] - c[xs, ys]).sum())


def is_maximal_monotone(c: np.ndarray, pairs, tol: float = TOL) -> bool:
    """Finite maximality of a 2-monotone mapping: every absent pair (x, y)
    forms a positive 2-cycle c(u,y) - c(x,y) + c(x,v) - c(u,v) with some
    (u, v) in G(M)."""
    xs, ys = pairs
    # [x, y, k] for (u, v) = pair k
    gains = (c[xs].T[None, :, :]          # c(u, y)
             - c[:, :, None]              # c(x, y)
             + c[:, ys][:, None, :]       # c(x, v)
             - c[xs, ys][None, None, :])  # c(u, v)
    violated = gains.max(axis=2) > tol
    present = np.zeros(c.shape, dtype=bool)
    present[xs, ys] = True
    return bool((violated | present).all())


def fitzpatrick(c: np.ndarray, pairs) -> np.ndarray:
    """F(x, y) = max over (s, t) in G(T) of c(x,t) + c(s,y) - c(s,t)."""
    ss, tt = pairs
    return (c[:, tt][:, None, :] + c[ss, :].T[None, :, :]
            - c[ss, tt][None, None, :]).max(axis=2)


def inequality_chain_violation(d: np.ndarray, fitz: np.ndarray) -> float:
    """Worst violation of -d(x,y) <= F(x,y) <= -F(y,x) <= d(y,x)."""
    return float(max((-d - fitz).max(), (fitz + fitz.T).max(),
                     (-fitz.T - d.T).max(), 0.0))
