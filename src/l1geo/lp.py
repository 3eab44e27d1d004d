"""Self-contained dense linear-programming engine.

Solves   min <c, x>   s.t.   A_eq x = b_eq,  A_le x <= b_le,  x free,

by a two-phase primal simplex on the standard-form split x = u - v with slack
and artificial variables.  The tableau carries its reduced costs as one more
row that every pivot updates.  An inequality row with b_i >= 0 starts with its
slack basic (a slack crash basis), so phase 1 only has to drive out the
artificials of the other rows.  The entering column has the most negative
reduced cost, lowest index on ties (Dantzig pricing); the leaving row is the
largest pivot among the rows within lp_tol of the ratio bound (a Harris-style
pass).  After a run of degenerate pivots Bland's rule takes over both choices
until the objective moves again, so runs terminate and are deterministic.
`maximize_each` shares one phase 1 among many objectives over the same region.
Every returned point is checked against the original rows.  There is no
external solver behind this and no fallback: exceeding the iteration cap
raises instead of returning an approximate answer.

Also hosts the one canonical polyhedral reformulation of l1 constraints
(`l1_epigraph_rows`) that the solution-set and construction code build their
regions from.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import DEFAULT_TOLS, Tolerances, as_matrix, as_vector

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
# degenerate pivots in a row after which Bland's rule replaces Dantzig pricing
_STALL_PIVOTS = 10


class IterationLimitError(RuntimeError):
    """Simplex exceeded its pivot budget; treat the run as failed, not approximate."""


def _empty_system(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros((0, n)), np.zeros(0)


@dataclass(frozen=True)
class LinearProgram:
    """min <c, x> subject to A_eq x = b_eq and A_le x <= b_le, x free."""

    c: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    A_le: np.ndarray
    b_le: np.ndarray

    def __post_init__(self):
        c = as_vector(self.c, "c")
        n = c.size
        A_eq, b_eq = self.A_eq, self.b_eq
        A_le, b_le = self.A_le, self.b_le
        A_eq = _empty_system(n)[0] if A_eq is None else as_matrix(A_eq, "A_eq")
        b_eq = _empty_system(n)[1] if b_eq is None else as_vector(b_eq, "b_eq")
        A_le = _empty_system(n)[0] if A_le is None else as_matrix(A_le, "A_le")
        b_le = _empty_system(n)[1] if b_le is None else as_vector(b_le, "b_le")
        if A_eq.shape[1] != n or A_le.shape[1] != n:
            raise ValueError("constraint matrices disagree with len(c)")
        if A_eq.shape[0] != b_eq.size or A_le.shape[0] != b_le.size:
            raise ValueError("constraint right-hand sides have wrong length")
        if n == 0:
            raise ValueError("need at least one variable")
        for name, arr in (("c", c), ("A_eq", A_eq), ("b_eq", b_eq),
                          ("A_le", A_le), ("b_le", b_le)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpOutcome:
    """Result of a solve.

    status is one of "optimal", "infeasible", "unbounded".  For optimal
    outcomes x_opt/value/dual_eq/dual_le are set and satisfy, up to lp_tol,

        c + A_eq' dual_eq + A_le' dual_le = 0,   dual_le >= 0,
        dual_le_i (b_le - A_le x_opt)_i = 0.

    For infeasible outcomes (farkas_eq, farkas_le) certify infeasibility:

        A_eq' farkas_eq + A_le' farkas_le = 0,  farkas_le <= 0,
        <b_eq, farkas_eq> + <b_le, farkas_le> > 0.

    For unbounded outcomes x_feasible is a feasible point.
    """

    status: str
    x_opt: np.ndarray | None = None
    value: float | None = None
    dual_eq: np.ndarray | None = None
    dual_le: np.ndarray | None = None
    farkas_eq: np.ndarray | None = None
    farkas_le: np.ndarray | None = None
    x_feasible: np.ndarray | None = None
    iterations: int = 0


def _pivot(T: np.ndarray, r: int, j: int) -> None:
    row = T[r] / T[r, j]
    T -= T[:, j, None] * row
    T[r] = row


def _simplex(T: np.ndarray, basis: list[int], eps: float, N: int, cap: int,
             count: int) -> tuple[str, int]:
    """Run primal simplex pivots in place; returns (status, pivot count).

    Only the first N columns may enter.  The last row of T holds the reduced
    costs and, in its last entry, minus the objective value; `_pivot` keeps
    it current like any other row.
    """
    d = T[-1, :N]
    stalled = 0
    while True:
        if stalled < _STALL_PIVOTS:  # Dantzig: most negative reduced cost
            j = int(d.argmin())
        else:  # Bland: lowest index, until the objective moves again
            j = int(np.argmax(d < -eps))
        if d[j] >= -eps:
            return OPTIMAL, count
        col = T[:-1, j]
        # a pivot below eps relative to the column's largest entry is refused
        rows = np.nonzero(col > eps * max(1.0, col.max(initial=0.0)))[0]
        if rows.size == 0:
            return UNBOUNDED, count
        ratios = T[rows, -1] / col[rows]
        if stalled < _STALL_PIVOTS:  # Harris: largest pivot near the bound
            tied = rows[ratios <= ((T[rows, -1] + eps) / col[rows]).min()]
            r = int(tied[np.argmax(col[tied])])
        else:  # Bland again: the lowest basic index at the minimum ratio
            rmin = float(ratios.min())
            tied = rows[ratios <= rmin + 1e-12 * (1.0 + abs(rmin))]
            r = int(min(tied, key=basis.__getitem__))
        stalled = stalled + 1 if T[r, -1] <= eps * col[r] else 0
        _pivot(T, r, j)
        basis[r] = j
        count += 1
        if count > cap:
            raise IterationLimitError(
                f"simplex exceeded {cap} pivots; refusing to return an answer")


def _tableau(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """Standard-form rows u(n) | v(n) | slack | artificial | rhs of `lp`, each
    scaled by sigma = sign(b) so the rhs is nonnegative, above a zero row."""
    n, me, ml = lp.n, lp.A_eq.shape[0], lp.A_le.shape[0]
    m = me + ml
    b = np.concatenate([lp.b_eq, lp.b_le])
    sigma = np.where(b < 0.0, -1.0, 1.0)
    T = np.zeros((m + 1, 2 * n + ml + m + 1))
    T[:m, :n] = sigma[:, None] * np.vstack([lp.A_eq, lp.A_le])
    T[:m, n:2 * n] = -T[:m, :n]
    T[me + np.arange(ml), 2 * n + np.arange(ml)] = sigma[me:]
    T[:m, 2 * n + ml:-1] = np.eye(m)
    T[:m, -1] = sigma * b
    return T, sigma


def _phase1(lp: LinearProgram, eps: float):
    """A feasible basis (T, basis, pivots, sigma), or an INFEASIBLE outcome."""
    T, sigma = _tableau(lp)
    m, me = sigma.size, lp.A_eq.shape[0]
    N = T.shape[1] - 1 - m
    # slack crash: an inequality row with b >= 0 starts with its slack basic
    crash = (np.arange(m) >= me) & (sigma > 0)
    basis = np.where(crash, N - m + np.arange(m), N + np.arange(m)).tolist()
    T[-1, N:-1] = 1.0  # phase-1 cost: the sum of the artificials
    T[-1] -= T[:m][~crash].sum(axis=0)
    status, count = _simplex(T, basis, eps, N, 50 * (N + 2 * m), 0)
    if status != OPTIMAL:  # phase 1 is bounded below by zero
        raise RuntimeError("phase-1 simplex reported unbounded; this is a bug")
    if -T[-1, -1] > eps * (1.0 + np.max(np.abs(T[:m, -1]), initial=0.0)):
        y = sigma * (1.0 - T[-1, N:-1])
        return LpOutcome(status=INFEASIBLE, farkas_eq=y[:me], farkas_le=y[me:],
                         iterations=count)
    # drive leftover artificials out of the basis, dropping redundant rows
    for r in reversed(range(m)):
        if basis[r] >= N:
            j = int(np.argmax(np.abs(T[r, :N])))
            if abs(T[r, j]) > eps:
                _pivot(T, r, j)
                basis[r] = j
            else:
                T = np.delete(T, r, axis=0)
                del basis[r]
    return T, basis, count, sigma


def _phase2(lp: LinearProgram, start, c: np.ndarray, tol: Tolerances) -> LpOutcome:
    """Minimize <c, x> from a feasible basis of `_phase1`, leaving it intact."""
    T, basis, count, sigma = start
    T, basis, n, me = T.copy(), list(basis), lp.n, lp.A_eq.shape[0]
    N = T.shape[1] - 1 - sigma.size
    T[-1] = 0.0
    T[-1, :n], T[-1, n:2 * n] = c, -c
    T[-1] -= T[-1, basis] @ T[:-1]
    status, count = _simplex(T, basis, tol.lp_tol, N, 50 * (N + 2 * sigma.size),
                             count)
    x = _checked_point(lp, T, basis, tol.lp_tol)
    if status == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED, x_feasible=x, iterations=count)
    y = sigma * T[-1, N:-1]  # duals of the original rows (0 on dropped ones)
    return LpOutcome(status=OPTIMAL, x_opt=x, value=float(c @ x),
                     dual_eq=y[:me], dual_le=y[me:], iterations=count)


def _checked_point(lp: LinearProgram, T: np.ndarray, basis: list[int],
                   eps: float) -> np.ndarray:
    """The basic solution as x, checked against the original rows of `lp`; on
    a miss it is solved for once more from the original basis columns."""
    z = np.zeros(T.shape[1] - 1)
    z[basis] = T[:-1, -1]
    b = np.concatenate([lp.b_eq, lp.b_le])
    for retry in (False, True):
        x = z[:lp.n] - z[lp.n:2 * lp.n]
        res = max(np.max(np.abs(lp.A_eq @ x - lp.b_eq), initial=0.0),
                  np.max(lp.A_le @ x - lp.b_le, initial=0.0))
        if res <= eps * (1.0 + np.max(np.abs(b), initial=0.0)):
            return x
        if retry:
            raise RuntimeError(f"simplex point misses its constraints by "
                               f"{res:.3e}; refusing to return an answer")
        T0 = _tableau(lp)[0]
        z[basis] = np.linalg.lstsq(T0[:-1, basis], T0[:-1, -1], rcond=None)[0]


def solve(lp: LinearProgram, tol: Tolerances | None = None) -> LpOutcome:
    """Two-phase simplex solve of the given program."""
    t = tol or DEFAULT_TOLS
    start = _phase1(lp, t.lp_tol)
    return start if isinstance(start, LpOutcome) else _phase2(lp, start, lp.c, t)


def maximize_each(region: LinearProgram, W,
                  tol: Tolerances | None = None) -> list[LpOutcome]:
    """Maximize <w, x> over the feasible set of `region` for every row w of W.

    The region's objective is ignored.  Phase 1 runs once and phase 2 starts
    from its feasible basis for every row, so each outcome is what a separate
    solve would return: its value is the maximum, its dual fields belong to
    the internal minimization and are not exposed, and its iterations include
    the shared phase-1 pivots.  An infeasible region yields its one infeasible
    outcome for every row.
    """
    t = tol or DEFAULT_TOLS
    W = as_matrix(W, "W")
    if W.shape[1] != region.n:
        raise ValueError("objective length disagrees with the region")
    start = _phase1(region, t.lp_tol)
    if isinstance(start, LpOutcome):
        return [start] * W.shape[0]
    outs = [_phase2(region, start, -w, t) for w in W]
    return [replace(o, value=None if o.value is None else -o.value,
                    dual_eq=None, dual_le=None) for o in outs]


def max_linear_over(region: LinearProgram, w,
                    tol: Tolerances | None = None) -> LpOutcome:
    """Maximize <w, x> over the feasible set of `region`; see `maximize_each`."""
    return maximize_each(region, as_vector(w, "w")[None, :], tol)[0]


def l1_epigraph_rows(Dstar, radius: float | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Inequality rows encoding the l1 lift over variables (x, t).

    For Dstar of shape (p, n) the rows say t_i >= |<row_i, x>| for each i,
    and, when `radius` is given, sum(t) <= radius.  This is the single
    reformulation of l1 terms used everywhere in the package: minimizing
    sum(t) computes the l1 value, constraining it carves out a sublevel set.
    """
    Ds = as_matrix(Dstar, "Dstar")
    p, n = Ds.shape
    rows = []
    rhs = []
    eye = np.eye(p)
    rows.append(np.hstack([Ds, -eye]))
    rhs.append(np.zeros(p))
    rows.append(np.hstack([-Ds, -eye]))
    rhs.append(np.zeros(p))
    if radius is not None:
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        rows.append(np.concatenate([np.zeros(n), np.ones(p)])[None, :])
        rhs.append(np.array([float(radius)]))
    return np.vstack(rows), np.concatenate(rhs)


def minimize_l1_over_affine(Dstar, A_eq, b_eq,
                            tol: Tolerances | None = None
                            ) -> tuple[float, np.ndarray]:
    """min ||Dstar x||_1 over {A_eq x = b_eq}; returns (value, minimizer).

    Raises ValueError when the affine set is empty.
    """
    Ds = as_matrix(Dstar, "Dstar")
    A = as_matrix(A_eq, "A_eq")
    b = as_vector(b_eq, "b_eq")
    p, n = Ds.shape
    if A.shape[1] != n:
        raise ValueError("A_eq column count disagrees with Dstar")
    c = np.concatenate([np.zeros(n), np.ones(p)])
    A_eq_l = np.hstack([A, np.zeros((A.shape[0], p))])
    A_le, b_le = l1_epigraph_rows(Ds)
    out = solve(LinearProgram(c=c, A_eq=A_eq_l, b_eq=b, A_le=A_le, b_le=b_le), tol)
    if out.status == INFEASIBLE:
        raise ValueError("the affine set is empty")
    if out.status != OPTIMAL:  # objective is bounded below by zero
        raise RuntimeError(f"unexpected LP status {out.status}")
    return float(out.value), out.x_opt[:n]
