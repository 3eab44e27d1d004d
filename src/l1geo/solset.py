"""Exact description of the solution set of regularized least squares.

The problem is  min_x  1/2 ||y - Phi x||^2 + lam ||D' x||_1.  Its solution
set X is a face-like polyhedron: Phi x and ||D' x||_1 are constant over X,
the relative interior carries a maximal sign pattern, and X is cut out by

    Phi x = Phi x_ri,   D'_J x = 0,   s_i (D' x)_i >= 0 on the support,

with s the maximal sign and J its cosupport.  This module certifies
optimality via a dual LP, solves instances with ADMM plus an active-set
polish, recovers the maximal sign by 2p support LPs, and enumerates the
extreme points of compact solution sets.
"""
from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass

import numpy as np

from . import lp
from .ballgeo import Dictionary
from .jsonfmt import SCHEMA, dumps
from .linalg import (DEFAULT_TOLS, Tolerances, as_matrix, as_vector,
                     intersect_null_spaces)
from .signs import SignPoset, SignVector, poset_cover_edges, sign_of

log = logging.getLogger(__name__)


class ConvergenceError(RuntimeError):
    """The iterative solver failed to certify a solution within its budget."""


class UnboundedSolutionSetError(Exception):
    """Extreme points were requested but the solution set contains lines."""


@dataclass(frozen=True)
class ProblemInstance:
    """A generalized-lasso instance (dictionary, Phi, y, lam > 0)."""

    dictionary: Dictionary
    Phi: np.ndarray
    y: np.ndarray
    lam: float

    def __post_init__(self):
        P = as_matrix(self.Phi, "Phi")
        yv = as_vector(self.y, "y")
        if P.shape[1] != self.dictionary.n:
            raise ValueError("Phi column count disagrees with the dictionary")
        if P.shape[0] != yv.size:
            raise ValueError("len(y) disagrees with the rows of Phi")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        P.setflags(write=False)
        yv.setflags(write=False)
        object.__setattr__(self, "Phi", P)
        object.__setattr__(self, "y", yv)
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def n(self) -> int:
        return self.dictionary.n

    @property
    def p(self) -> int:
        return self.dictionary.p

    def to_json(self) -> str:
        return dumps({"schema": SCHEMA,
                      "D": self.dictionary.D,
                      "Phi": self.Phi,
                      "y": self.y,
                      "lambda": self.lam})

    @classmethod
    def from_json(cls, text: str) -> "ProblemInstance":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("instance JSON must be an object")
        schema = data.get("schema", SCHEMA)
        if schema != SCHEMA:
            raise ValueError(f"unsupported schema {schema!r}")
        missing = {"D", "Phi", "y", "lambda"} - set(data)
        if missing:
            raise ValueError(f"instance JSON lacks keys: {sorted(missing)}")
        return cls(dictionary=Dictionary(np.array(data["D"], dtype=float)),
                   Phi=np.array(data["Phi"], dtype=float),
                   y=np.array(data["y"], dtype=float),
                   lam=float(data["lambda"]))


def objective(inst: ProblemInstance, x) -> float:
    """1/2 ||y - Phi x||^2 + lam ||D' x||_1 at x."""
    xv = as_vector(x, "x")
    resid = inst.y - inst.Phi @ xv
    return float(0.5 * resid @ resid + inst.lam * inst.dictionary.l1_value(xv))


@dataclass(frozen=True)
class DualCertificate:
    """Subgradient witness u: ||u||_inf <= 1, u matches sign(D'x) on its support,
    and Phi'(Phi x - y) + lam D u vanishes up to `residual`."""

    u: np.ndarray
    residual: float


def optimality_residual(inst: ProblemInstance, x,
                        tol: Tolerances | None = None
                        ) -> tuple[float, DualCertificate | None]:
    """Best achievable stationarity violation at x, with its witness.

    Minimizes ||Phi'(Phi x - y) + lam D u||_inf over subgradients u of the l1
    term at D'x (entries fixed to the sign on the support, free in [-1, 1] on
    the cosupport).  A DualCertificate comes back when the optimum is tiny
    enough to certify x as a solution.
    """
    t = tol or DEFAULT_TOLS
    d = inst.dictionary
    xv = as_vector(x, "x")
    s = sign_of(d.Dstar @ xv, t.sign_tol)
    I, J = list(s.support), list(s.cosupport)
    g = inst.Phi.T @ (inst.Phi @ xv - inst.y)
    base = g.copy()
    if I:
        base += inst.lam * (d.D[:, I] @ np.array([s[i] for i in I], dtype=float))
    nJ = len(J)
    # variables (u_J, m): minimize m subject to |base + lam D_J u_J| <= m, |u_J| <= 1
    DJ = d.D[:, J] if J else np.zeros((d.n, 0))
    ones = np.ones((d.n, 1))
    A_le = np.vstack([
        np.hstack([inst.lam * DJ, -ones]),
        np.hstack([-inst.lam * DJ, -ones]),
        np.hstack([np.eye(nJ), np.zeros((nJ, 1))]),
        np.hstack([-np.eye(nJ), np.zeros((nJ, 1))]),
    ])
    b_le = np.concatenate([-base, base, np.ones(nJ), np.ones(nJ)])
    c = np.zeros(nJ + 1)
    c[-1] = 1.0
    out = lp.solve(lp.LinearProgram(c=c, A_eq=None, b_eq=None,
                                    A_le=A_le, b_le=b_le), t)
    if out.status != lp.OPTIMAL:
        raise RuntimeError(f"residual LP ended with status {out.status}")
    residual = max(float(out.value), 0.0)
    u = np.zeros(d.p)
    for i in I:
        u[i] = s[i]
    if J:
        u[J] = out.x_opt[:nJ]
    scale = 1.0 + (np.max(np.abs(inst.Phi.T @ inst.y)) if inst.y.size else 0.0)
    if residual <= t.solver_tol * scale:
        return residual, DualCertificate(u=u, residual=residual)
    return residual, None


def _soft(v: np.ndarray, k: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - k, 0.0)


def _polish(inst: ProblemInstance, s: SignVector,
            PtP: np.ndarray, Pty: np.ndarray) -> np.ndarray | None:
    """Solve the stationarity system for a fixed sign pattern.

    With the cosupport J pinned to zero the optimality conditions are linear:
    PtP x + D_J nu = Pty - lam D_I s_I,  D'_J x = 0.  Returns the x block of
    a least-squares solution, or None when the system is inconsistent (wrong
    pattern).
    """
    d = inst.dictionary
    I, J = list(s.support), list(s.cosupport)
    n = d.n
    DJ = d.D[:, J] if J else np.zeros((n, 0))
    k = DJ.shape[1]
    K = np.zeros((n + k, n + k))
    K[:n, :n] = PtP
    K[:n, n:] = DJ
    K[n:, :n] = DJ.T
    rhs = np.concatenate([
        Pty - (inst.lam * (d.D[:, I] @ np.array([s[i] for i in I], dtype=float))
               if I else 0.0),
        np.zeros(k)])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    if np.max(np.abs(K @ sol - rhs)) > 1e-9 * (1.0 + np.max(np.abs(rhs), initial=0.0)):
        return None
    return sol[:n]


def solve_admm(inst: ProblemInstance, tol: float = 1e-8, max_iter: int = 20000,
               rho: float | None = None, mu: float = 1.0, x0=None,
               tols: Tolerances | None = None) -> np.ndarray:
    """Solve the instance to a certified optimality residual <= tol.

    ADMM on the split z = D'x supplies sign patterns; an active-set polish
    solves the stationarity system for the current pattern and the result is
    accepted only once `optimality_residual` clears `tol`.  The x-update
    matrix gains mu times the projector onto Ker Phi ∩ Ker D' so it stays
    positive definite when the solution set is unbounded.  Raises
    ConvergenceError instead of returning an uncertified iterate.
    """
    t = tols or DEFAULT_TOLS
    d = inst.dictionary
    n, p = d.n, d.p
    rho = inst.lam if rho is None else float(rho)
    if rho <= 0 or mu <= 0:
        raise ValueError("rho and mu must be positive")
    PtP = inst.Phi.T @ inst.Phi
    Pty = inst.Phi.T @ inst.y
    joint = intersect_null_spaces([inst.Phi, d.Dstar], t)
    M = PtP + rho * (d.D @ d.Dstar) + mu * (joint @ joint.T)
    Minv = np.linalg.inv(M)
    x = np.zeros(n) if x0 is None else as_vector(x0, "x0").copy()
    if x.size != n:
        raise ValueError("x0 has the wrong length")
    z = d.Dstar @ x
    w = np.zeros(p)
    check_every, retry_after = 25, 250
    tried: dict[SignVector, int] = {}
    best_res = np.inf
    for k in range(1, max_iter + 1):
        x = Minv @ (Pty + rho * (d.D @ (z - w)))
        Dx = d.Dstar @ x
        z = _soft(Dx + w, inst.lam / rho)
        w = w + Dx - z
        if k % check_every:
            continue
        pattern = sign_of(z, t.sign_tol)
        if k - tried.get(pattern, -retry_after) < retry_after:
            continue
        tried[pattern] = k
        xp = _polish(inst, pattern, PtP, Pty)
        if xp is None:
            continue
        res, _ = optimality_residual(inst, xp, t)
        if res <= tol:
            log.debug("admm converged after %d iterations (residual %.3e)", k, res)
            return xp
        best_res = min(best_res, res)
    raise ConvergenceError(
        f"no certified solution within {max_iter} iterations "
        f"(best residual {best_res:.3e}, target {tol:.3e})")


def maximal_sign(inst: ProblemInstance, x0, certify_tol: float = 1e-6,
                 tol: Tolerances | None = None) -> tuple[SignVector, np.ndarray]:
    """Maximal sign pattern over the solution set, plus a relative-interior point.

    x0 must already be (numerically) optimal; the solution set is then exactly
    {Phi x = Phi x0, ||D'x||_1 <= ||D'x0||_1} and each coordinate of D'x is
    pushed to its extremes by two LPs.  The averaged optimizers realize the
    maximal sign exactly.
    """
    t = tol or DEFAULT_TOLS
    d = inst.dictionary
    xv = as_vector(x0, "x0")
    scale = 1.0 + (np.max(np.abs(inst.Phi.T @ inst.y)) if inst.y.size else 0.0)
    res, _ = optimality_residual(inst, xv, t)
    if res > certify_tol * scale:
        raise ValueError(
            f"x0 is not optimal: residual {res:.3e} exceeds {certify_tol:.1e} * scale")
    theta = d.Dstar @ xv
    r = float(np.sum(np.abs(theta)))
    if r <= t.sign_tol:
        return SignVector.zero(d.p), xv.copy()
    n, p = d.n, d.p
    A_le, b_le = lp.l1_epigraph_rows(d.Dstar, r)
    A_eq = np.hstack([inst.Phi, np.zeros((inst.Phi.shape[0], p))])
    region = lp.LinearProgram(c=np.zeros(n + p), A_eq=A_eq, b_eq=inst.Phi @ xv,
                              A_le=A_le, b_le=b_le)
    W = np.zeros((2 * p, n + p))
    W[0::2, :n] = d.Dstar
    W[1::2, :n] = -d.Dstar
    outs = lp.maximize_each(region, W, t)
    entries = []
    points = []
    for i in range(p):
        hi, lo = outs[2 * i], outs[2 * i + 1]
        if hi.status != lp.OPTIMAL or lo.status != lp.OPTIMAL:
            raise RuntimeError("support LP over the solution set did not solve")
        hi_val, lo_val = float(hi.value), -float(lo.value)
        plus = hi_val > t.sign_tol
        minus = lo_val < -t.sign_tol
        if plus and minus:
            raise RuntimeError(
                f"coordinate {i} of D'x changes sign over the candidate solution "
                "set; x0 does not look optimal")
        entries.append(1 if plus else (-1 if minus else 0))
        points.append(hi.x_opt[:n])
        points.append(lo.x_opt[:n])
    smax = SignVector(tuple(entries))
    x_ri = np.mean(points, axis=0)
    if sign_of(d.Dstar @ x_ri, t.sign_tol) != smax:
        raise RuntimeError("averaged point misses the maximal sign; this is a bug")
    return smax, x_ri


@dataclass(frozen=True)
class SolutionSetDescription:
    """Half-space description of a solution set X.

    x_ri lies in the relative interior, max_sign is the sign of D'x there,
    radius = ||D'x||_1 (constant over X), dim its affine dimension, compact
    whether it is bounded.  The constraints are A_eq x = b_eq, A_le x <= b_le.
    """

    x_ri: np.ndarray
    max_sign: SignVector
    radius: float
    dim: int
    compact: bool
    A_eq: np.ndarray
    b_eq: np.ndarray
    A_le: np.ndarray
    b_le: np.ndarray

    def region(self) -> lp.LinearProgram:
        return lp.LinearProgram(c=np.zeros(self.A_eq.shape[1]),
                                A_eq=self.A_eq, b_eq=self.b_eq,
                                A_le=self.A_le, b_le=self.b_le)

    def contains(self, x, tol: float = 1e-7) -> bool:
        xv = as_vector(x, "x")
        scale = 1.0 + (np.max(np.abs(self.b_eq)) if self.b_eq.size else 0.0)
        if self.A_eq.shape[0] and np.max(np.abs(self.A_eq @ xv - self.b_eq)) > tol * scale:
            return False
        if self.A_le.shape[0] and np.max(self.A_le @ xv - self.b_le) > tol * scale:
            return False
        return True

    def to_json(self) -> str:
        return dumps({"schema": SCHEMA,
                      "x_ri": self.x_ri,
                      "max_sign": self.max_sign.to_string(),
                      "radius": self.radius,
                      "dim": self.dim,
                      "compact": self.compact,
                      "constraints": {"A_eq": self.A_eq, "b_eq": self.b_eq,
                                      "A_le": self.A_le, "b_le": self.b_le}})


def describe_solution_set(inst: ProblemInstance, x0,
                          certify_tol: float = 1e-6,
                          tol: Tolerances | None = None) -> SolutionSetDescription:
    """Full polyhedral description of the solution set through one optimal point."""
    t = tol or DEFAULT_TOLS
    d = inst.dictionary
    smax, x_ri = maximal_sign(inst, x0, certify_tol, t)
    r = float(np.sum(np.abs(d.Dstar @ x_ri)))
    I, J = list(smax.support), list(smax.cosupport)
    A_eq = np.vstack([inst.Phi] + ([d.Dstar[J]] if J else []))
    b_eq = np.concatenate([inst.Phi @ x_ri, np.zeros(len(J))])
    if I:
        signs_I = np.array([smax[i] for i in I], dtype=float)
        A_le = -signs_I[:, None] * d.Dstar[I]
        b_le = np.zeros(len(I))
    else:
        A_le = np.zeros((0, d.n))
        b_le = np.zeros(0)
    dim = intersect_null_spaces(
        [inst.Phi] + ([d.Dstar[J]] if J else []), t).shape[1]
    compact = intersect_null_spaces([inst.Phi, d.Dstar], t).shape[1] == 0
    return SolutionSetDescription(x_ri=x_ri, max_sign=smax, radius=r, dim=dim,
                                  compact=compact, A_eq=A_eq, b_eq=b_eq,
                                  A_le=A_le, b_le=b_le)


def is_extreme_solution(inst: ProblemInstance, desc: SolutionSetDescription,
                        x, tol: Tolerances | None = None) -> bool:
    """Whether the solution x is an extreme point of the solution set."""
    t = tol or DEFAULT_TOLS
    xv = as_vector(x, "x")
    if not desc.contains(xv, tol=max(t.lp_tol, 1e-9) * 10):
        raise ValueError("x does not lie in the described solution set")
    d = inst.dictionary
    J = list(sign_of(d.Dstar @ xv, t.sign_tol).cosupport)
    mats = [inst.Phi] + ([d.Dstar[J]] if J else [])
    return intersect_null_spaces(mats, t).shape[1] == 0


def _subsign_region(inst: ProblemInstance, desc: SolutionSetDescription,
                    keep: tuple[int, ...]) -> lp.LinearProgram:
    """Region desc ∩ {D'_i x = 0 for supported i outside `keep`}."""
    d = inst.dictionary
    extra = sorted(set(desc.max_sign.support) - set(keep))
    A_eq = np.vstack([desc.A_eq] + ([d.Dstar[extra]] if extra else []))
    b_eq = np.concatenate([desc.b_eq, np.zeros(len(extra))])
    return lp.LinearProgram(c=np.zeros(d.n), A_eq=A_eq, b_eq=b_eq,
                            A_le=desc.A_le, b_le=desc.b_le)


def enumerate_extreme_solutions(inst: ProblemInstance,
                                desc: SolutionSetDescription,
                                cap: int = 16,
                                tol: Tolerances | None = None) -> list[np.ndarray]:
    """All extreme points of a compact solution set.

    Extreme points are the solutions whose cosupport J makes
    Ker Phi ∩ Ker D'_J trivial; every such J refines the maximal sign, so the
    2^|supp| coarsenings of the maximal sign are checked by one feasibility
    LP each.
    """
    t = tol or DEFAULT_TOLS
    if not desc.compact:
        raise UnboundedSolutionSetError(
            "Ker Phi ∩ Ker D' is nontrivial: the solution set contains lines "
            "and has no extreme points")
    supp = desc.max_sign.support
    if len(supp) > cap:
        raise ValueError(f"|supp| = {len(supp)} exceeds the cap {cap}")
    d = inst.dictionary
    points: list[np.ndarray] = []
    for k in range(len(supp) + 1):
        for keep in itertools.combinations(supp, k):
            J = sorted(set(range(d.p)) - set(keep))
            mats = [inst.Phi] + ([d.Dstar[J]] if J else [])
            if intersect_null_spaces(mats, t).shape[1] != 0:
                continue
            out = lp.solve(_subsign_region(inst, desc, keep), t)
            if out.status != lp.OPTIMAL:
                continue
            x = out.x_opt
            if all(np.max(np.abs(x - q)) > 1e-7 for q in points):
                points.append(x)
    return sorted(points, key=lambda q: tuple(q))


def coordinate_bounds(desc: SolutionSetDescription, w,
                      tol: Tolerances | None = None) -> tuple[float, float]:
    """Range of <w, x> over the solution set; infinite when unbounded."""
    t = tol or DEFAULT_TOLS
    w = as_vector(w, "w")
    hi, lo = lp.maximize_each(desc.region(), np.vstack([w, -w]), t)
    if lp.INFEASIBLE in (hi.status, lo.status):
        raise RuntimeError("solution-set region is empty; the description is broken")
    upper = float(hi.value) if hi.status == lp.OPTIMAL else np.inf
    lower = -float(lo.value) if lo.status == lp.OPTIMAL else -np.inf
    return lower, upper


def solution_hasse(inst: ProblemInstance, desc: SolutionSetDescription,
                   cap: int = 16, tol: Tolerances | None = None) -> SignPoset:
    """Poset of the sign patterns realized by solutions, ordered by refinement.

    These are the coarsenings of the maximal sign whose face of the solution
    set is nonempty; the maximal sign itself must come out as the unique top
    element.
    """
    t = tol or DEFAULT_TOLS
    supp = desc.max_sign.support
    if len(supp) > cap:
        raise ValueError(f"|supp| = {len(supp)} exceeds the cap {cap}")
    realized: list[SignVector] = []
    for k in range(len(supp) + 1):
        for keep in itertools.combinations(supp, k):
            out = lp.solve(_subsign_region(inst, desc, keep), t)
            if out.status != lp.OPTIMAL:
                continue
            entries = [0] * inst.p
            for i in keep:
                entries[i] = desc.max_sign[i]
            realized.append(SignVector(tuple(entries)))
    poset = poset_cover_edges(realized)
    tops = poset.maximal_elements()
    if tops != (desc.max_sign,):
        raise RuntimeError(
            f"solution-sign poset has top elements {tops}; expected exactly "
            f"{desc.max_sign}")
    return poset
