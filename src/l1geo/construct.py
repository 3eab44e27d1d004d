"""Build instances whose solution set is a prescribed polyhedron.

Two constructions are provided.  `construct_ball_instance` realizes any
affine slice A ∩ B_r of the regularizer's ball, provided the slice sits on
the sphere (min of ||D'x||_1 over A equals r): Phi stacks an orthonormal
basis of the normals of A and y is offset along a certified dual direction.
`construct_face_instance` realizes A ∩ F for an exposed face F named by a
feasible sign: Phi stacks the face normal D s on top of the normals of A and
y = Phi x + lam e_1 for any anchor x in the intersection.

`verify_construction` round-trips a construction through the solver and
compares the recovered solution set against the target by support functions.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .ballgeo import Dictionary, InfeasibleSignError, face_from_sign, is_feasible
from .jsonfmt import SCHEMA, dumps
from .linalg import (DEFAULT_TOLS, Tolerances, as_matrix, as_vector,
                     intersect_null_spaces, null_space_basis,
                     orthonormalize_columns, span_equal)
from .signs import SignVector, sign_of
from .solset import (ProblemInstance, SolutionSetDescription,
                     describe_solution_set, enumerate_extreme_solutions,
                     solve_admm)


class SphereConditionError(Exception):
    """The affine set does not touch the target sphere from outside."""


class EmptyIntersectionError(Exception):
    """The affine set misses the requested face."""


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace of R^n stored with orthonormal direction and normal bases.

    direction_basis (n, d) spans the linear part, normal_basis (n, m) its
    orthogonal complement, d + m = n.
    """

    origin: np.ndarray
    direction_basis: np.ndarray
    normal_basis: np.ndarray

    def __post_init__(self):
        o = as_vector(self.origin, "origin")
        Db = as_matrix(self.direction_basis, "direction_basis")
        Nb = as_matrix(self.normal_basis, "normal_basis")
        n = o.size
        if Db.shape[0] != n or Nb.shape[0] != n:
            raise ValueError("bases must live in the space of the origin")
        if Db.shape[1] + Nb.shape[1] != n:
            raise ValueError("direction and normal dimensions must sum to n")
        for B in (Db, Nb):
            if B.shape[1] and not np.allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-9):
                raise ValueError("bases must be orthonormal")
        if Db.shape[1] and Nb.shape[1] and \
                np.max(np.abs(Db.T @ Nb)) > 1e-9:
            raise ValueError("direction and normal bases must be orthogonal")
        for name, arr in (("origin", o), ("direction_basis", Db),
                          ("normal_basis", Nb)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_directions(cls, origin, directions) -> "AffineSubspace":
        """Affine set through `origin` spanned by the given direction vectors (rows)."""
        o = as_vector(origin, "origin")
        rows = as_matrix(directions, "directions") if len(directions) else \
            np.zeros((0, o.size))
        Db = orthonormalize_columns(rows.T)
        Nb = null_space_basis(Db.T) if Db.shape[1] else np.eye(o.size)
        return cls(origin=o, direction_basis=Db, normal_basis=Nb)

    @classmethod
    def from_normals(cls, origin, normals) -> "AffineSubspace":
        """Affine set through `origin` orthogonal to the given normal vectors (rows)."""
        o = as_vector(origin, "origin")
        rows = as_matrix(normals, "normals") if len(normals) else \
            np.zeros((0, o.size))
        Nb = orthonormalize_columns(rows.T)
        Db = null_space_basis(Nb.T) if Nb.shape[1] else np.eye(o.size)
        return cls(origin=o, direction_basis=Db, normal_basis=Nb)

    @classmethod
    def from_points(cls, points) -> "AffineSubspace":
        """Affine hull of a nonempty family of points (rows)."""
        pts = as_matrix(points, "points")
        if pts.shape[0] < 1:
            raise ValueError("need at least one point")
        o = pts[0]
        return cls.from_directions(o, pts[1:] - o)

    @classmethod
    def from_equations(cls, A, b) -> "AffineSubspace":
        """Solution set {x : Ax = b}; raises when the system is inconsistent."""
        Am = as_matrix(A, "A")
        bv = as_vector(b, "b")
        origin, *_ = np.linalg.lstsq(Am, bv, rcond=None)
        if np.max(np.abs(Am @ origin - bv), initial=0.0) > \
                1e-9 * (1.0 + np.max(np.abs(bv), initial=0.0)):
            raise ValueError("Ax = b has no solution")
        sub = cls.from_normals(origin, Am)
        return sub

    @property
    def n(self) -> int:
        return self.origin.size

    @property
    def dim(self) -> int:
        return self.direction_basis.shape[1]

    def equalities(self) -> tuple[np.ndarray, np.ndarray]:
        """(A_eq, b_eq) cutting out the subspace."""
        A = self.normal_basis.T
        return A, A @ self.origin

    def contains(self, x, tol: float = 1e-8) -> bool:
        xv = as_vector(x, "x")
        A, b = self.equalities()
        if A.shape[0] == 0:
            return True
        return bool(np.max(np.abs(A @ xv - b)) <= tol * (1.0 + np.max(np.abs(b))))


@dataclass(frozen=True)
class AffineBallTarget:
    """Target solution set A ∩ {x : ||D'x||_1 <= radius}."""

    affine: AffineSubspace
    radius: float

    def region(self, d: Dictionary) -> lp.LinearProgram:
        """Lifted program over (x, t) whose x shadow is the target."""
        A, b = self.affine.equalities()
        A_eq = np.hstack([A, np.zeros((A.shape[0], d.p))])
        A_le, b_le = lp.l1_epigraph_rows(d.Dstar, self.radius)
        return lp.LinearProgram(c=np.zeros(d.n + d.p), A_eq=A_eq, b_eq=b,
                                A_le=A_le, b_le=b_le)


@dataclass(frozen=True)
class AffineFaceTarget:
    """Target solution set A ∩ F(sign, radius) for an exposed ball face."""

    affine: AffineSubspace
    sign: SignVector
    radius: float

    def region(self, d: Dictionary) -> lp.LinearProgram:
        face = face_from_sign(d, self.sign, self.radius, check_feasible=False)
        A_eq_f, b_eq_f, A_le_f, b_le_f = face.halfspaces()
        A, b = self.affine.equalities()
        return lp.LinearProgram(c=np.zeros(d.n),
                                A_eq=np.vstack([A_eq_f, A]),
                                b_eq=np.concatenate([b_eq_f, b]),
                                A_le=A_le_f, b_le=b_le_f)


@dataclass(frozen=True)
class ConstructedInstance:
    """A built instance plus its target set and duality certificate.

    u is the subgradient vector certifying the anchor point as optimal:
    Phi'(Phi anchor - y) + lam D u = 0.  For ball-mode constructions beta and
    alpha record the dual combination behind u.
    """

    instance: ProblemInstance
    target: AffineBallTarget | AffineFaceTarget
    u: np.ndarray
    anchor: np.ndarray
    beta: np.ndarray | None = None
    alpha: dict[SignVector, float] | None = None

    def to_json(self) -> str:
        data = json.loads(self.instance.to_json())
        prov: dict = {"anchor": self.anchor.tolist(),
                      "u": self.u.tolist(),
                      "target_radius": self.target.radius,
                      "affine_origin": self.target.affine.origin.tolist(),
                      "affine_normals": self.target.affine.normal_basis.T.tolist()}
        if isinstance(self.target, AffineFaceTarget):
            prov["target_sign"] = self.target.sign.to_string()
        if self.beta is not None:
            prov["beta"] = self.beta.tolist()
        if self.alpha is not None:
            prov["alpha"] = {s.to_string(): a for s, a in self.alpha.items()}
        data["provenance"] = prov
        return dumps(data)


def check_sphere_condition(d: Dictionary, affine: AffineSubspace, r: float,
                           tol: Tolerances | None = None) -> bool:
    """Whether A ∩ B_r is nonempty yet entirely on the sphere of radius r.

    Equivalent to min ||D'x||_1 over A being exactly r, the minimum being
    computed by the l1 lift LP.
    """
    val, _ = _min_l1_on(d, affine, tol)
    return abs(val - r) <= 1e-8 * (1.0 + abs(r))


def _min_l1_on(d: Dictionary, affine: AffineSubspace,
               tol: Tolerances | None) -> tuple[float, np.ndarray]:
    A, b = affine.equalities()
    return lp.minimize_l1_over_affine(d.Dstar, A, b, tol)


def _refinements(s: SignVector) -> list[SignVector]:
    """All signs refining s (agreeing on its support), deterministic order."""
    J = s.cosupport
    out = []
    for fill in itertools.product((-1, 0, 1), repeat=len(J)):
        entries = list(s.entries)
        for j, v in zip(J, fill):
            entries[j] = v
        out.append(SignVector(tuple(entries)))
    return out


def construct_ball_instance(d: Dictionary, affine: AffineSubspace, r: float,
                            lam: float, alpha_cap: int = 8, seed: int = 0,
                            tol: Tolerances | None = None) -> ConstructedInstance:
    """Instance whose solution set is exactly A ∩ B_r.

    Requires the sphere condition (A ∩ B_r nonempty and contained in the
    sphere).  Phi is an orthonormal normal basis of A; y offsets Phi x by a
    dual direction found as a convex combination of the ball normals D s over
    signs s refining the anchor's sign.  For r = 0 the offset vanishes.
    """
    t = tol or d.tol
    if affine.n != d.n:
        raise ValueError("affine subspace lives in the wrong dimension")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    val, xbar = _min_l1_on(d, affine, t)
    if abs(val - r) > 1e-8 * (1.0 + abs(r)):
        raise SphereConditionError(
            f"min of ||D'x||_1 over the affine set is {val:.12g}, not {r:.12g}; "
            "the target is not a sphere slice")
    Phi = affine.normal_basis.T.copy()
    m = Phi.shape[0]
    if r <= t.sign_tol:
        u = np.zeros(d.p)
        beta = np.zeros(m)
        y = Phi @ xbar
        inst = ProblemInstance(dictionary=d, Phi=Phi, y=y, lam=lam)
        return ConstructedInstance(instance=inst,
                                   target=AffineBallTarget(affine, float(r)),
                                   u=u, anchor=xbar, beta=beta, alpha={})

    sbar = sign_of(d.Dstar @ xbar, t.sign_tol)
    if len(sbar.cosupport) > alpha_cap:
        raise ValueError(
            f"anchor cosupport {len(sbar.cosupport)} exceeds alpha_cap={alpha_cap}")
    cands = _refinements(sbar)
    S = np.array([s.entries for s in cands], dtype=float)  # (K, p)
    G = d.D @ S.T                                          # (n, K)
    K = len(cands)
    N = affine.normal_basis
    # variables (beta, alpha): N beta = G alpha, sum alpha = 1, alpha >= 0
    A_eq = np.vstack([np.hstack([N, -G]),
                      np.concatenate([np.zeros(m), np.ones(K)])[None, :]])
    b_eq = np.concatenate([np.zeros(d.n), [1.0]])
    A_le = np.hstack([np.zeros((K, m)), -np.eye(K)])
    b_le = np.zeros(K)
    zero_margin = 1e-9 * (1.0 + float(np.max(np.abs(G), initial=0.0)))
    rng = np.random.default_rng(seed)
    objectives = [rng.standard_normal(m) for _ in range(5)]
    objectives += [sgn * e for e in np.eye(m) for sgn in (1.0, -1.0)]
    beta = alpha = None
    for g in objectives:
        out = lp.solve(lp.LinearProgram(c=np.concatenate([-g, np.zeros(K)]),
                                        A_eq=A_eq, b_eq=b_eq,
                                        A_le=A_le, b_le=b_le), t)
        if out.status == lp.INFEASIBLE:
            raise SphereConditionError(
                "no dual combination exists; the sphere condition fails numerically")
        if out.status != lp.OPTIMAL:
            continue
        cand_beta = out.x_opt[:m]
        if np.max(np.abs(N @ cand_beta), initial=0.0) > zero_margin:
            beta = cand_beta
            alpha = np.maximum(out.x_opt[m:], 0.0)
            break
    if beta is None:
        raise RuntimeError(
            "every dual LP returned the zero combination; no nonzero normal "
            "direction was found")
    u = S.T @ alpha
    supp = sbar.support
    if supp and np.max(np.abs(u[list(supp)] - sbar.as_array()[list(supp)])) > 1e-9:
        raise RuntimeError("dual combination drifted off the anchor sign; this is a bug")
    if np.max(np.abs(u)) > 1.0 + 1e-9:
        raise RuntimeError("dual combination exceeds the unit box; this is a bug")
    y = Phi @ xbar + lam * beta
    inst = ProblemInstance(dictionary=d, Phi=Phi, y=y, lam=lam)
    return ConstructedInstance(instance=inst,
                               target=AffineBallTarget(affine, float(r)),
                               u=u, anchor=xbar, beta=beta,
                               alpha={s: float(a) for s, a in zip(cands, alpha)
                                      if a > 1e-12})


def construct_face_instance(d: Dictionary, s: SignVector, r: float,
                            affine: AffineSubspace, lam: float,
                            tol: Tolerances | None = None) -> ConstructedInstance:
    """Instance whose solution set is exactly A ∩ F for the face named by s.

    s must be feasible and r positive; A must meet the face.  The first row
    of Phi is the face normal D s, the remaining rows an orthonormal normal
    basis of A, and y = Phi x + lam e_1 for an anchor x in A ∩ F (any anchor
    gives the same y since Phi is constant on A ∩ F).
    """
    t = tol or d.tol
    if affine.n != d.n:
        raise ValueError("affine subspace lives in the wrong dimension")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if r <= 0:
        raise ValueError("r must be positive for a face target")
    if len(s) != d.p or s.is_zero():
        raise ValueError("s must be a nonzero sign of length p")
    if not is_feasible(d, s, tol=t).feasible:
        raise InfeasibleSignError(f"sign {s} is not realizable by this dictionary")
    target = AffineFaceTarget(affine, s, float(r))
    probe = lp.solve(target.region(d), t)
    if probe.status != lp.OPTIMAL:
        raise EmptyIntersectionError(
            f"the affine set misses the face of sign {s} at radius {r:.12g}")
    anchor = probe.x_opt
    Phi = np.vstack([(d.D @ s.as_array())[None, :], affine.normal_basis.T])
    y = Phi @ anchor
    y[0] += lam
    inst = ProblemInstance(dictionary=d, Phi=Phi, y=y, lam=lam)
    return ConstructedInstance(instance=inst, target=target,
                               u=s.as_array(), anchor=anchor)


def probe_directions(d: Dictionary) -> list[np.ndarray]:
    """The 2n + 2p unit probe directions used for support-function comparison:
    signed coordinate directions and signed normalized atoms."""
    dirs = []
    for i in range(d.n):
        e = np.zeros(d.n)
        e[i] = 1.0
        dirs.append(e)
        dirs.append(-e)
    for j in range(d.p):
        a = d.D[:, j]
        nrm = float(np.linalg.norm(a))
        a = a / nrm if nrm > 0 else a
        dirs.append(a.copy())
        dirs.append(-a)
    return dirs


def _supports(region: lp.LinearProgram, W: np.ndarray,
              tol: Tolerances | None) -> list[float]:
    Wpad = np.hstack([W, np.zeros((W.shape[0], region.n - W.shape[1]))])
    values = []
    for out in lp.maximize_each(region, Wpad, tol):
        if out.status == lp.INFEASIBLE:
            raise ValueError("support function of an empty region")
        values.append(math.inf if out.status == lp.UNBOUNDED else float(out.value))
    return values


def support_gap(region_a: lp.LinearProgram, region_b: lp.LinearProgram,
                directions, tol: Tolerances | None = None) -> float:
    """Largest support-function discrepancy between two regions over the probes.

    Regions may live in lifted spaces of different sizes; directions apply to
    the shared leading coordinates.  Two unbounded values in the same
    direction agree; one-sided unboundedness yields inf.
    """
    W = np.vstack([as_vector(w, "direction") for w in directions])
    gap = 0.0
    for ha, hb in zip(_supports(region_a, W, tol), _supports(region_b, W, tol)):
        if math.isinf(ha) and math.isinf(hb):
            continue
        if math.isinf(ha) or math.isinf(hb):
            return math.inf
        gap = max(gap, abs(ha - hb))
    return gap


@dataclass(frozen=True)
class VerificationReport:
    """Round-trip check of a construction.

    passed requires: support functions of the recovered solution set and the
    target agree on every probe direction within the tolerance, Ker Phi is
    the promised subspace, and the stored certificate has a tiny stationarity
    residual.
    """

    passed: bool
    support_gap: float
    kernel_ok: bool
    certificate_residual: float
    description: SolutionSetDescription
    extreme_points: list[np.ndarray] | None


def verify_construction(ci: ConstructedInstance, tol: float = 1e-6,
                        admm_tol: float = 1e-8, admm_max_iter: int = 50000,
                        tols: Tolerances | None = None) -> VerificationReport:
    """Solve the constructed instance from scratch and compare against the target."""
    t = tols or DEFAULT_TOLS
    inst = ci.instance
    d = inst.dictionary
    xstar = solve_admm(inst, tol=admm_tol, max_iter=admm_max_iter, tols=t)
    desc = describe_solution_set(inst, xstar, tol=t)
    gap = support_gap(desc.region(), ci.target.region(d), probe_directions(d), t)

    if isinstance(ci.target, AffineFaceTarget):
        normal = (d.D @ ci.target.sign.as_array())[None, :]
        promised = intersect_null_spaces([normal, ci.target.affine.normal_basis.T], t)
    else:
        promised = ci.target.affine.direction_basis
    kernel_ok = span_equal(null_space_basis(inst.Phi, t), promised)

    grad = inst.Phi.T @ (inst.Phi @ ci.anchor - inst.y) + inst.lam * (d.D @ ci.u)
    cert_res = float(np.max(np.abs(grad), initial=0.0))
    scale = 1.0 + (np.max(np.abs(inst.Phi.T @ inst.y)) if inst.y.size else 0.0)
    cert_ok = cert_res <= 1e-7 * scale and np.max(np.abs(ci.u), initial=0.0) <= 1.0 + 1e-9

    extreme = None
    if desc.compact and len(desc.max_sign.support) <= 16:
        extreme = enumerate_extreme_solutions(inst, desc, tol=t)

    passed = bool(gap <= tol and kernel_ok and cert_ok)
    return VerificationReport(passed=passed, support_gap=float(gap),
                              kernel_ok=bool(kernel_ok),
                              certificate_residual=cert_res,
                              description=desc, extreme_points=extreme)
