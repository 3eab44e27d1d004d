"""Exact face geometry of the unit ball of x -> ||D' x||_1.

The ball B_r = {x : ||D' x||_1 <= r} is a polyhedron whose proper exposed
faces are in order-preserving bijection with the feasible sign vectors of D':
the sign patterns s for which some x has sign(D' x) = s.  This module decides
the feasibility of one sign by linear programming (with a Farkas certificate
when infeasible), enumerates all feasible signs with no LP as the faces of
the hyperplane arrangement of the rows of D', decides extremality (vertex
classes modulo the lineality space Ker D') by a rank test, materializes faces
with their half-space representation, and assembles the Hasse diagram of the
face lattice.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import lp
from .linalg import (DEFAULT_TOLS, Tolerances, as_matrix, as_vector,
                     column_space_basis, intersect_null_spaces,
                     null_space_basis, rank)
from .signs import SignPoset, SignVector, leq, poset_cover_edges, sign_of

ENUMERATION_CAP = 12  # 3^12 sign candidates is where desk-scale stops


class InfeasibleSignError(Exception):
    """A sign vector no x realizes was asked to name a face."""


class Dictionary:
    """An analysis dictionary D (shape (n, p)) with cached kernel data.

    Columns of D are the atoms; the regularizer reads ||D' x||_1.  Cached:
    an orthonormal basis of Ker D' (the lineality space of every ball B_r),
    one of Ker D, and one of the image of D (the orthogonal complement of
    Ker D').  All arrays are read-only.
    """

    def __init__(self, D, tol: Tolerances | None = None):
        Dm = as_matrix(D, "D")
        if Dm.shape[0] < 1 or Dm.shape[1] < 1:
            raise ValueError("D must have at least one row and one column")
        self.tol = tol or DEFAULT_TOLS
        self.D = Dm
        self.Dstar = Dm.T.copy()
        self.kernel_dstar = null_space_basis(self.Dstar, self.tol)
        self.kernel_d = null_space_basis(self.D, self.tol)
        self.image_d = column_space_basis(self.D, self.tol)
        for arr in (self.D, self.Dstar, self.kernel_dstar, self.kernel_d,
                    self.image_d):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.D.shape[0]

    @property
    def p(self) -> int:
        return self.D.shape[1]

    def atom(self, i: int) -> np.ndarray:
        return self.D[:, i]

    def l1_value(self, x) -> float:
        return float(np.sum(np.abs(self.Dstar @ as_vector(x, "x"))))

    def __repr__(self) -> str:
        return f"Dictionary(n={self.n}, p={self.p})"


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the sign-realizability LP.

    When feasible, `witness` realizes the sign exactly (unit margins on the
    support, exact equalities on the cosupport make thresholding safe).  When
    infeasible, `certificate` carries the Farkas multipliers of the LP.
    """

    feasible: bool
    witness: np.ndarray | None = None
    certificate: tuple[np.ndarray, np.ndarray] | None = None


def _sign_lp(rows: np.ndarray, entries: np.ndarray) -> lp.LinearProgram:
    """Feasibility LP of sign(rows @ x) = entries.

    Rows on the cosupport become equalities `row @ x = 0`; a row with sign
    e = +-1 becomes `-e row @ x <= -1`, a unit margin that makes thresholding
    any solution safe.
    """
    supp = entries != 0
    m = int(supp.sum())
    return lp.LinearProgram(c=np.zeros(rows.shape[1]), A_eq=rows[~supp],
                            b_eq=np.zeros(rows.shape[0] - m),
                            A_le=-entries[supp, None] * rows[supp],
                            b_le=-np.ones(m))


def is_feasible(d: Dictionary, s: SignVector,
                tol: Tolerances | None = None) -> FeasibilityVerdict:
    """Decide whether some x has sign(D' x) = s, by one LP.

    The LP fixes D' x = 0 on the cosupport and pushes the supported entries
    past unit margins, so any solution realizes s exactly.
    """
    t = tol or d.tol
    if len(s) != d.p:
        raise ValueError("sign length disagrees with the dictionary")
    out = lp.solve(_sign_lp(d.Dstar, s.as_array()), t)
    if out.status == lp.INFEASIBLE:
        return FeasibilityVerdict(False, certificate=(out.farkas_eq, out.farkas_le))
    witness = out.x_opt
    if sign_of(d.Dstar @ witness, t.sign_tol) != s:
        raise RuntimeError("LP witness fails to realize its sign; this is a bug")
    return FeasibilityVerdict(True, witness=witness)


def enumerate_feasible_signs(d: Dictionary, cap: int = ENUMERATION_CAP,
                             tol: Tolerances | None = None,
                             with_witnesses: bool = False):
    """All feasible sign vectors of D', lexicographically sorted, by no LP.

    The feasible signs over rows 0..k-1 of D' are the faces of the central
    arrangement of the hyperplanes {(D' x)_i = 0}, i < k.  They grow one row
    l = (D')_k at a time (incremental construction, Edelsbrunner, O'Rourke &
    Seidel 1986), each face F carrying a witness x_F in its relative interior:

    - if l does not vanish on the lineality space L = Ker D'_{0..k-1} (a rank
      test), every face splits into +, 0 and -, with the witnesses
      x_F + (c - l(x_F)) v for c = 1, 0, -1 and v in L with l(v) = 1;
    - otherwise the closure of F is L + cone(rays of F), the rays being the
      faces G <= F of dimension dim L + 1, so l takes on F exactly the signs
      it takes on those rays.  A ray is 0 when l lies in the span of its
      cosupport rows (a rank test, cached per cosupport), else it has the
      sign of l at its witness.  The ray witnesses of each sign sum to u+
      and u- in the closure of F, scaled to l(u+-) = +-1.  Moving x_F along
      the one opposite to l(x_F) until l = 0 gives the 0 child z, and z + u+,
      z + u- the other two; relint F + closure F stays in relint F.  Only
      the children whose sign occurs on a ray exist, or only 0 if none does.

    After every row each witness is rescaled so that its smallest support
    entry |(D' x)_i| is 1, the margin of `is_feasible` witnesses.  Only
    prefixes whose first nonzero entry is + are walked; s feasible <=> -s
    feasible supplies the rest.  With `with_witnesses` a dict mapping each
    sign to a realizing point is returned instead of the plain list.
    """
    t = tol or d.tol
    if d.p > cap:
        raise ValueError(f"p={d.p} exceeds the enumeration cap {cap}")
    Ds = d.Dstar
    ranks: dict[tuple[int, ...], int] = {}

    def cosupport_rank(J: tuple[int, ...]) -> int:
        if J not in ranks:
            ranks[J] = rank(Ds[list(J)], t)
        return ranks[J]

    # walked faces over rows 0..k-1: entries, witnesses, cosupport ranks
    E, X, R = np.zeros((1, 0)), np.zeros((1, d.n)), np.zeros(1, int)
    for k in range(d.p):
        l, lx, rank_k = Ds[k], X @ Ds[k], cosupport_rank(tuple(range(k)))
        if cosupport_rank(tuple(range(k + 1))) > rank_k:
            B = null_space_basis(Ds[:k], t)
            U = V = np.broadcast_to(B @ (B.T @ l), X.shape)
        else:
            # the rays on which l is not 0, and their signs under l
            G = [g for g in np.flatnonzero(R == rank_k - 1) if cosupport_rank(
                tuple(np.flatnonzero(E[g] == 0).tolist()) + (k,)) >= rank_k]
            sig = np.sign(lx[G])[:, None]
            Ep, Wp = sig * E[G], sig * X[G]  # rays with l > 0, walked or not
            nnz = np.abs(Ep).sum(1)
            U, V = np.zeros_like(X), np.zeros_like(X)
            # chunks hold the faces x rays incidence to 2**18 entries
            step = max(1, (1 << 18) // max(len(Ep), 1))
            for a in range(0, len(E), step):
                M = E[a:a + step] @ Ep.T  # M == nnz(G) exactly when G <= F
                U[a:a + step] = (M == nnz) @ Wp
                V[a:a + step] = (M == -nnz) @ Wp
        lu, lv = U @ l, V @ l
        has_up, has_down = lu > 0, lv > 0
        U = U / np.where(has_up, lu, 1.0)[:, None]  # now l(U) = 1, or U = 0
        V = V / np.where(has_down, lv, 1.0)[:, None]
        zero = X + (np.maximum(0, -lx)[:, None] * U
                    - np.maximum(0, lx)[:, None] * V)
        split = has_up & has_down  # its 0 child gains a cosupport rank
        # the face L walks no - child; -s supplies it
        keep = (has_up, has_down & E.any(1), has_up == has_down)
        E = np.vstack([np.column_stack([E, np.full(len(E), c)])[m]
                       for c, m in zip((1.0, -1.0, 0.0), keep)])
        X = np.vstack([w[m] for w, m in zip((zero + U, zero - V, zero), keep)])
        R = np.concatenate([R[has_up], R[keep[1]], (R + split)[keep[2]]])
        margin = np.where(E != 0, np.abs(X @ Ds[:k + 1].T), np.inf).min(1)
        X /= np.where(np.isfinite(margin), margin, 1.0)[:, None]
    feasible: dict[SignVector, np.ndarray] = {}
    for entries, x in zip(E.astype(int).tolist(), X):
        s = SignVector(tuple(entries))
        if sign_of(Ds @ x, t.sign_tol) != s:
            raise RuntimeError("witness fails to realize its sign; this is a bug")
        feasible[s] = x
        feasible[-s] = -x
    if with_witnesses:
        return dict(sorted(feasible.items(), key=lambda kv: kv[0].entries))
    return sorted(feasible, key=lambda s: s.entries)


def is_pre_extremal(d: Dictionary, s: SignVector,
                    tol: Tolerances | None = None) -> bool:
    """Algebraic vertex test for the sign s, ignoring realizability.

    Stacks B = [basis(Ker D')' ; (D s)' ; rows of D' on the cosupport] and
    asks Ker B = {0}; equivalently the face direction space of s meets the
    complement of the lineality space only at 0.  The zero sign never names a
    sphere face and is excluded outright.
    """
    t = tol or d.tol
    if len(s) != d.p:
        raise ValueError("sign length disagrees with the dictionary")
    if s.is_zero():
        return False
    J = list(s.cosupport)
    blocks = [d.kernel_dstar.T, (d.D @ s.as_array())[None, :]]
    if J:
        blocks.append(d.Dstar[J])
    B = np.vstack(blocks)
    return null_space_basis(B, t).shape[1] == 0


def is_extremal(d: Dictionary, s: SignVector,
                tol: Tolerances | None = None) -> bool:
    """Feasible and pre-extremal: s names a vertex class of the unit ball."""
    if not is_pre_extremal(d, s, tol):
        return False
    return is_feasible(d, s, tol=tol).feasible


@dataclass(frozen=True)
class Face:
    """Exposed face of B_radius with maximal sign `max_sign`.

    direction_basis spans the face's direction space (the linear part of its
    affine hull); it always contains Ker D'.  The half-space form is

        <D s, x> = radius,   D'_J x = 0,   s_i (D' x)_i >= 0  (i in supp s),

    with J the cosupport of s.
    """

    dictionary: Dictionary
    max_sign: SignVector
    radius: float
    direction_basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.direction_basis.shape[1]

    def halfspaces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(A_eq, b_eq, A_le, b_le) with the inequalities written as <=."""
        d = self.dictionary
        s = self.max_sign
        J = list(s.cosupport)
        I = list(s.support)
        normal = d.D @ s.as_array()
        A_eq = np.vstack([normal[None, :]] + ([d.Dstar[J]] if J else []))
        b_eq = np.concatenate([[self.radius], np.zeros(len(J))])
        if I:
            A_le = -np.array([s[i] for i in I])[:, None] * d.Dstar[I]
            b_le = np.zeros(len(I))
        else:
            A_le = np.zeros((0, d.n))
            b_le = np.zeros(0)
        return A_eq, b_eq, A_le, b_le

    def contains(self, x, tol: float = 1e-7) -> bool:
        xv = as_vector(x, "x")
        A_eq, b_eq, A_le, b_le = self.halfspaces()
        scale = 1.0 + abs(self.radius)
        if A_eq.shape[0] and np.max(np.abs(A_eq @ xv - b_eq)) > tol * scale:
            return False
        if A_le.shape[0] and np.max(A_le @ xv - b_le) > tol * scale:
            return False
        return True

    def region(self) -> lp.LinearProgram:
        A_eq, b_eq, A_le, b_le = self.halfspaces()
        return lp.LinearProgram(c=np.zeros(self.dictionary.n), A_eq=A_eq,
                                b_eq=b_eq, A_le=A_le, b_le=b_le)


def face_from_sign(d: Dictionary, s: SignVector, radius: float,
                   check_feasible: bool = True,
                   tol: Tolerances | None = None) -> Face:
    """Materialize the exposed face named by a feasible sign at a given radius.

    radius must be positive for nonzero signs; the zero sign is only allowed
    with radius 0, where the "face" degenerates to the lineality space Ker D'.
    """
    t = tol or d.tol
    if len(s) != d.p:
        raise ValueError("sign length disagrees with the dictionary")
    if s.is_zero() != (radius == 0.0):
        raise ValueError("radius must be positive exactly when the sign is nonzero")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if check_feasible and not is_feasible(d, s, tol=t).feasible:
        raise InfeasibleSignError(f"sign {s} is not realizable; the face is empty")
    J = list(s.cosupport)
    mats = [(d.D @ s.as_array())[None, :]]
    if J:
        mats.append(d.Dstar[J])
    direction = intersect_null_spaces(mats, t)
    return Face(dictionary=d, max_sign=s, radius=float(radius),
                direction_basis=direction)


def minimal_face_of_point(d: Dictionary, x,
                          tol: Tolerances | None = None) -> Face:
    """Smallest exposed face of B_{||D'x||_1} containing x; needs D'x != 0."""
    t = tol or d.tol
    xv = as_vector(x, "x")
    theta = d.Dstar @ xv
    r = float(np.sum(np.abs(theta)))
    s = sign_of(theta, t.sign_tol)
    if s.is_zero():
        raise ValueError("D' x = 0: the point lies in the lineality space, "
                         "not on any sphere")
    return face_from_sign(d, s, r, check_feasible=False, tol=t)


def face_contains(f1: Face, f2: Face) -> bool:
    """Whether f1 is a subset of f2; decided purely by the sign order."""
    if f1.dictionary is not f2.dictionary and \
            not np.array_equal(f1.dictionary.D, f2.dictionary.D):
        raise ValueError("faces of different dictionaries")
    if abs(f1.radius - f2.radius) > 1e-12 * (1.0 + abs(f1.radius)):
        raise ValueError("faces of different spheres are never nested")
    return leq(f1.max_sign, f2.max_sign)


@dataclass(frozen=True)
class HasseDiagram:
    """Face lattice of the unit ball, indexed by feasible signs.

    dims maps each sign to the dimension of its face of B_1 (the zero sign is
    assigned dim Ker D', its degenerate class).  extremal are the minimal
    nonzero elements (vertex classes), maximal the facet signs.
    """

    poset: SignPoset
    dims: dict[SignVector, int]
    extremal: frozenset[SignVector]
    maximal: frozenset[SignVector]


def hasse_diagram(d: Dictionary, cap: int = ENUMERATION_CAP,
                  tol: Tolerances | None = None) -> HasseDiagram:
    """Hasse diagram of the feasible-sign poset with face annotations."""
    t = tol or d.tol
    signs = enumerate_feasible_signs(d, cap=cap, tol=t)
    poset = poset_cover_edges(signs)
    dims: dict[SignVector, int] = {}
    for s in signs:
        if s.is_zero():
            dims[s] = d.kernel_dstar.shape[1]
        else:
            dims[s] = face_from_sign(d, s, 1.0, check_feasible=False, tol=t).dim
    # the zero sign is always feasible, so the minimal nonzero elements are
    # exactly the signs that cover it
    extremal = frozenset(b for a, b in poset.cover_edges if a.is_zero())
    maximal = frozenset(poset.maximal_elements())
    return HasseDiagram(poset=poset, dims=dims, extremal=extremal,
                        maximal=maximal)


def to_dot(h: HasseDiagram) -> str:
    """Render a Hasse diagram as deterministic Graphviz DOT text.

    Nodes appear in lexicographic order of their sign string, edges point
    from coarser to finer sign, and vertex classes / facets carry a class
    attribute so styling can hook onto them.
    """
    lines = ["digraph feasible_signs {", "  rankdir=BT;"]
    for s in sorted(h.poset.elements, key=lambda s: s.to_string()):
        name = s.to_string()
        classes = []
        if s in h.extremal:
            classes.append("extremal")
        if s in h.maximal:
            classes.append("maximal")
        attrs = [f'label="{name} (dim {h.dims[s]})"']
        if classes:
            attrs.append(f'class="{" ".join(classes)}"')
        lines.append(f'  "{name}" [{", ".join(attrs)}];')
    for a, b in sorted(h.poset.cover_edges,
                       key=lambda e: (e[0].to_string(), e[1].to_string())):
        lines.append(f'  "{a.to_string()}" -> "{b.to_string()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def brute_force_feasible_signs(d: Dictionary, samples_per_stratum: int = 200,
                               seed: int = 0, cap: int = 10,
                               tol: Tolerances | None = None) -> list[SignVector]:
    """Sampling oracle for the feasible signs, independent of the enumeration.

    For every cosupport candidate J it draws points of Ker D'_J and records
    the observed sign of D'x; each draw is additionally probed at a few small
    offsets inside the flats one cosupport index up, because thin sign cells
    hug those flats and plain sampling misses them.  Every reported sign is
    read off a concrete evaluated point (or its reflection, since -x realizes
    -s), so the oracle never overreaches; entries inside the ambiguity band
    above the sign threshold cause the whole sample to be discarded rather
    than guessed.  Rare patterns thinner than the band may still be missed,
    which is the price of a sampling oracle.
    """
    t = tol or d.tol
    if d.p > cap:
        raise ValueError(f"p={d.p} exceeds the brute-force cap {cap}")
    rng = np.random.default_rng(seed)
    found: set[SignVector] = set()
    ambiguous_lo, ambiguous_hi = t.sign_tol, 1e-4
    offset_scales = (3e-2, 3e-3, 3e-4)

    def record(theta_cols: np.ndarray) -> None:
        mags = np.abs(theta_cols)
        ok = ~np.any((mags > ambiguous_lo) & (mags < ambiguous_hi), axis=0)
        for col in np.nonzero(ok)[0]:
            s = sign_of(theta_cols[:, col], t.sign_tol)
            found.add(s)
            found.add(-s)

    bases: dict[tuple[int, ...], np.ndarray] = {}
    for k in range(d.p + 1):
        for J in itertools.combinations(range(d.p), k):
            basis = null_space_basis(d.Dstar[list(J)], t) if J else np.eye(d.n)
            bases[J] = basis
            if basis.shape[1] == 0:
                found.add(SignVector.zero(d.p))
                continue
            X = basis @ rng.standard_normal((basis.shape[1],
                                             samples_per_stratum))
            record(d.Dstar @ X)
            if not k:
                continue
            norms = np.linalg.norm(X, axis=0) + 1e-12
            for i in J:
                parent = tuple(j for j in J if j != i)
                Bp = bases[parent]
                W = Bp @ rng.standard_normal((Bp.shape[1],
                                              samples_per_stratum))
                W = W / (np.linalg.norm(W, axis=0) + 1e-12)
                for eta in offset_scales:
                    record(d.Dstar @ (X + eta * norms * W))
                    record(d.Dstar @ (X - eta * norms * W))
    return sorted(found, key=lambda s: s.entries)
