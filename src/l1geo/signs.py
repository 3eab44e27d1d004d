"""Sign vectors in {-1, 0, +1}^p and their refinement partial order.

The order s <= t ("t refines s") holds when every nonzero entry of s is
matched by t.  It encodes inclusion between the faces a sign pattern carves
out of the regularizer's unit ball, so the combinatorics here drive all the
face-lattice code.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .linalg import DEFAULT_TOLS, as_vector

_CHAR_OF = {1: "+", 0: "0", -1: "-"}
_VALUE_OF = {"+": 1, "0": 0, "-": -1}


@dataclass(frozen=True)
class SignVector:
    """Immutable sign pattern; entries are ints in {-1, 0, +1}."""

    entries: tuple[int, ...]

    def __post_init__(self):
        ent = tuple(int(e) for e in self.entries)
        if any(e not in (-1, 0, 1) for e in ent):
            raise ValueError(f"entries must be in {{-1,0,1}}: {self.entries}")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_string(cls, text: str) -> "SignVector":
        try:
            return cls(tuple(_VALUE_OF[ch] for ch in text))
        except KeyError as exc:
            raise ValueError(f"bad sign character in {text!r}") from exc

    @classmethod
    def zero(cls, p: int) -> "SignVector":
        return cls((0,) * p)

    def to_string(self) -> str:
        return "".join(_CHAR_OF[e] for e in self.entries)

    def __str__(self) -> str:
        return self.to_string()

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __neg__(self) -> "SignVector":
        return SignVector(tuple(-e for e in self.entries))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.entries) if e != 0)

    @property
    def cosupport(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.entries) if e == 0)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)


def leq(s: SignVector, t: SignVector) -> bool:
    """Refinement order: every nonzero entry of s agrees with t."""
    if len(s) != len(t):
        raise ValueError("sign vectors of different length")
    return all(a == 0 or a == b for a, b in zip(s, t))


def consistent(s: SignVector, t: SignVector) -> bool:
    """No coordinate where s and t carry opposite nonzero signs."""
    if len(s) != len(t):
        raise ValueError("sign vectors of different length")
    return all(a * b != -1 for a, b in zip(s, t))


def sign_of(v, sign_tol: float = DEFAULT_TOLS.sign_tol) -> SignVector:
    """Threshold a real vector to its sign pattern.

    This is the single place numbers are turned into signs; callers should
    not roll their own thresholding.
    """
    a = as_vector(v)
    ent = np.zeros(a.size, dtype=int)
    ent[a > sign_tol] = 1
    ent[a < -sign_tol] = -1
    return SignVector(tuple(int(e) for e in ent))


class PairingMax(NamedTuple):
    """Value of max_s <s, theta> over sign vectors, with the minimal attainer.

    The maximum equals the l1 norm of theta and is attained exactly by the
    signs refining `minimal_sign`.
    """

    value: float
    minimal_sign: SignVector


def dual_pairing_max(theta, sign_tol: float = DEFAULT_TOLS.sign_tol) -> PairingMax:
    """l1 norm of theta together with the coarsest sign attaining it."""
    a = as_vector(theta)
    return PairingMax(float(np.sum(np.abs(a))), sign_of(a, sign_tol))


def _leq_matrix(arr: np.ndarray) -> np.ndarray:
    """Boolean matrix R with R[a, b] = (sign a) <= (sign b), vectorized.

    <a, b> counts the nonzero entries of a that b matches minus those it
    opposes, so it equals |supp a| exactly when a <= b.
    """
    A = arr.astype(np.float32)
    return A @ A.T == np.abs(A).sum(axis=1)[:, None]


@dataclass(frozen=True)
class SignPoset:
    """A finite set of sign vectors with the cover edges of the refinement order."""

    elements: tuple[SignVector, ...]
    cover_edges: tuple[tuple[SignVector, SignVector], ...]

    def minimal_elements(self) -> tuple[SignVector, ...]:
        has_parent = {t for _, t in self.cover_edges}
        return tuple(s for s in self.elements if s not in has_parent)

    def maximal_elements(self) -> tuple[SignVector, ...]:
        has_child = {s for s, _ in self.cover_edges}
        return tuple(s for s in self.elements if s not in has_child)

    def __contains__(self, s: SignVector) -> bool:
        return s in set(self.elements)


def poset_cover_edges(signs: Iterable[SignVector]) -> SignPoset:
    """Cover relation (transitive reduction) of the refinement order on a set.

    An edge (s, t) means t covers s: s < t with no element strictly between.
    """
    elems = sorted(set(signs), key=lambda s: s.entries)
    if not elems:
        return SignPoset((), ())
    lengths = {len(s) for s in elems}
    if len(lengths) != 1:
        raise ValueError("all sign vectors must have the same length")
    arr = np.array([s.entries for s in elems], dtype=np.int8)
    R = _leq_matrix(arr)
    strict = R & ~np.eye(len(elems), dtype=bool)
    # covers = strict pairs not realized through an intermediate element.
    # float32 runs on BLAS where integer matmul does not; its sums here are
    # exact below 2**24 terms, and a sum of ones never rounds to 0 anyway
    s32 = strict.astype(np.float32)
    cover = strict & ~((s32 @ s32) > 0)
    edges = tuple((elems[i], elems[j]) for i, j in np.argwhere(cover))
    edges = tuple(sorted(edges, key=lambda e: (e[0].entries, e[1].entries)))
    return SignPoset(tuple(elems), edges)
