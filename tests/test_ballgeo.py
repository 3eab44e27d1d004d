"""Faces of the penalty ball: feasibility, extremality, lattice, DOT export."""
import graphlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1geo import lp
from l1geo.ballgeo import (Dictionary, InfeasibleSignError,
                           brute_force_feasible_signs,
                           enumerate_feasible_signs, face_contains,
                           face_from_sign, hasse_diagram, is_extremal,
                           is_feasible, is_pre_extremal,
                           minimal_face_of_point, to_dot)
from l1geo.dictionaries import (complete_graph_edges, difference_dict,
                                identity_dict, incidence_dict)
from l1geo.signs import SignVector, leq, sign_of


def test_dictionary_caches():
    d = Dictionary(difference_dict(3))
    assert (d.n, d.p) == (3, 2)
    assert np.allclose(d.atom(0), [-1.0, 1.0, 0.0])
    assert d.l1_value(np.array([0.0, 1.0, 3.0])) == pytest.approx(3.0)
    assert d.kernel_dstar.shape == (3, 1)  # the constants
    assert np.allclose(d.Dstar @ d.kernel_dstar, 0.0, atol=1e-12)
    with pytest.raises(IndexError):
        d.atom(5)


def test_is_feasible_witness_realizes_sign(bench3d):
    d = bench3d.dictionary
    s = SignVector.from_string("+0+")
    verdict = is_feasible(d, s)
    assert verdict.feasible
    assert sign_of(d.Dstar @ verdict.witness) == s


def test_is_feasible_cycle_is_infeasible(k4_dict):
    # edges (0,1), (0,2), (1,2) carry x0>x1, x0<x2, x1>x2: a strict cycle
    s = SignVector((1, -1, 0, 1, 0, 0))
    verdict = is_feasible(k4_dict, s)
    assert not verdict.feasible
    assert verdict.certificate is not None


def test_enumerate_feasible_signs_identity2():
    d = Dictionary(identity_dict(2))
    signs = enumerate_feasible_signs(d)
    assert len(signs) == 9
    assert signs == sorted(signs, key=lambda s: s.entries)
    assert all(-s in set(signs) for s in signs)  # centrosymmetry
    wit = enumerate_feasible_signs(d, with_witnesses=True)
    assert set(wit) == set(signs)
    for s, x in wit.items():
        assert sign_of(d.Dstar @ x) == s


def test_enumeration_cap():
    d = Dictionary(np.ones((1, 13)))
    with pytest.raises(ValueError):
        enumerate_feasible_signs(d)


K5_EDGES = complete_graph_edges(5)


def _incidence_graphs():
    """(edges, vertex count, feasible count or None) per test graph."""
    graphs = [pytest.param(complete_graph_edges(4), 4, 75, id="K4"),
              pytest.param(K5_EDGES, 5, 541, id="K5")]
    graphs += [pytest.param(K5_EDGES[:j] + K5_EDGES[j + 1:], 5, 453,
                            id=f"K5-{j}") for j in range(len(K5_EDGES))]
    rng = np.random.default_rng(6)
    k6 = complete_graph_edges(6)
    for size in (8, 9):
        pick = sorted(rng.choice(len(k6), size=size, replace=False))
        edges = [k6[i] if rng.random() < 0.5 else k6[i][::-1] for i in pick]
        graphs.append(pytest.param(edges, 6, None, id=f"G6-{size}"))
    return graphs


def _graph_sign_feasible(s, edges, n_vertices: int) -> bool:
    """LP-free criterion for sign(x_u - x_v) = s_e on the edges (u, v).

    Contract the 0 edges into blocks; every nonzero edge must then join two
    different blocks and orient the quotient graph acyclically.
    """
    block = list(range(n_vertices))

    def find(a: int) -> int:
        while block[a] != a:
            a = block[a]
        return a

    for (u, v), e in zip(edges, s):
        if e == 0:
            block[find(u)] = find(v)
    below: dict[int, set[int]] = {}
    for (u, v), e in zip(edges, s):
        if e:
            hi, lo = (find(u), find(v)) if e > 0 else (find(v), find(u))
            if hi == lo:
                return False
            below.setdefault(hi, set()).add(lo)
    try:
        graphlib.TopologicalSorter(below).prepare()
    except graphlib.CycleError:
        return False
    return True


@pytest.mark.parametrize("edges, n_vertices, count", _incidence_graphs())
def test_incidence_enumeration_matches_graph_criterion(edges, n_vertices,
                                                       count):
    d = Dictionary(incidence_dict(edges, n_vertices))
    wit = enumerate_feasible_signs(d, with_witnesses=True)
    # itertools.product walks the candidates in lexicographic order
    expected = [s for s in itertools.product((-1, 0, 1), repeat=len(edges))
                if _graph_sign_feasible(s, edges, n_vertices)]
    assert [s.entries for s in wit] == expected
    if count is not None:
        assert len(wit) == count
    for s, x in wit.items():
        assert sign_of(d.Dstar @ x) == s


@pytest.mark.parametrize("edges", [K5_EDGES, K5_EDGES[1:]],
                         ids=["K5", "K5-0"])
def test_enumeration_lp_count_scales_with_output(monkeypatch, edges):
    # the walk reads every child off the rays of the prefix arrangement
    calls = []
    solve = lp.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "solve", counting_solve)
    signs = enumerate_feasible_signs(Dictionary(incidence_dict(edges, 5)))
    assert signs and not calls


def _degenerate_dict() -> np.ndarray:
    """4x8 dictionary with a zero, a repeated and a dependent column."""
    A = np.random.default_rng(12).standard_normal((4, 4))
    return np.column_stack([A[:, 0], np.zeros(4), A[:, 1], A[:, 0], A[:, 2],
                            A[:, 1] - 2 * A[:, 2], A[:, 3], -A[:, 3]])


@pytest.mark.parametrize("D", [
    np.random.default_rng(21).standard_normal((3, 6)),
    np.random.default_rng(22).standard_normal((4, 7)),
    np.random.default_rng(23).integers(-2, 3, size=(4, 7)).astype(float),
    _degenerate_dict()], ids=["gauss3x6", "gauss4x7", "int4x7", "degenerate"])
def test_enumeration_matches_lp_oracle(D):
    d = Dictionary(D)
    expected = [s for s in map(SignVector,
                               itertools.product((-1, 0, 1), repeat=d.p))
                if is_feasible(d, s).feasible]
    assert enumerate_feasible_signs(d) == expected


def test_enumeration_witnesses_have_unit_margins():
    d = Dictionary(np.random.default_rng(5).standard_normal((5, 10)))
    wit = enumerate_feasible_signs(d, with_witnesses=True)
    assert len(wit) > 1000
    for s, x in wit.items():
        assert sign_of(d.Dstar @ x) == s
        if not s.is_zero():
            # unit margin, up to the rounding of the final rescale
            margin = np.min(np.abs(d.Dstar @ x)[list(s.support)])
            assert margin >= 1 - 1e-12


def _generic_face_count(m: int, n: int) -> int:
    """Faces of m >= n central hyperplanes in general position in R^n.

    The flat of k < n of them carries the regions of the other m - k, a
    generic central arrangement in R^(n-k) with 2 sum_{i<n-k} C(m-k-1, i)
    regions; the origin is one more face.
    """
    return 1 + sum(math.comb(m, k) * 2 * sum(math.comb(m - k - 1, i)
                                             for i in range(n - k))
                   for k in range(n))


def test_enumeration_where_the_sign_lp_raises():
    # is_feasible raises "phase-1 simplex reported unbounded" on the signs
    # 0+--00-++0 and 0+--0+-++0 of this dictionary, and so did the LP walk
    d = Dictionary(np.random.default_rng(8).standard_normal((6, 10)))
    assert len(enumerate_feasible_signs(d)) == _generic_face_count(10, 6)


_gauss = st.builds(lambda seed, n, p: np.random.default_rng(seed)
                   .standard_normal((n, p)),
                   st.integers(0, 2**32 - 1), st.integers(1, 4),
                   st.integers(1, 7))


@settings(max_examples=25, deadline=None)
@given(_gauss, st.randoms(use_true_random=False))
def test_enumeration_permutes_with_columns(D, random):
    perm = list(range(D.shape[1]))
    random.shuffle(perm)
    base = enumerate_feasible_signs(Dictionary(D))
    moved = enumerate_feasible_signs(Dictionary(D[:, perm]))
    assert set(moved) == {SignVector(tuple(s[i] for i in perm)) for s in base}


@settings(max_examples=25, deadline=None)
@given(_gauss, st.lists(st.sampled_from((-1.0, 1.0)), min_size=7,
                        max_size=7))
def test_enumeration_flips_with_atoms(D, flips):
    f = np.array(flips[:D.shape[1]])
    base = enumerate_feasible_signs(Dictionary(D))
    flipped = enumerate_feasible_signs(Dictionary(D * f))
    assert set(flipped) == {SignVector(tuple(int(e) for e in s.as_array() * f))
                            for s in base}


@settings(max_examples=25, deadline=None)
@given(_gauss, st.floats(-4, 4))
def test_enumeration_is_scale_invariant(D, log_c):
    c = 10.0 ** log_c
    assert (enumerate_feasible_signs(Dictionary(c * D))
            == enumerate_feasible_signs(Dictionary(D)))


def test_extremal_identity2():
    d = Dictionary(identity_dict(2))
    extremal = [s.to_string() for s in enumerate_feasible_signs(d)
                if is_extremal(d, s)]
    assert extremal == ["-0", "0-", "0+", "+0"]
    assert not is_pre_extremal(d, SignVector.zero(2))
    assert not is_extremal(d, SignVector.from_string("++"))


def test_extremal_requires_feasibility(k4_dict):
    s = SignVector((1, -1, 0, 1, 0, 0))  # infeasible cycle from above
    assert is_pre_extremal(k4_dict, s)
    assert not is_extremal(k4_dict, s)


def test_face_from_sign_tv3(tv3_dict):
    s = SignVector.from_string("+0")
    f = face_from_sign(tv3_dict, s, 1.0)
    assert f.dim == 1
    # the face is the ray {(t, 1+t, 1+t)} (as a line segment of the sphere
    # it is a translate of the lineality direction (1,1,1))
    assert f.contains(np.array([0.0, 1.0, 1.0]))
    assert f.contains(np.array([2.0, 3.0, 3.0]))
    assert not f.contains(np.array([0.0, 1.0, 0.0]))
    A_eq, b_eq, A_le, b_le = f.halfspaces()
    x = np.array([0.0, 1.0, 1.0])
    assert np.allclose(A_eq @ x, b_eq, atol=1e-12)
    assert np.all(A_le @ x <= b_le + 1e-12)


def test_face_from_sign_validation(tv3_dict):
    with pytest.raises(ValueError):
        face_from_sign(tv3_dict, SignVector.zero(2), 1.0)
    with pytest.raises(ValueError):
        face_from_sign(tv3_dict, SignVector.from_string("+0"), 0.0)
    zero_face = face_from_sign(tv3_dict, SignVector.zero(2), 0.0)
    assert zero_face.dim == 1  # Ker of the analysis map: the constants
    assert zero_face.contains(np.array([3.0, 3.0, 3.0]))


def test_face_from_sign_check_feasible(k4_dict):
    s = SignVector((1, -1, 0, 1, 0, 0))
    with pytest.raises(InfeasibleSignError):
        face_from_sign(k4_dict, s, 1.0, check_feasible=True)


def test_minimal_face_of_point(tv3_dict):
    f = minimal_face_of_point(tv3_dict, np.array([0.0, 1.0, 1.0]))
    assert f.max_sign == SignVector.from_string("+0")
    assert f.radius == pytest.approx(1.0)
    with pytest.raises(ValueError):
        minimal_face_of_point(tv3_dict, np.array([2.0, 2.0, 2.0]))


def test_face_contains_matches_sign_order(tv3_dict):
    fine = face_from_sign(tv3_dict, SignVector.from_string("++"), 1.0)
    coarse = face_from_sign(tv3_dict, SignVector.from_string("+0"), 1.0)
    other = face_from_sign(tv3_dict, SignVector.from_string("+-"), 1.0)
    assert face_contains(coarse, fine)       # F(+0) subset of F(++)
    assert not face_contains(fine, coarse)
    assert face_contains(coarse, other)      # +0 refines into +- as well
    assert not face_contains(other, fine) and not face_contains(fine, other)
    with pytest.raises(ValueError):
        face_contains(fine, face_from_sign(tv3_dict,
                                           SignVector.from_string("+0"), 2.0))
    d2 = Dictionary(identity_dict(3))
    with pytest.raises(ValueError):
        face_contains(fine, face_from_sign(d2, SignVector.from_string("+00"),
                                           1.0))


def test_hasse_diagram_tv3(tv3_dict):
    h = hasse_diagram(tv3_dict)
    assert len(h.poset.elements) == 9
    assert len(h.poset.cover_edges) == 12
    assert h.dims[SignVector.zero(2)] == 1  # bottom face = lineality line
    assert {s.to_string() for s in h.extremal} == {"-0", "0-", "0+", "+0"}
    assert {s.to_string() for s in h.maximal} == {"--", "-+", "+-", "++"}


def test_hasse_diagram_identity2():
    h = hasse_diagram(Dictionary(identity_dict(2)))
    assert len(h.poset.elements) == 9
    assert len(h.poset.cover_edges) == 12
    assert h.dims[SignVector.zero(2)] == 0
    assert {s.to_string() for s in h.extremal} == {"-0", "0-", "0+", "+0"}


def test_hasse_extremal_are_minimal_nonzero_signs():
    h = hasse_diagram(Dictionary(incidence_dict(K5_EDGES[1:], 5)))
    nonzero = [s for s in h.poset.elements if not s.is_zero()]
    minimal = {s for s in nonzero
               if not any(t != s and leq(t, s) for t in nonzero)}
    assert len(h.extremal) == 28
    assert h.extremal == minimal


def test_to_dot_frozen_and_deterministic(tv3_dict):
    dot1 = to_dot(hasse_diagram(tv3_dict))
    dot2 = to_dot(hasse_diagram(Dictionary(difference_dict(3))))
    assert dot1 == dot2  # byte-identical across runs
    assert dot1.startswith("digraph feasible_signs {\n  rankdir=BT;\n")
    assert '"+0" [label="+0 (dim 1)", class="extremal"];' in dot1
    assert '"++" [label="++ (dim 2)", class="maximal"];' in dot1
    assert '"00" [label="00 (dim 1)"];' in dot1
    assert '  "00" -> "+0";' in dot1
    assert dot1.endswith("}\n")


def test_brute_force_matches_lp_on_small_dicts(tv3_dict):
    for d in (Dictionary(identity_dict(2)), tv3_dict):
        lp_signs = enumerate_feasible_signs(d)
        sampled = brute_force_feasible_signs(d, samples_per_stratum=300,
                                             seed=1)
        assert set(sampled) <= set(lp_signs)
        assert list(sampled) == list(lp_signs)


def test_brute_force_is_sound_on_random_dict():
    rng = np.random.default_rng(3)
    d = Dictionary(rng.standard_normal((3, 4)))
    lp_signs = set(enumerate_feasible_signs(d))
    sampled = brute_force_feasible_signs(d, samples_per_stratum=50, seed=2)
    assert set(sampled) <= lp_signs
