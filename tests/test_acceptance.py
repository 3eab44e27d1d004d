"""End-to-end acceptance checks.

Every test carries a `criterion` marker; the run ends with one PASS/FAIL
line per criterion (see conftest).  Tolerances are stated inline and were
fixed before the implementation existed.
"""
import json
import time

import numpy as np
import pytest

from l1geo.ballgeo import (Dictionary, enumerate_feasible_signs,
                           face_from_sign, is_extremal, is_pre_extremal,
                           brute_force_feasible_signs)
from l1geo.cli import main as cli_main
from l1geo.construct import (AffineSubspace, construct_face_instance,
                             probe_directions, support_gap,
                             verify_construction)
from l1geo.dictionaries import (complete_graph_edges, difference_dict,
                                identity_dict, incidence_dict)
from l1geo.linalg import null_space_basis
from l1geo.lp import OPTIMAL, LinearProgram, max_linear_over, solve
from l1geo.signs import SignVector, leq
from l1geo.solset import (ProblemInstance, coordinate_bounds,
                          describe_solution_set, enumerate_extreme_solutions,
                          maximal_sign, solution_hasse, solve_admm)

TV3_AFFINE = AffineSubspace.from_normals(np.array([1.0, 1.0, 1.0]),
                                         np.array([[0.0, 1.0, 0.0]]))


@pytest.fixture(scope="module")
def k4_signs(k4_dict):
    return enumerate_feasible_signs(k4_dict)


@pytest.fixture(scope="module")
def k4_extremal(k4_dict, k4_signs):
    return [s for s in k4_signs if is_extremal(k4_dict, s)]


@pytest.fixture(scope="module")
def random_dicts():
    """100 random dictionaries, n <= 4 and p <= 5, standard normal, seed 0."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 6))
        out.append(Dictionary(rng.standard_normal((n, p))))
    return out


@pytest.fixture(scope="module")
def random_enumerations(random_dicts):
    """Sign -> witness maps for the 100 random dictionaries (shared work)."""
    return [enumerate_feasible_signs(d, with_witnesses=True)
            for d in random_dicts]


@pytest.mark.criterion(1, "K4 enumeration: 75 of 729 feasible, 14 extremal, "
                          "under 10 s")
def test_criterion_1_k4_enumeration(tmp_path, capsys):
    D = incidence_dict(complete_graph_edges(4), 4)
    path = tmp_path / "k4.csv"
    path.write_text("\n".join(",".join(format(v, ".17g") for v in row)
                              for row in D) + "\n")
    start = time.monotonic()
    rc = cli_main(["signs", "enumerate", "--dict", str(path), "--out", "json"])
    elapsed = time.monotonic() - start
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["feasible_count"] == 75
    assert data["candidates"] == 729
    assert data["extremal_count"] == 14
    assert elapsed < 10.0


@pytest.mark.criterion(2, "K4 extremal signs form 7 centrosymmetric pairs")
def test_criterion_2_k4_centrosymmetric_pairs(k4_extremal):
    assert len(k4_extremal) == 14
    extremal = set(k4_extremal)
    pairs = set()
    for s in extremal:
        assert -s in extremal
        assert -s != s
        pairs.add(frozenset((s, -s)))
    assert len(pairs) == 7


@pytest.mark.criterion(3, "3-d benchmark round trip from an ADMM solve")
def test_criterion_3_bench3d_round_trip(bench3d):
    x = solve_admm(bench3d)
    s, _ = maximal_sign(bench3d, x)
    assert s == SignVector((1, 1, 1))
    desc = describe_solution_set(bench3d, x)
    assert desc.dim == 1
    assert desc.compact is True
    pts = enumerate_extreme_solutions(bench3d, desc)
    assert len(pts) == 2
    expected = {(0.0, 0.5, 0.0), (0.0, 0.0, 0.5)}
    for pt in pts:
        assert min(np.max(np.abs(pt - np.array(e))) for e in expected) <= 1e-6
    poset = solution_hasse(bench3d, desc)
    assert {t.entries for t in poset.elements} == {(1, 0, 1), (0, 1, 1),
                                                   (1, 1, 1)}
    lo, hi = coordinate_bounds(desc, np.array([1.0, 0.0, 0.0]))
    assert abs(lo) <= 1e-7 and abs(hi) <= 1e-7


@pytest.mark.criterion(4, "TV-3 face construction hits Phi and y exactly "
                          "and verifies")
def test_criterion_4_tv3_construction(tv3_dict):
    ci = construct_face_instance(tv3_dict, SignVector((-1, 1)), 1.0,
                                 TV3_AFFINE, 1.0)
    assert np.array_equal(ci.instance.Phi,
                          np.array([[1.0, -2.0, 1.0], [0.0, 1.0, 0.0]]))
    assert np.array_equal(ci.instance.y, np.array([2.0, 1.0]))
    report = verify_construction(ci)
    assert report.passed
    pts = report.extreme_points
    assert pts is not None and len(pts) == 2
    expected = {(1.0, 1.0, 2.0), (2.0, 1.0, 1.0)}
    for pt in pts:
        assert min(np.max(np.abs(pt - np.array(e))) for e in expected) <= 1e-6


@pytest.mark.criterion(5, "identity dictionaries: 3^n feasible, 2n extremal")
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_5_identity_counts(n):
    d = Dictionary(identity_dict(n))
    signs = enumerate_feasible_signs(d)
    assert len(signs) == 3 ** n
    extremal = [s for s in signs if is_extremal(d, s)]
    assert len(extremal) == 2 * n


@pytest.mark.criterion(6, "enumeration contains the sampling oracle; "
                          "equal on >= 95 of 100 random dictionaries")
def test_criterion_6_oracle_equivalence(random_dicts, random_enumerations):
    equal = 0
    for d, wit in zip(random_dicts, random_enumerations):
        lp_signs = list(wit)
        oracle = brute_force_feasible_signs(d, samples_per_stratum=200,
                                            seed=0)
        assert set(oracle) <= set(lp_signs)  # the oracle never overreaches
        if list(oracle) == lp_signs:
            equal += 1
    assert equal >= 95


def _inclusion_matches_order(d, witnesses):
    """Exhaustive pairwise check: ri-point membership == sign order."""
    signs = [s for s in witnesses if not s.is_zero()]
    if not signs:
        return
    # scale each witness onto the unit sphere of the penalty; the margins of
    # the feasibility LP keep the scaled points strictly inside their faces
    points = np.array([witnesses[s] / d.l1_value(witnesses[s])
                       for s in signs])
    for t in signs:
        face = face_from_sign(d, t, 1.0, check_feasible=False)
        A_eq, b_eq, A_le, b_le = face.halfspaces()
        ok_eq = np.max(np.abs(points @ A_eq.T - b_eq), axis=1) <= 1e-7
        ok_le = np.ones(len(points), dtype=bool) if A_le.shape[0] == 0 else \
            np.max(points @ A_le.T - b_le, axis=1) <= 1e-7
        member = ok_eq & ok_le
        expected = np.array([leq(s, t) for s in signs])
        assert np.array_equal(member, expected), \
            f"membership/order mismatch for target sign {t}"


@pytest.mark.criterion(7, "face inclusion by H-representation equals the "
                          "sign order, exhaustively")
def test_criterion_7_order_isomorphism(random_dicts, random_enumerations,
                                       bench3d, tv3_dict):
    fixed = [bench3d.dictionary, tv3_dict] + \
        [Dictionary(identity_dict(n)) for n in range(2, 6)]
    for d in fixed:
        _inclusion_matches_order(d, enumerate_feasible_signs(
            d, with_witnesses=True))
    for d, wit in zip(random_dicts, random_enumerations):
        _inclusion_matches_order(d, wit)


@pytest.mark.criterion(8, "ADMM solutions from different starts agree in "
                          "Phi x and penalty value")
def test_criterion_8_solution_constancy():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 6))
        q = int(rng.integers(1, n))  # deliberately rank deficient: q < n
        d = Dictionary(rng.standard_normal((n, p)))
        inst = ProblemInstance(dictionary=d,
                               Phi=rng.standard_normal((q, n)),
                               y=rng.standard_normal(q),
                               lam=float(rng.uniform(0.3, 1.5)))
        x1 = solve_admm(inst)
        x2 = solve_admm(inst, x0=3.0 * rng.standard_normal(n))
        assert np.max(np.abs(inst.Phi @ x1 - inst.Phi @ x2)) <= 1e-5
        assert abs(d.l1_value(x1) - d.l1_value(x2)) <= 1e-5


def _extremal_faces_are_points(d, signs, rng):
    """Two independent LP objectives over face ∩ (lineality)^perp agree."""
    U = d.kernel_dstar
    for s in signs:
        face = face_from_sign(d, s, 1.0, check_feasible=False)
        A_eq, b_eq, A_le, b_le = face.halfspaces()
        if U.shape[1]:
            A_eq = np.vstack([A_eq, U.T])
            b_eq = np.concatenate([b_eq, np.zeros(U.shape[1])])
        region = LinearProgram(c=np.zeros(d.n), A_eq=A_eq, b_eq=b_eq,
                               A_le=A_le, b_le=b_le)
        sols = []
        for _ in range(2):
            out = max_linear_over(region, rng.standard_normal(d.n))
            assert out.status == OPTIMAL
            sols.append(out.x_opt)
        assert np.max(np.abs(sols[0] - sols[1])) <= 1e-7


def _nonextremal_have_directions(d, signs):
    """Each feasible nonzero non-extremal sign has a unit face direction
    outside the lineality space; the zero sign degenerates to the lineality
    space itself."""
    for s in signs:
        if s.is_zero():
            if d.kernel_dstar.shape[1]:
                v = d.kernel_dstar[:, 0]
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
            else:
                # no direction exists; the convention is that the zero sign
                # never counts as extremal even when its algebraic stack is
                # injective
                assert not is_pre_extremal(d, s)
            continue
        B = np.vstack([d.kernel_dstar.T,
                       (d.D @ s.as_array())[None, :],
                       d.Dstar[list(s.cosupport)]
                       if s.cosupport else np.zeros((0, d.n))])
        V = null_space_basis(B)
        assert V.shape[1] > 0, f"non-extremal {s} should have a direction"
        v = V[:, 0]
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
        assert abs(float((d.D @ s.as_array()) @ v)) <= 1e-9
        if s.cosupport:
            assert np.max(np.abs(d.Dstar[list(s.cosupport)] @ v)) <= 1e-9


@pytest.mark.criterion(9, "extremal faces are singletons modulo lineality; "
                          "non-extremal faces expose a direction")
def test_criterion_9_extremality_cross_check(k4_dict, k4_signs, k4_extremal):
    rng = np.random.default_rng(9)
    _extremal_faces_are_points(k4_dict, k4_extremal, rng)
    _nonextremal_have_directions(
        k4_dict, [s for s in k4_signs if s not in set(k4_extremal)])
    for n in range(2, 6):
        d = Dictionary(identity_dict(n))
        signs = enumerate_feasible_signs(d)
        extremal = [s for s in signs if is_extremal(d, s)]
        _extremal_faces_are_points(d, extremal, rng)
        _nonextremal_have_directions(
            d, [s for s in signs if s not in set(extremal)])


@pytest.mark.criterion(10, "the TV-3 construction yields the same solution "
                           "set for lambda in {0.5, 2}")
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_criterion_10_lambda_invariance(tv3_dict, lam):
    reference = construct_face_instance(tv3_dict, SignVector((-1, 1)), 1.0,
                                        TV3_AFFINE, 1.0)
    ref_report = verify_construction(reference)
    assert ref_report.passed
    ci = construct_face_instance(tv3_dict, SignVector((-1, 1)), 1.0,
                                 TV3_AFFINE, lam)
    report = verify_construction(ci)
    assert report.passed
    dirs = probe_directions(tv3_dict)
    # same solution set as the target and as the lambda = 1 instance
    assert support_gap(report.description.region(),
                       ci.target.region(tv3_dict), dirs) <= 1e-6
    assert support_gap(report.description.region(),
                       ref_report.description.region(), dirs) <= 1e-6
