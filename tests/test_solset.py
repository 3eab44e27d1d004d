"""Solver and solution-set description on frozen benchmarks."""
import json

import numpy as np
import pytest

from l1geo.ballgeo import Dictionary
from l1geo.dictionaries import identity_dict
from l1geo.lp import max_linear_over
from l1geo.signs import SignVector, sign_of
from l1geo.solset import (ConvergenceError, ProblemInstance,
                          UnboundedSolutionSetError, coordinate_bounds,
                          describe_solution_set, enumerate_extreme_solutions,
                          is_extreme_solution, maximal_sign, objective,
                          optimality_residual, solution_hasse, solve_admm)

VERTEX_A = np.array([0.0, 0.5, 0.0])
VERTEX_B = np.array([0.0, 0.0, 0.5])


def test_instance_validation():
    d = Dictionary(identity_dict(2))
    with pytest.raises(ValueError):
        ProblemInstance(dictionary=d, Phi=np.eye(3), y=np.zeros(3), lam=1.0)
    with pytest.raises(ValueError):
        ProblemInstance(dictionary=d, Phi=np.eye(2), y=np.zeros(3), lam=1.0)
    with pytest.raises(ValueError):
        ProblemInstance(dictionary=d, Phi=np.eye(2), y=np.zeros(2), lam=0.0)


def test_instance_json_round_trip(bench3d):
    text = bench3d.to_json()
    data = json.loads(text)
    assert data["schema"] == "l1geo/1"
    back = ProblemInstance.from_json(text)
    assert np.array_equal(back.Phi, bench3d.Phi)
    assert np.array_equal(back.y, bench3d.y)
    assert np.array_equal(back.dictionary.D, bench3d.dictionary.D)
    assert back.lam == bench3d.lam
    with pytest.raises(ValueError):
        ProblemInstance.from_json(json.dumps({"schema": "other/9"}))


def test_objective_frozen_values(bench3d):
    assert objective(bench3d, VERTEX_A) == pytest.approx(0.75)
    assert objective(bench3d, VERTEX_B) == pytest.approx(0.75)
    # both vertices and their midpoint give the same value
    assert objective(bench3d, (VERTEX_A + VERTEX_B) / 2) == pytest.approx(0.75)


def test_optimality_residual(bench3d):
    res, cert = optimality_residual(bench3d, VERTEX_A)
    assert res <= 1e-9
    assert cert is not None
    assert np.allclose(cert.u, [1.0, 1.0, 1.0], atol=1e-7)
    stat = bench3d.Phi.T @ (bench3d.Phi @ VERTEX_A - bench3d.y) \
        + bench3d.lam * (bench3d.dictionary.D @ cert.u)
    assert np.max(np.abs(stat)) <= 1e-8

    res_bad, cert_bad = optimality_residual(bench3d, np.array([1.0, 0.0, 0.0]))
    assert res_bad > 0.01
    assert cert_bad is None


def test_solve_admm_bench3d(bench3d):
    x = solve_admm(bench3d)
    assert objective(bench3d, x) == pytest.approx(0.75, abs=1e-6)
    assert np.allclose(bench3d.Phi @ x, [0.5, 0.5, 0.0], atol=1e-6)
    res, _ = optimality_residual(bench3d, x)
    assert res <= 1e-8 * (1.0 + np.max(np.abs(bench3d.Phi.T @ bench3d.y)))


def test_solve_admm_identity_soft_threshold():
    d = Dictionary(identity_dict(2))
    inst = ProblemInstance(dictionary=d, Phi=np.eye(2),
                           y=np.array([2.0, 0.5]), lam=1.0)
    x = solve_admm(inst)
    assert np.allclose(x, [1.0, 0.0], atol=1e-8)
    desc = describe_solution_set(inst, x)
    assert desc.dim == 0 and desc.compact
    pts = enumerate_extreme_solutions(inst, desc)
    assert len(pts) == 1
    assert np.allclose(pts[0], [1.0, 0.0], atol=1e-8)


def test_solve_admm_raises_when_starved(bench3d):
    with pytest.raises(ConvergenceError):
        solve_admm(bench3d, max_iter=3)


def test_maximal_sign(bench3d):
    for x0 in (VERTEX_A, VERTEX_B, solve_admm(bench3d)):
        s, x_ri = maximal_sign(bench3d, x0)
        assert s == SignVector.from_string("+++")
        theta = bench3d.dictionary.Dstar @ x_ri
        assert np.min(theta) > 1e-8
    with pytest.raises(ValueError):
        maximal_sign(bench3d, np.array([1.0, 0.0, 0.0]))


def test_describe_solution_set(bench3d):
    desc = describe_solution_set(bench3d, VERTEX_A)
    assert desc.max_sign == SignVector.from_string("+++")
    assert desc.dim == 1
    assert desc.compact
    assert desc.radius == pytest.approx(1.0, abs=1e-9)
    assert desc.contains(VERTEX_A) and desc.contains(VERTEX_B)
    assert desc.contains((VERTEX_A + VERTEX_B) / 2)
    assert not desc.contains(np.array([1.0, 0.0, 0.0]))
    # support values over the region, frozen by hand
    region = desc.region()
    out = max_linear_over(region, np.array([0.0, 1.0, 0.0]))
    assert out.value == pytest.approx(0.5, abs=1e-8)
    out = max_linear_over(region, np.array([1.0, 0.0, 0.0]))
    assert out.value == pytest.approx(0.0, abs=1e-8)


def test_describe_gaussian_30x40_terminates():
    """A Gaussian (n, p, m) = (30, 40, 15) instance on which the support LPs
    of `maximal_sign` once ran past the simplex pivot cap.  Drawn from
    default_rng(0) after a (10, 15) D, a (5, 10) Phi and a 5-vector y."""
    rng = np.random.default_rng(0)
    rng.standard_normal((10, 15)), rng.standard_normal((5, 10)), rng.standard_normal(5)
    inst = ProblemInstance(dictionary=Dictionary(rng.standard_normal((30, 40))),
                           Phi=rng.standard_normal((15, 30)),
                           y=rng.standard_normal(15), lam=0.5)
    x = solve_admm(inst)
    desc = describe_solution_set(inst, x)
    assert desc.contains(x) and desc.contains(desc.x_ri)
    assert sign_of(inst.dictionary.Dstar @ desc.x_ri) == desc.max_sign


def test_describe_solution_set_json(bench3d):
    desc = describe_solution_set(bench3d, VERTEX_A)
    data = json.loads(desc.to_json())
    assert data["schema"] == "l1geo/1"
    assert data["max_sign"] == "+++"
    assert data["dim"] == 1
    assert data["compact"] is True


def test_is_extreme_solution(bench3d):
    desc = describe_solution_set(bench3d, VERTEX_A)
    assert is_extreme_solution(bench3d, desc, VERTEX_A)
    assert is_extreme_solution(bench3d, desc, VERTEX_B)
    assert not is_extreme_solution(bench3d, desc, (VERTEX_A + VERTEX_B) / 2)
    with pytest.raises(ValueError):
        is_extreme_solution(bench3d, desc, np.array([1.0, 0.0, 0.0]))


def test_enumerate_extreme_solutions(bench3d):
    desc = describe_solution_set(bench3d, VERTEX_A)
    pts = enumerate_extreme_solutions(bench3d, desc)
    assert len(pts) == 2
    assert np.allclose(pts[0], VERTEX_B, atol=1e-7)  # sorted by coordinates
    assert np.allclose(pts[1], VERTEX_A, atol=1e-7)


def test_coordinate_bounds(bench3d):
    desc = describe_solution_set(bench3d, VERTEX_A)
    lo, hi = coordinate_bounds(desc, np.array([1.0, 0.0, 0.0]))
    assert abs(lo) <= 1e-7 and abs(hi) <= 1e-7
    lo, hi = coordinate_bounds(desc, np.array([0.0, 1.0, 0.0]))
    assert lo == pytest.approx(0.0, abs=1e-7)
    assert hi == pytest.approx(0.5, abs=1e-7)
    # x2 + x3 is constant 1/2 across the segment
    lo, hi = coordinate_bounds(desc, np.array([0.0, 1.0, 1.0]))
    assert lo == pytest.approx(0.5, abs=1e-7)
    assert hi == pytest.approx(0.5, abs=1e-7)


def test_solution_hasse(bench3d):
    desc = describe_solution_set(bench3d, VERTEX_A)
    poset = solution_hasse(bench3d, desc)
    assert {s.to_string() for s in poset.elements} == {"+0+", "0++", "+++"}
    assert poset.maximal_elements() == (SignVector.from_string("+++"),)


def test_unbounded_solution_set():
    # one atom e1 in R^2, Phi measures x1 only: the solution set is a line
    d = Dictionary(np.array([[1.0], [0.0]]))
    inst = ProblemInstance(dictionary=d, Phi=np.array([[1.0, 0.0]]),
                           y=np.array([1.0]), lam=0.5)
    x = solve_admm(inst)
    assert x[0] == pytest.approx(0.5, abs=1e-8)
    desc = describe_solution_set(inst, x)
    assert not desc.compact
    with pytest.raises(UnboundedSolutionSetError):
        enumerate_extreme_solutions(inst, desc)
    lo, hi = coordinate_bounds(desc, np.array([0.0, 1.0]))
    assert lo == -np.inf and hi == np.inf
    lo, hi = coordinate_bounds(desc, np.array([1.0, 0.0]))
    assert lo == pytest.approx(0.5, abs=1e-8)
    assert hi == pytest.approx(0.5, abs=1e-8)


def test_solve_admm_warm_start(bench3d):
    x = solve_admm(bench3d, x0=np.array([5.0, -3.0, 2.0]))
    assert objective(bench3d, x) == pytest.approx(0.75, abs=1e-6)
