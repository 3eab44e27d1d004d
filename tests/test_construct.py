"""Inverse constructions: prescribe a solution set, build an instance."""
import json

import numpy as np
import pytest

from l1geo.ballgeo import Dictionary, InfeasibleSignError
from l1geo.construct import (AffineSubspace, EmptyIntersectionError,
                             SphereConditionError, check_sphere_condition,
                             construct_ball_instance, construct_face_instance,
                             probe_directions, support_gap,
                             verify_construction)
from l1geo.dictionaries import difference_dict, identity_dict
from l1geo.lp import minimize_l1_over_affine
from l1geo.signs import SignVector
from l1geo.solset import ProblemInstance, describe_solution_set, solve_admm

TV3_AFFINE = AffineSubspace.from_normals(np.array([1.0, 1.0, 1.0]),
                                         np.array([[0.0, 1.0, 0.0]]))


def test_affine_subspace_constructors():
    sub = AffineSubspace.from_normals(np.zeros(3), np.array([[0.0, 2.0, 0.0]]))
    assert sub.n == 3 and sub.dim == 2
    assert sub.contains(np.array([4.0, 0.0, -1.0]))
    assert not sub.contains(np.array([0.0, 1.0, 0.0]))

    line = AffineSubspace.from_directions(np.array([1.0, 0.0]),
                                          np.array([[3.0, 3.0]]))
    assert line.dim == 1
    assert line.contains(np.array([2.0, 1.0]))

    hull = AffineSubspace.from_points(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert hull.dim == 1
    assert hull.contains(np.array([0.5, 0.5]))
    assert not hull.contains(np.array([0.0, 0.0]))

    eqs = AffineSubspace.from_equations(np.array([[1.0, 1.0]]),
                                        np.array([1.0]))
    assert eqs.dim == 1 and eqs.contains(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        AffineSubspace.from_equations(np.array([[1.0, 0.0], [1.0, 0.0]]),
                                      np.array([0.0, 1.0]))

    A, b = hull.equalities()
    assert np.allclose(A @ np.array([0.5, 0.5]), b, atol=1e-12)


def test_affine_subspace_validation():
    with pytest.raises(ValueError):
        AffineSubspace(origin=np.zeros(2),
                       direction_basis=np.array([[1.0], [1.0]]),  # not unit
                       normal_basis=np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        AffineSubspace(origin=np.zeros(2),
                       direction_basis=np.eye(2),
                       normal_basis=np.eye(2))  # 2 + 2 != 2


def test_check_sphere_condition(tv3_dict):
    # points of {x2 = 1} with minimal penalty: the constants, value 0
    assert check_sphere_condition(tv3_dict, TV3_AFFINE, 0.0)
    assert not check_sphere_condition(tv3_dict, TV3_AFFINE, 1.0)
    off = AffineSubspace.from_points(np.array([[1.0, 1.0, 2.0],
                                               [2.0, 1.0, 1.0]]))
    # every point of that segment has penalty exactly 1
    assert check_sphere_condition(tv3_dict, off, 1.0)
    assert not check_sphere_condition(tv3_dict, off, 0.5)


def test_construct_face_instance_tv3(tv3_dict):
    ci = construct_face_instance(tv3_dict, SignVector.from_string("-+"), 1.0,
                                 TV3_AFFINE, 1.0)
    assert np.allclose(ci.instance.Phi, [[1.0, -2.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.allclose(ci.instance.y, [2.0, 1.0])
    assert ci.instance.lam == 1.0
    report = verify_construction(ci)
    assert report.passed
    assert report.support_gap <= 1e-6
    assert report.kernel_ok
    assert report.certificate_residual <= 1e-8
    pts = sorted((tuple(np.round(p, 6)) for p in report.extreme_points))
    assert np.allclose(pts[0], (1.0, 1.0, 2.0), atol=1e-6)
    assert np.allclose(pts[1], (2.0, 1.0, 1.0), atol=1e-6)


def test_construct_face_instance_rejects_bad_inputs(tv3_dict, k4_dict):
    s = SignVector.from_string("-+")
    with pytest.raises(ValueError):
        construct_face_instance(tv3_dict, s, -1.0, TV3_AFFINE, 1.0)
    with pytest.raises(ValueError):
        construct_face_instance(tv3_dict, SignVector.zero(2), 1.0,
                                TV3_AFFINE, 1.0)
    with pytest.raises(InfeasibleSignError):
        construct_face_instance(k4_dict, SignVector((1, -1, 0, 1, 0, 0)), 1.0,
                                AffineSubspace.from_normals(
                                    np.zeros(4), np.zeros((0, 4))), 1.0)
    # a point target that misses the face entirely
    off_face = AffineSubspace.from_points(np.array([[0.0, 0.0, 0.0]]))
    with pytest.raises(EmptyIntersectionError):
        construct_face_instance(tv3_dict, SignVector.from_string("+0"), 1.0,
                                off_face, 1.0)


def test_construct_ball_instance_segment():
    d = Dictionary(identity_dict(2))
    seg = AffineSubspace.from_points(np.array([[1.0, 0.0], [0.0, 1.0]]))
    ci = construct_ball_instance(d, seg, 1.0, 0.5)
    # the target segment is the whole simplex face of the cross-polytope
    report = verify_construction(ci)
    assert report.passed
    assert report.extreme_points is not None and len(report.extreme_points) == 2
    assert np.max(np.abs(ci.u)) <= 1.0 + 1e-9
    assert ci.alpha  # dual weights over refining signs are recorded


def test_construct_ball_instance_sphere_condition():
    d = Dictionary(identity_dict(2))
    seg = AffineSubspace.from_points(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(SphereConditionError):
        construct_ball_instance(d, seg, 2.0, 0.5)  # segment has penalty 1
    # radius below the minimum over the affine set is just as impossible
    with pytest.raises(SphereConditionError):
        construct_ball_instance(d, seg, 0.25, 0.5)


def test_construct_ball_instance_zero_radius(tv3_dict):
    # prescribing the lineality region: A = constants, r = 0
    aff = AffineSubspace.from_points(np.array([[2.0, 2.0, 2.0]]))
    ci = construct_ball_instance(tv3_dict, aff, 0.0, 1.0)
    assert np.allclose(ci.u, 0.0)
    x = solve_admm(ci.instance)
    desc = describe_solution_set(ci.instance, x)
    assert desc.radius <= 1e-9
    assert desc.max_sign.is_zero()
    report = verify_construction(ci)
    assert report.passed


def test_construct_ball_instance_point_target():
    # a single point strictly inside one orthant: alpha concentrates there
    d = Dictionary(identity_dict(2))
    pt = AffineSubspace.from_points(np.array([[0.75, -0.25]]))
    ci = construct_ball_instance(d, pt, 1.0, 1.0)
    report = verify_construction(ci)
    assert report.passed
    assert len(report.extreme_points) == 1
    assert np.allclose(report.extreme_points[0], [0.75, -0.25], atol=1e-7)


def test_construct_ball_instance_gaussian_6x9_regression():
    """A Gaussian 6x9 ball round trip on which the dual LP of the
    construction once came back "optimal" off its own constraints (equality
    residual 1.9e-3, one alpha at -8.9e-4), so `construct` raised "dual
    combination drifted off the anchor sign".  The affine set is the first
    draw whose minimizer has cosupport at most 4, drawn as the roundtrip
    benchmark workload draws it."""
    rng = np.random.default_rng([304, 2, 17])
    D = rng.standard_normal((6, 9))
    for _ in range(100):
        origin = rng.standard_normal(6)
        normals = rng.standard_normal((int(rng.integers(2, 4)), 6))
        radius, xbar = minimize_l1_over_affine(D.T, normals, normals @ origin)
        if radius > 1e-6 and np.sum(np.abs(D.T @ xbar) <= 1e-8) <= 4:
            break
    ci = construct_ball_instance(Dictionary(D),
                                 AffineSubspace.from_normals(origin, normals),
                                 radius, 0.5)
    assert verify_construction(ci).passed


def test_verify_construction_catches_corruption(tv3_dict):
    ci = construct_face_instance(tv3_dict, SignVector.from_string("-+"), 1.0,
                                 TV3_AFFINE, 1.0)
    bad_inst = ProblemInstance(dictionary=tv3_dict,
                               Phi=ci.instance.Phi,
                               y=ci.instance.y + np.array([0.2, 0.0]),
                               lam=ci.instance.lam)
    from dataclasses import replace
    corrupted = replace(ci, instance=bad_inst)
    report = verify_construction(corrupted)
    assert not report.passed
    assert report.support_gap > 1e-3 or report.certificate_residual > 1e-6


def test_support_gap_and_probes(tv3_dict):
    ci = construct_face_instance(tv3_dict, SignVector.from_string("-+"), 1.0,
                                 TV3_AFFINE, 1.0)
    x = solve_admm(ci.instance)
    desc = describe_solution_set(ci.instance, x)
    dirs = probe_directions(tv3_dict)
    assert len(dirs) == 2 * 3 + 2 * 2
    gap = support_gap(desc.region(), ci.target.region(tv3_dict), dirs)
    assert gap <= 1e-8
    # a deliberately different target shows a visible gap
    other = construct_face_instance(tv3_dict, SignVector.from_string("-+"),
                                    2.0, TV3_AFFINE, 1.0)
    assert support_gap(desc.region(), other.target.region(tv3_dict),
                       dirs) > 0.1


def test_constructed_instance_json(tv3_dict):
    ci = construct_face_instance(tv3_dict, SignVector.from_string("-+"), 1.0,
                                 TV3_AFFINE, 1.0)
    data = json.loads(ci.to_json())
    assert data["schema"] == "l1geo/1"
    prov = data["provenance"]
    assert prov["target_sign"] == "-+"
    assert prov["target_radius"] == 1.0
    assert np.allclose(prov["u"], ci.u)
    # the instance block reloads on its own
    inst = ProblemInstance.from_json(json.dumps(data))
    assert np.allclose(inst.Phi, ci.instance.Phi)
