"""Simplex engine: frozen cases, certificates, and brute-force cross-checks."""
import itertools

import numpy as np
import pytest

from l1geo import lp
from l1geo.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram,
                      l1_epigraph_rows, max_linear_over, maximize_each,
                      minimize_l1_over_affine, solve)


def _box(n, lo, hi):
    """-x <= -lo, x <= hi rows for every coordinate."""
    A = np.vstack([-np.eye(n), np.eye(n)])
    b = np.concatenate([-lo, hi])
    return A, b


def test_simple_bounded_minimum():
    # min x + y on the unit box: value -0 at origin shifted by bounds
    A, b = _box(2, np.array([-1.0, 0.0]), np.array([2.0, 3.0]))
    out = solve(LinearProgram(c=np.array([1.0, 1.0]), A_eq=None, b_eq=None,
                              A_le=A, b_le=b))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(-1.0, abs=1e-9)
    assert np.allclose(out.x_opt, [-1.0, 0.0], atol=1e-9)


def test_equality_constrained():
    # min x1 subject to x1 + x2 = 1, x2 <= 0.25
    out = solve(LinearProgram(c=np.array([1.0, 0.0]),
                              A_eq=np.array([[1.0, 1.0]]),
                              b_eq=np.array([1.0]),
                              A_le=np.array([[0.0, 1.0]]),
                              b_le=np.array([0.25])))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(0.75, abs=1e-9)
    assert np.allclose(out.x_opt, [0.75, 0.25], atol=1e-9)


def test_unbounded_reports_feasible_point():
    out = solve(LinearProgram(c=np.array([-1.0]),
                              A_eq=None, b_eq=None,
                              A_le=np.array([[-1.0]]), b_le=np.array([0.0])))
    assert out.status == UNBOUNDED
    assert out.x_feasible is not None
    assert out.x_feasible[0] >= -1e-9


def test_infeasible_has_farkas_certificate():
    # x <= -1 and x >= 1 simultaneously
    out = solve(LinearProgram(c=np.array([0.0]),
                              A_eq=None, b_eq=None,
                              A_le=np.array([[1.0], [-1.0]]),
                              b_le=np.array([-1.0, -1.0])))
    assert out.status == INFEASIBLE
    y = out.farkas_le
    assert y is not None and np.all(y <= 1e-9)
    A_le = np.array([[1.0], [-1.0]])
    assert np.allclose(A_le.T @ y, 0.0, atol=1e-8)
    assert float(np.array([-1.0, -1.0]) @ y) > 1e-9


def test_degenerate_lp_terminates():
    # many redundant constraints through one vertex (classic cycling bait)
    n = 3
    A = np.vstack([-np.eye(n), -np.eye(n) * 2.0, -np.eye(n) * 3.0,
                   np.ones((1, n))])
    b = np.concatenate([np.zeros(3 * n), [1.0]])
    out = solve(LinearProgram(c=-np.ones(n), A_eq=None, b_eq=None,
                              A_le=A, b_le=b))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(-1.0, abs=1e-9)


def test_beale_cycling_example_terminates():
    # Beale's example cycles under Dantzig pricing without the Bland
    # fallback; x >= 0 is written as rows
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    A = np.array([[0.25, -60.0, -0.04, 9.0],
                  [0.5, -90.0, -0.02, 3.0],
                  [0.0, 0.0, 1.0, 0.0]])
    out = solve(LinearProgram(c=c, A_eq=None, b_eq=None,
                              A_le=np.vstack([A, -np.eye(4)]),
                              b_le=np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(-0.05, abs=1e-12)
    assert np.allclose(out.x_opt, [0.04, 0.0, 1.0, 0.0], atol=1e-12)


def _random_lp(rng, n_max=4):
    n = int(rng.integers(1, n_max + 1))
    me = int(rng.integers(0, 2))
    ml = int(rng.integers(1, 5))
    c = rng.standard_normal(n)
    A_eq = rng.standard_normal((me, n)) if me else None
    # anchor the equalities at a random feasible point to avoid trivial
    # infeasibility; box constraints keep everything bounded
    x0 = rng.standard_normal(n)
    b_eq = A_eq @ x0 if me else None
    A_le, b_le = _box(n, x0 - rng.uniform(0.5, 2.0, n),
                      x0 + rng.uniform(0.5, 2.0, n))
    extra = rng.standard_normal((ml, n))
    A_le = np.vstack([A_le, extra])
    b_le = np.concatenate([b_le, extra @ x0 + rng.uniform(0.0, 1.0, ml)])
    return LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, A_le=A_le, b_le=b_le), x0


def test_random_bounded_lps_satisfy_kkt():
    rng = np.random.default_rng(11)
    seen_optimal = 0
    for _ in range(60):
        prog, x0 = _random_lp(rng)
        out = solve(prog)
        assert out.status == OPTIMAL  # x0 is feasible and the box bounds
        seen_optimal += 1
        x = out.x_opt
        # primal feasibility
        if prog.A_eq.shape[0]:
            assert np.allclose(prog.A_eq @ x, prog.b_eq, atol=1e-7)
        slack = prog.b_le - prog.A_le @ x
        assert np.min(slack) >= -1e-7
        # optimal value no worse than the anchor point
        assert out.value <= prog.c @ x0 + 1e-7
        # stationarity, dual sign, complementary slackness
        grad = prog.c.copy()
        if prog.A_eq.shape[0]:
            grad += prog.A_eq.T @ out.dual_eq
        grad += prog.A_le.T @ out.dual_le
        assert np.allclose(grad, 0.0, atol=1e-7)
        assert np.min(out.dual_le) >= -1e-9
        assert np.max(np.abs(out.dual_le * slack)) <= 1e-6
        # strong duality
        dual_value = 0.0
        if prog.A_eq.shape[0]:
            dual_value -= prog.b_eq @ out.dual_eq
        dual_value -= prog.b_le @ out.dual_le
        assert dual_value == pytest.approx(out.value, abs=1e-6)
    assert seen_optimal == 60


def test_drifted_point_is_recomputed_or_refused(monkeypatch):
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(4)
    A_le, b_le = _box(4, x0 - 1.0, x0 + 1.0)
    prog = LinearProgram(c=rng.standard_normal(4), A_eq=None, b_eq=None,
                         A_le=A_le, b_le=b_le)
    exact = solve(prog)
    pivot = lp._pivot

    def drifting_pivot(T, r, j):  # every pivot leaves rounding error in b
        pivot(T, r, j)
        T[:-1, -1] += 1e-6

    monkeypatch.setattr(lp, "_pivot", drifting_pivot)
    out = solve(prog)
    assert out.status == OPTIMAL
    assert np.allclose(out.x_opt, exact.x_opt, rtol=0.0, atol=1e-12)
    # a basis whose own point violates the rows is refused: x <= 1, x <= 2
    # with u and the first slack basic gives x = 2
    two = LinearProgram(c=np.zeros(1), A_eq=None, b_eq=None,
                        A_le=np.ones((2, 1)), b_le=np.array([1.0, 2.0]))
    T = lp._tableau(two)[0]
    T[:-1, -1] = 5.0
    with pytest.raises(RuntimeError, match="misses its constraints"):
        lp._checked_point(two, T, [0, 2], 1e-9)


def _vertices_by_enumeration(prog):
    """All basic feasible points of an inequality-only program, brute force."""
    m, n = prog.A_le.shape
    pts = []
    for rows in itertools.combinations(range(m), n):
        A = prog.A_le[list(rows)]
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, prog.b_le[list(rows)])
        if np.all(prog.A_le @ x <= prog.b_le + 1e-9):
            pts.append(x)
    return pts


def test_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        x0 = rng.standard_normal(n)
        A_le, b_le = _box(n, x0 - 1.0, x0 + 1.0)
        extra = rng.standard_normal((3, n))
        A_le = np.vstack([A_le, extra])
        b_le = np.concatenate([b_le, extra @ x0 + rng.uniform(0.1, 1.0, 3)])
        c = rng.standard_normal(n)
        prog = LinearProgram(c=c, A_eq=None, b_eq=None, A_le=A_le, b_le=b_le)
        out = solve(prog)
        assert out.status == OPTIMAL
        verts = _vertices_by_enumeration(prog)
        assert verts, "bounded nonempty polytope must have vertices"
        best = min(float(c @ v) for v in verts)
        assert out.value == pytest.approx(best, abs=1e-7)


def test_random_infeasible_certificates():
    rng = np.random.default_rng(37)
    found = 0
    for _ in range(60):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((n + 2, n))
        b = rng.standard_normal(n + 2)
        prog = LinearProgram(c=np.zeros(n), A_eq=A, b_eq=b,
                             A_le=np.eye(n), b_le=np.full(n, 100.0))
        out = solve(prog)
        if out.status != INFEASIBLE:
            continue
        found += 1
        y_eq, y_le = out.farkas_eq, out.farkas_le
        assert np.allclose(A.T @ y_eq + np.eye(n).T @ y_le, 0.0, atol=1e-7)
        assert np.all(y_le <= 1e-9)
        assert float(b @ y_eq + np.full(n, 100.0) @ y_le) > 1e-9
    assert found >= 10  # overdetermined random systems are usually infeasible


def test_max_linear_over():
    A, b = _box(2, np.zeros(2), np.array([2.0, 1.0]))
    region = LinearProgram(c=np.zeros(2), A_eq=None, b_eq=None, A_le=A, b_le=b)
    out = max_linear_over(region, np.array([1.0, 3.0]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(5.0, abs=1e-9)
    assert np.allclose(out.x_opt, [2.0, 1.0], atol=1e-9)
    half = LinearProgram(c=np.zeros(2), A_eq=None, b_eq=None,
                         A_le=np.array([[0.0, 1.0]]), b_le=np.array([0.0]))
    assert max_linear_over(half, np.array([1.0, 0.0])).status == UNBOUNDED


def test_maximize_each_matches_separate_solves():
    rng = np.random.default_rng(41)
    n = 3
    W = np.vstack([rng.standard_normal((5, n)), -np.abs(rng.standard_normal((3, n))),
                   np.zeros((1, n))])
    A_box, b_box = _box(n, -np.ones(n), 2.0 * np.ones(n))
    extra = rng.standard_normal((3, n))
    regions = [
        # a polytope with rows through the origin: every direction is optimal
        LinearProgram(c=np.zeros(n), A_eq=None, b_eq=None,
                      A_le=np.vstack([A_box, extra]),
                      b_le=np.concatenate([b_box, np.zeros(3)])),
        # the shifted orthant x >= 1: optimal or unbounded
        LinearProgram(c=np.zeros(n), A_eq=None, b_eq=None,
                      A_le=-np.eye(n), b_le=-np.ones(n)),
        # two parallel equalities: infeasible
        LinearProgram(c=np.zeros(n), A_eq=np.ones((2, n)),
                      b_eq=np.array([0.0, 1.0]), A_le=A_box, b_le=b_box),
    ]
    seen = set()
    for region in regions:
        outs = maximize_each(region, W)
        assert len(outs) == len(W)
        for w, out in zip(W, outs):
            ref = solve(LinearProgram(c=-w, A_eq=region.A_eq, b_eq=region.b_eq,
                                      A_le=region.A_le, b_le=region.b_le))
            seen.add(ref.status)
            assert out.status == ref.status
            assert max_linear_over(region, w).status == ref.status
            if ref.status == OPTIMAL:
                assert out.value == pytest.approx(-ref.value, abs=1e-9)
                assert float(w @ out.x_opt) == pytest.approx(out.value, abs=1e-9)
            if ref.status == INFEASIBLE:
                assert np.allclose(out.farkas_eq, ref.farkas_eq)
    assert seen == {OPTIMAL, UNBOUNDED, INFEASIBLE}


def test_l1_epigraph_rows_lift():
    Dstar = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    A_lift, b_lift = l1_epigraph_rows(Dstar)
    n, p = 3, 2
    assert A_lift.shape == (2 * p, n + p)
    # minimizing the sum of the lifted coordinates over {x fixed} gives l1
    rng = np.random.default_rng(5)
    A_eq = np.hstack([np.eye(n), np.zeros((n, p))])
    for _ in range(10):
        x = rng.standard_normal(n)
        prog = LinearProgram(c=np.concatenate([np.zeros(n), np.ones(p)]),
                             A_eq=A_eq, b_eq=x, A_le=A_lift, b_le=b_lift)
        out = solve(prog)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(float(np.abs(Dstar @ x).sum()),
                                          abs=1e-8)
    # the radius-capped variant rejects points that are too deep
    A_cap, b_cap = l1_epigraph_rows(Dstar, radius=0.5)
    assert A_cap.shape == (2 * p + 1, n + p)
    far = np.array([2.0, 0.0, 0.0])
    prog = LinearProgram(c=np.zeros(n + p), A_eq=A_eq, b_eq=far,
                         A_le=A_cap, b_le=b_cap)
    assert solve(prog).status == INFEASIBLE


def test_minimize_l1_over_affine():
    Dstar = np.eye(2)
    value, x = minimize_l1_over_affine(Dstar, np.array([[1.0, 1.0]]),
                                       np.array([1.0]))
    assert value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(np.abs(x).sum(), 1.0, atol=1e-9)
    with pytest.raises(ValueError):
        minimize_l1_over_affine(Dstar, np.array([[1.0, 0.0], [1.0, 0.0]]),
                                np.array([0.0, 1.0]))


def test_linear_program_validation():
    with pytest.raises(ValueError):
        LinearProgram(c=np.array([1.0]), A_eq=np.eye(2), b_eq=np.zeros(2),
                      A_le=None, b_le=None)
    with pytest.raises(ValueError):
        LinearProgram(c=np.array([1.0, 2.0]), A_eq=None, b_eq=None,
                      A_le=np.eye(2), b_le=np.zeros(3))
    with pytest.raises(ValueError):
        LinearProgram(c=np.array([np.nan]), A_eq=None, b_eq=None,
                      A_le=None, b_le=None)


def _highs_case(rng):
    """A random LP with equality and inequality rows over free variables.

    kind 0 boxes a feasible point in (bounded), kind 1 leaves it open
    (optimal or unbounded), kind 2 adds a row contradicting the sum of the
    others and kind 3 an equality contradicting a combination of the others
    (both infeasible).  About a third of the inequalities are tight at the
    feasible point, so vertices are degenerate.
    """
    n = int(rng.integers(2, 6))
    me, ml = int(rng.integers(0, 3)), int(rng.integers(1, 7))
    kind = int(rng.integers(4))
    x0 = rng.standard_normal(n)
    A_eq, A_le = rng.standard_normal((me, n)), rng.standard_normal((ml, n))
    b_eq = A_eq @ x0
    b_le = A_le @ x0 + rng.uniform(0.0, 1.0, ml) * (rng.random(ml) < 0.7)
    if kind == 0:
        A_box, b_box = _box(n, x0 - 1.0, x0 + 1.0)
        A_le, b_le = np.vstack([A_le, A_box]), np.concatenate([b_le, b_box])
    elif kind == 2:
        A_le = np.vstack([A_le, -A_le.sum(axis=0)])
        b_le = np.append(b_le, -b_le.sum() - 0.5)
    elif kind == 3:
        mix = rng.standard_normal(me + 1)
        A_eq = np.vstack([A_eq, rng.standard_normal((1, n))])
        b_eq = np.append(b_eq, rng.standard_normal())
        A_eq = np.vstack([A_eq, mix @ A_eq])
        b_eq = np.append(b_eq, mix @ b_eq + 1.0)
    return LinearProgram(c=rng.standard_normal(n), A_eq=A_eq, b_eq=b_eq,
                         A_le=A_le, b_le=b_le)


def test_agrees_with_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(2024)
    highs_status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(200):
        prog = _highs_case(rng)
        me = prog.A_eq.shape[0]
        ref = linprog(prog.c, A_ub=prog.A_le, b_ub=prog.b_le,
                      A_eq=prog.A_eq if me else None,
                      b_eq=prog.b_eq if me else None,
                      bounds=(None, None), method="highs")
        out = solve(prog)
        assert out.status == highs_status[ref.status], ref.message
        seen[out.status] += 1
        scale = 1.0 + np.max(np.abs(np.concatenate([prog.b_eq, prog.b_le])))
        if out.status == OPTIMAL:
            x, y_eq, y_le = out.x_opt, out.dual_eq, out.dual_le
            assert out.value == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))
            assert np.allclose(prog.A_eq @ x, prog.b_eq, atol=1e-8 * scale)
            slack = prog.b_le - prog.A_le @ x
            assert np.min(slack) >= -1e-8 * scale
            # the dual conditions of the LpOutcome docstring
            assert np.allclose(prog.c + prog.A_eq.T @ y_eq + prog.A_le.T @ y_le,
                               0.0, atol=1e-7)
            assert np.min(y_le) >= -1e-9
            assert np.max(np.abs(y_le * slack)) <= 1e-7 * scale
            assert -(prog.b_eq @ y_eq + prog.b_le @ y_le) == pytest.approx(
                out.value, abs=1e-7 * (1 + abs(out.value)))
        elif out.status == INFEASIBLE:
            f_eq, f_le = out.farkas_eq, out.farkas_le
            assert np.allclose(prog.A_eq.T @ f_eq + prog.A_le.T @ f_le, 0.0,
                               atol=1e-8)
            assert np.all(f_le <= 1e-9)
            assert prog.b_eq @ f_eq + prog.b_le @ f_le > 1e-9
        else:
            x = out.x_feasible
            assert np.allclose(prog.A_eq @ x, prog.b_eq, atol=1e-8 * scale)
            assert np.min(prog.b_le - prog.A_le @ x) >= -1e-8 * scale
    assert min(seen.values()) >= 20, seen
