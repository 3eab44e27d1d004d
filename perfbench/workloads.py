"""Seeded inputs and LP-free output oracles for the three benchmark workloads.

Each workload turns a seed into a fixed list of jobs.  A job is one or more
cases, and a case is a short sequence of `l1geo` CLI invocations on files
written by `generate`; the program sees nothing but those files.  After the
timed loop, `check` compares the captured output of every case with an
oracle that does not use the package's LP engine: graph combinatorics or
closed-form counts for the sign lattices, and plain numpy for the round-trip
targets and bounds.

Workloads (why each one exists):

lattice-sparse  `signs enumerate` + `signs hasse` on K5 minus one edge
                (p = 9).  19,683 candidates, 453 feasible: LP count and
                per-LP overhead dominate.
lattice-dense   the same commands on a Gaussian 8x6 dictionary (p = 6).
                Every sign is feasible, so the O(N^2) Hasse scan, the cover
                relation and one SVD per face dominate, not LPs.
roundtrip       `construct --mode ball --verify --save` followed by
                `solve --describe --extreme --bounds` on TV and fused-lasso
                dictionaries: the only workload
                that exercises `construct`, `support_gap`, the extreme-point
                walk, ADMM and coordinate bounds.

Every workload is one on which no case fails at this commit.  Three that
did are left out: face-mode round trips (ADMM `ConvergenceError` on about
3% of cases), ball-mode round trips on Gaussian 6x9 dictionaries
(`construct` raised "dual combination drifted off the anchor sign" on 1 of
360), and `solve --describe --bounds` on Gaussian (12, 15, 6) instances
(`IterationLimitError` on about 0.5%).
"""
from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("lattice-sparse", "lattice-dense", "roundtrip")

# Cases generated per run, and cases per job.  A roundtrip job is one case
# of each dictionary kind, so every job carries the same mix.  The timed
# loop cycles through the jobs if it outlasts the list.
CASE_COUNT = {"lattice-sparse": 8, "lattice-dense": 24, "roundtrip": 60}
CASES_PER_JOB = {"roundtrip": 2}

ROUNDTRIP_LAM = 0.5
ROUNDTRIP_BOUNDS = (1, 2)
# Ball mode anchored on a low-dimensional face builds 3^|cosupport| LP
# columns: 0.02 s to build at cosupport 4, 0.7 s at 5, 9 s at 6, minutes
# beyond.  Draws past 4 are redrawn, so that regime stays unmeasured.
BALL_MAX_COSUPPORT = 4
BALL_DRAWS = 100
# n per dictionary kind; with 2-3 normals a TV8 ball anchor always has
# cosupport 5 or more, so TV cases stop at n = 7.
ROUNDTRIP_SIZES = {"tv": (6, 7), "fused": (4, 5)}
CHECK_TOL = 1e-6


@dataclass
class Case:
    """CLI argument lists run in order; each step reads what the last wrote."""

    index: int
    label: str
    steps: list[list[str]]
    meta: dict = field(default_factory=dict)


@dataclass
class Job:
    """One closed-loop job: its cases run back to back."""

    index: int
    cases: list[Case]


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


# ---------------------------------------------------------------- generators

def _k5_minus_edge(rng: np.random.Generator):
    """Incidence columns of K5 minus a random edge, permuted and sign-flipped.

    Returns (D, oriented) where column j of D reads x_u - x_v for
    oriented[j] = (u, v).
    """
    edges = list(itertools.combinations(range(5), 2))
    del edges[int(rng.integers(len(edges)))]
    perm = rng.permutation(len(edges))
    flips = rng.choice([-1, 1], size=len(edges))
    oriented = []
    D = np.zeros((5, len(edges)))
    for j, (k, f) in enumerate(zip(perm, flips)):
        u, v = edges[k] if f > 0 else edges[k][::-1]
        oriented.append((u, v))
        D[u, j] = 1.0
        D[v, j] = -1.0
    return D, oriented


def _lattice_case(i: int, D: np.ndarray, d: Path, meta: dict) -> Case:
    dict_file = _write_json(d / f"dict{i}.json", {"D": D.tolist()})
    dot_file = str(d / f"hasse{i}.dot")
    meta.update(D=D, dot=dot_file)
    return Case(i, f"p={D.shape[1]}", [
        ["signs", "enumerate", "--dict", dict_file, "--out", "json"],
        ["signs", "hasse", "--dict", dict_file, "--dot", dot_file]], meta)


def _tv(n: int) -> np.ndarray:
    """Total-variation dictionary on n points: column i reads x_{i+1} - x_i."""
    D = np.zeros((n, n - 1))
    D[np.arange(n - 1), np.arange(n - 1)] = -1.0
    D[np.arange(1, n), np.arange(n - 1)] = 1.0
    return D


def _roundtrip_dictionary(kind: str, n: int) -> np.ndarray:
    if kind == "tv":
        return _tv(n)
    return np.hstack([np.eye(n), _tv(n)])  # fused lasso


def _roundtrip_case(i: int, rng: np.random.Generator, d: Path) -> Case:
    from l1geo import lp  # set-up only: r of a ball target is its min l1 value

    # Kind and size follow the case index, so every seed runs the same mix;
    # the seed draws the affine sets.
    kind = ("tv", "fused")[i % 2]
    sizes = ROUNDTRIP_SIZES[kind]
    D = _roundtrip_dictionary(kind, sizes[(i // 2) % len(sizes)])
    n = D.shape[0]
    for _ in range(BALL_DRAWS):
        origin = rng.standard_normal(n)
        normals = rng.standard_normal((int(rng.integers(2, 4)), n))
        radius, xbar = lp.minimize_l1_over_affine(
            D.T, normals, normals @ origin)
        theta = D.T @ xbar
        cosupport = int(np.sum(np.abs(theta) <= 1e-8))
        if radius > 1e-6 and cosupport <= BALL_MAX_COSUPPORT:
            break
    else:
        raise RuntimeError(f"no ball target with cosupport <= "
                           f"{BALL_MAX_COSUPPORT} in {BALL_DRAWS} draws")
    dict_file = _write_json(d / f"dict{i}.json", {"D": D.tolist()})
    affine = _write_json(d / f"affine{i}.json", {
        "origin": origin.tolist(), "normals": normals.tolist()})
    saved = str(d / f"constructed{i}.json")
    meta = {"D": D, "origin": origin, "normals": normals, "radius": radius}
    return Case(i, f"{kind} n={n}", [
        ["construct", "--dict", dict_file, "--affine", affine,
         "--radius", repr(float(radius)), "--lambda", repr(ROUNDTRIP_LAM),
         "--mode", "ball", "--verify", "--save", saved, "--out", "json"],
        ["solve", "--instance", saved, "--describe", "--extreme", "--bounds",
         *map(str, ROUNDTRIP_BOUNDS), "--out", "json"]], meta)


def generate(workload: str, seed: int, out_dir: Path) -> list[Job]:
    """Write the inputs of every case of one run and return the job list."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for i in range(CASE_COUNT[workload]):
        rng = _rng(seed, workload, i)
        if workload == "lattice-sparse":
            D, oriented = _k5_minus_edge(rng)
            cases.append(_lattice_case(i, D, out_dir, {"edges": oriented}))
        elif workload == "lattice-dense":
            cases.append(_lattice_case(i, rng.standard_normal((8, 6)),
                                       out_dir, {}))
        elif workload == "roundtrip":
            cases.append(_roundtrip_case(i, rng, out_dir))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    k = CASES_PER_JOB.get(workload, 1)
    return [Job(j, cases[j * k:(j + 1) * k]) for j in range(len(cases) // k)]


# ------------------------------------------------------------------- oracles

def _graph_sign_feasible(s, edges, n_vertices: int) -> bool:
    """sign(x_u - x_v) = s_e is realizable iff, after contracting the 0 edges,
    every nonzero edge joins two blocks and orients the quotient acyclically."""
    parent = list(range(n_vertices))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for e, (u, v) in zip(s, edges):
        if e == 0:
            parent[find(u)] = find(v)
    succ: dict[int, set[int]] = {}
    for e, (u, v) in zip(s, edges):
        if e == 0:
            continue
        a, b = find(u), find(v)
        if a == b:
            return False
        hi, lo = (a, b) if e > 0 else (b, a)  # x_hi > x_lo
        succ.setdefault(hi, set()).add(lo)
    state: dict[int, int] = {}

    def acyclic_from(a) -> bool:
        state[a] = 1
        for b in succ.get(a, ()):
            if state.get(b) == 1 or (b not in state and not acyclic_from(b)):
                return False
        state[a] = 2
        return True

    return all(a in state or acyclic_from(a) for a in list(succ))


def _sign_str(entries) -> str:
    return "".join("+0-"[1 - int(e)] for e in entries)


def _lattice_oracle(signs: list[str]):
    """(extremal set, cover-edge set) of the refinement order on `signs`."""
    arr = np.array([[1 - "+0-".index(c) for c in s] for s in signs],
                   dtype=np.int8)
    A, B = arr[:, None, :], arr[None, :, :]
    leq = np.all((A == 0) | (A == B), axis=2)
    strict = leq & ~np.eye(len(signs), dtype=bool)
    through = (strict.astype(np.float32) @ strict.astype(np.float32)) > 0
    cover = strict & ~through
    nonzero = np.any(arr != 0, axis=1)
    below = (strict & nonzero[:, None]).any(axis=0)
    extremal = {signs[k] for k in np.nonzero(nonzero & ~below)[0]}
    edges = {(signs[a], signs[b]) for a, b in np.argwhere(cover)}
    return extremal, edges


_NODE = re.compile(r'^\s*"([+0-]*)" \[label="[^"]*"(?:, class="([^"]*)")?\];$')
_EDGE = re.compile(r'^\s*"([+0-]*)" -> "([+0-]*)";$')


def _check_lattice(case: Case, outputs: list[str], expected_feasible) -> str | None:
    enum = json.loads(outputs[0])
    feasible = sorted(expected_feasible)
    if sorted(enum["feasible"]) != feasible:
        return (f"feasible set differs: {enum['feasible_count']} emitted, "
                f"{len(feasible)} expected")
    extremal, edges = _lattice_oracle(feasible)
    if set(enum["extremal"]) != extremal:
        return "extremal set differs from the minimal nonzero feasible signs"
    nodes, dot_extremal, dot_edges = set(), set(), set()
    for line in Path(case.meta["dot"]).read_text().splitlines():
        if m := _NODE.match(line):
            nodes.add(m.group(1))
            if "extremal" in (m.group(2) or "").split():
                dot_extremal.add(m.group(1))
        elif m := _EDGE.match(line):
            dot_edges.add((m.group(1), m.group(2)))
    if nodes != set(feasible) or dot_extremal != extremal or dot_edges != edges:
        return "Hasse DOT nodes, extremal classes or cover edges differ"
    return None


def _check_sparse(case: Case, outputs: list[str]) -> str | None:
    edges = case.meta["edges"]
    feasible = [_sign_str(s) for s in itertools.product((1, 0, -1),
                                                        repeat=len(edges))
                if _graph_sign_feasible(s, edges, 5)]
    if len(feasible) != 453:
        return f"graph oracle found {len(feasible)} feasible signs, not 453"
    error = _check_lattice(case, outputs, feasible)
    if error is None and json.loads(outputs[0])["extremal_count"] != 28:
        return "K5 minus an edge must have 28 extremal signs"
    return error


def _check_dense(case: Case, outputs: list[str]) -> str | None:
    p = case.meta["D"].shape[1]
    # D' has full row rank: every sign is feasible, the 2p unit signs are
    # extremal, and each sign is covered twice per zero entry.
    feasible = [_sign_str(s) for s in itertools.product((1, 0, -1), repeat=p)]
    error = _check_lattice(case, outputs, feasible)
    if error:
        return error
    extremal, edges = _lattice_oracle(feasible)
    if len(extremal) != 2 * p or len(edges) != 2 * p * 3 ** (p - 1):
        return "closed-form extremal or cover-edge count differs"
    return None


def _check_roundtrip(case: Case, outputs: list[str]) -> str | None:
    built = json.loads(outputs[0])
    if not built["verification"]["passed"]:
        return "construction verification did not pass"
    solved = json.loads(outputs[1])
    if not solved["extreme_points"]:
        return "no extreme points for a compact solution set"
    meta = case.meta
    Ds, N, r = meta["D"].T, meta["normals"], meta["radius"]
    tol = CHECK_TOL * (1.0 + r)
    target_eq = N @ meta["origin"]
    points = np.array(solved["extreme_points"])
    for x in points:
        if np.max(np.abs(N @ x - target_eq)) > CHECK_TOL * (
                1.0 + np.max(np.abs(target_eq))):
            return "extreme point off the affine set"
        l1 = float(np.sum(np.abs(Ds @ x)))
        if l1 > r + tol:
            return f"extreme point outside the ball: {l1!r} > {r!r}"
    # A linear function over a polytope is extremal at a vertex, so each
    # coordinate's bounds are its range over the extreme points.
    for i in ROUNDTRIP_BOUNDS:
        got = np.array(solved["bounds"][str(i)])
        want = np.array([points[:, i - 1].min(), points[:, i - 1].max()])
        if np.max(np.abs(got - want)) > CHECK_TOL * (1.0 + np.max(np.abs(want))):
            return f"bounds of x{i} {got.tolist()} differ from the extreme-point range {want.tolist()}"
    return None


CHECKS = {"lattice-sparse": _check_sparse, "lattice-dense": _check_dense,
          "roundtrip": _check_roundtrip}


def check(workload: str, case: Case, outputs: list[str]) -> str | None:
    """None when the case's outputs match the oracle, else what differs."""
    return CHECKS[workload](case, outputs)
