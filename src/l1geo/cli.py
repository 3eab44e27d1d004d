"""Command-line front end.

Subcommands:
  signs enumerate   feasible / extremal sign patterns of a dictionary
  signs hasse       face-lattice Hasse diagram as Graphviz DOT
  solve             solve an instance and describe its solution set
  construct         build an instance realizing a prescribed solution set

Exit codes: 0 success, 2 invalid input, 3 mathematical precondition failure
(infeasible sign, sphere condition, empty intersection, unbounded solution
set), 4 convergence or iteration failure.  Diagnostics go to stderr; machine
output (--out json) goes to stdout.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import ballgeo, construct, lp, solset
from .ballgeo import Dictionary
from .jsonfmt import SCHEMA, dumps
from .signs import SignVector

log = logging.getLogger("l1geo")

PRECONDITION_ERRORS = (ballgeo.InfeasibleSignError,
                       construct.SphereConditionError,
                       construct.EmptyIntersectionError,
                       solset.UnboundedSolutionSetError)
CONVERGENCE_ERRORS = (solset.ConvergenceError, lp.IterationLimitError)


def _load_matrix(path: str) -> np.ndarray:
    """Matrix from a .csv (comma-separated rows) or .json file."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return np.atleast_2d(np.loadtxt(p, delimiter=",", ndmin=2))
    if p.suffix.lower() == ".json":
        data = json.loads(p.read_text())
        if isinstance(data, dict):
            if "D" not in data:
                raise ValueError(f"{path}: JSON matrix file needs a 'D' key")
            data = data["D"]
        return np.array(data, dtype=float)
    raise ValueError(f"{path}: unknown matrix format (use .csv or .json)")


def _load_affine(path: str, n: int) -> construct.AffineSubspace:
    """Affine subspace from JSON: origin+normals, origin+directions, or points."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: affine file must be a JSON object")
    keys = [k for k in ("normals", "directions", "points") if k in data]
    if len(keys) != 1:
        raise ValueError(f"{path}: give exactly one of normals/directions/points")
    kind = keys[0]
    if kind == "points":
        sub = construct.AffineSubspace.from_points(np.array(data["points"], float))
    else:
        if "origin" not in data:
            raise ValueError(f"{path}: origin is required with {kind}")
        origin = np.array(data["origin"], dtype=float)
        rows = np.array(data[kind], dtype=float)
        if kind == "normals":
            sub = construct.AffineSubspace.from_normals(origin, rows)
        else:
            sub = construct.AffineSubspace.from_directions(origin, rows)
    if sub.n != n:
        raise ValueError(f"{path}: affine subspace lives in R^{sub.n}, expected R^{n}")
    return sub


def _fmt_vec(v) -> str:
    return "[" + ", ".join(format(float(x), ".12g") for x in v) + "]"


def _cmd_signs_enumerate(args) -> int:
    d = Dictionary(_load_matrix(args.dict))
    signs = ballgeo.enumerate_feasible_signs(d, cap=args.cap)
    extremal = [s for s in signs if ballgeo.is_pre_extremal(d, s)]
    payload = {"schema": SCHEMA, "n": d.n, "p": d.p,
               "candidates": 3 ** d.p,
               "feasible_count": len(signs),
               "extremal_count": len(extremal),
               "feasible": [s.to_string() for s in signs],
               "extremal": [s.to_string() for s in extremal]}
    if args.oracle:
        oracle = ballgeo.brute_force_feasible_signs(
            d, samples_per_stratum=args.samples, seed=args.seed)
        payload["oracle_count"] = len(oracle)
        payload["oracle_subset_of_lp"] = set(oracle) <= set(signs)
        payload["oracle_equal"] = list(oracle) == list(signs)
    if args.out == "json":
        print(dumps(payload))
    else:
        print(f"feasible: {len(signs)} / {3 ** d.p}")
        print(f"extremal: {len(extremal)}")
        for s in signs:
            mark = " *" if s in set(extremal) else ""
            print(f"  {s.to_string()}{mark}")
        if args.oracle:
            print(f"oracle: {payload['oracle_count']} signs, "
                  f"subset_of_lp={payload['oracle_subset_of_lp']}, "
                  f"equal={payload['oracle_equal']}")
    return 0


def _cmd_signs_hasse(args) -> int:
    d = Dictionary(_load_matrix(args.dict))
    h = ballgeo.hasse_diagram(d, cap=args.cap)
    dot = ballgeo.to_dot(h)
    Path(args.dot).write_text(dot)
    print(f"nodes: {len(h.poset.elements)}, edges: {len(h.poset.cover_edges)}, "
          f"written: {args.dot}")
    return 0


def _cmd_solve(args) -> int:
    inst = solset.ProblemInstance.from_json(Path(args.instance).read_text())
    x = solset.solve_admm(inst, tol=args.tol)
    residual, _ = solset.optimality_residual(inst, x)
    payload: dict = {"schema": SCHEMA, "x": x,
                     "objective": solset.objective(inst, x),
                     "residual": residual}
    desc = None
    if args.describe or args.extreme or args.bounds:
        desc = solset.describe_solution_set(inst, x)
        payload["description"] = json.loads(desc.to_json())
    if args.extreme:
        points = solset.enumerate_extreme_solutions(inst, desc)
        payload["extreme_points"] = [pt for pt in points]
    if args.bounds:
        bounds = {}
        for i in args.bounds:
            if not 1 <= i <= inst.n:
                raise ValueError(f"--bounds index {i} out of range 1..{inst.n}")
            w = np.zeros(inst.n)
            w[i - 1] = 1.0
            bounds[str(i)] = list(solset.coordinate_bounds(desc, w))
        payload["bounds"] = bounds
    if args.out == "json":
        print(dumps(payload))
        return 0
    print(f"x: {_fmt_vec(x)}")
    print(f"objective: {payload['objective']:.12g}")
    print(f"residual: {residual:.3e}")
    if desc is not None:
        print(f"max_sign: {desc.max_sign}")
        print(f"radius: {desc.radius:.12g}")
        print(f"dim: {desc.dim}")
        print(f"compact: {desc.compact}")
    if args.extreme:
        for pt in payload["extreme_points"]:
            print(f"extreme: {_fmt_vec(pt)}")
    if args.bounds:
        for i in args.bounds:
            lo, hi = payload["bounds"][str(i)]
            print(f"bound x{i}: [{lo:.12g}, {hi:.12g}]")
    return 0


def _cmd_construct(args) -> int:
    d = Dictionary(_load_matrix(args.dict))
    affine = _load_affine(args.affine, d.n)
    if args.mode == "face":
        if args.sign is None:
            raise ValueError("--sign is required in face mode")
        s = SignVector.from_string(args.sign)
        ci = construct.construct_face_instance(d, s, args.radius, affine, args.lam)
    else:
        ci = construct.construct_ball_instance(d, affine, args.radius, args.lam,
                                               seed=args.seed)
    if args.save:
        Path(args.save).write_text(ci.to_json() + "\n")
        log.info("instance written to %s", args.save)
    report = None
    if args.verify:
        report = construct.verify_construction(ci)
    if args.out == "json":
        payload = json.loads(ci.to_json())
        if report is not None:
            payload["verification"] = {
                "passed": report.passed,
                "support_gap": report.support_gap,
                "kernel_ok": report.kernel_ok,
                "certificate_residual": report.certificate_residual,
            }
        print(dumps(payload))
    else:
        print(f"Phi: {[list(map(float, row)) for row in ci.instance.Phi]}")
        print(f"y: {_fmt_vec(ci.instance.y)}")
        print(f"lambda: {ci.instance.lam:.12g}")
        if report is not None:
            word = "PASS" if report.passed else "FAIL"
            print(f"verification: {word} (support gap {report.support_gap:.3e})")
    if report is not None and not report.passed:
        log.error("verification failed: support gap %.3e, kernel_ok=%s, "
                  "certificate residual %.3e", report.support_gap,
                  report.kernel_ok, report.certificate_residual)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="l1geo",
        description="Polyhedral geometry of analysis-l1 regularization")
    ap.add_argument("--verbose", action="store_true", help="debug logging")
    sub = ap.add_subparsers(dest="command")

    signs = sub.add_parser("signs", help="sign-pattern combinatorics")
    signs_sub = signs.add_subparsers(dest="signs_command")

    enum = signs_sub.add_parser("enumerate", help="feasible and extremal signs")
    enum.add_argument("--dict", required=True, help="dictionary matrix (csv/json)")
    enum.add_argument("--oracle", action="store_true",
                      help="cross-check with the sampling oracle")
    enum.add_argument("--samples", type=int, default=200,
                      help="oracle samples per cosupport stratum")
    enum.add_argument("--seed", type=int, default=0)
    enum.add_argument("--cap", type=int, default=ballgeo.ENUMERATION_CAP)
    enum.add_argument("--out", choices=("text", "json"), default="text")
    enum.set_defaults(func=_cmd_signs_enumerate)

    hasse = signs_sub.add_parser("hasse", help="face-lattice Hasse diagram")
    hasse.add_argument("--dict", required=True)
    hasse.add_argument("--dot", required=True, help="output DOT path")
    hasse.add_argument("--cap", type=int, default=ballgeo.ENUMERATION_CAP)
    hasse.set_defaults(func=_cmd_signs_hasse)

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("--instance", required=True, help="instance JSON file")
    solve.add_argument("--describe", action="store_true",
                       help="describe the whole solution set")
    solve.add_argument("--extreme", action="store_true",
                       help="enumerate extreme solutions (needs a compact set)")
    solve.add_argument("--bounds", type=int, nargs="+", metavar="I",
                       help="1-based coordinates to range over the solution set")
    solve.add_argument("--tol", type=float, default=1e-8,
                       help="optimality residual target")
    solve.add_argument("--out", choices=("text", "json"), default="text")
    solve.set_defaults(func=_cmd_solve)

    cons = sub.add_parser("construct", help="realize a prescribed solution set")
    cons.add_argument("--dict", required=True)
    cons.add_argument("--affine", required=True, help="affine subspace JSON file")
    cons.add_argument("--radius", type=float, required=True)
    cons.add_argument("--lambda", dest="lam", type=float, required=True)
    cons.add_argument("--sign",
                      help="sign string over +0- (face mode); use --sign=-+ "
                           "when it starts with a minus")
    cons.add_argument("--mode", choices=("face", "ball"), default="face",
                      help="face: solution set A ∩ face(sign); "
                           "ball: solution set A ∩ ball(radius)")
    cons.add_argument("--verify", action="store_true",
                      help="round-trip the construction through the solver")
    cons.add_argument("--save", help="write the instance JSON here")
    cons.add_argument("--seed", type=int, default=0)
    cons.add_argument("--out", choices=("text", "json"), default="text")
    cons.set_defaults(func=_cmd_construct)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(message)s")
    func = getattr(args, "func", None)
    if func is None:
        ap.print_help(sys.stderr)
        return 2
    try:
        return func(args)
    except PRECONDITION_ERRORS as exc:
        log.error("%s", exc)
        return 3
    except CONVERGENCE_ERRORS as exc:
        log.error("%s", exc)
        return 4
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
