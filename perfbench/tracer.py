"""Span tracing of the `l1geo` layers, patched in from outside the package.

`Tracer.install()` replaces every public module-level function of the
package's layer modules with a wrapper that records one span per call: name,
start, end, parent span and job id.  The wrapper is bound under every name a
caller looks up, including the names `from ... import` copied into other
modules (such as `ballgeo.leq` or `construct.solve_admm`), and `install`
fails if any original is still reachable afterwards.  A few tiny functions
on hot paths (`signs.leq`, `SignVector.__post_init__`, `solset._polish`) are
counted instead of spanned; their time stays with the calling span.

Spans live in flat arrays in memory and are written out once, after the run.
A span's self time is its duration minus the time covered by its child
spans; a layer's time is the sum of its spans' self times.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("cli", "jsonfmt", "lp", "linalg", "signs", "ballgeo", "solset",
          "construct")
# Called so often, for so little work, that a span would cost more than the
# call: input coercions are left alone, `leq` is only counted.  Their time
# stays with the caller.
UNWRAPPED = {"linalg.as_matrix", "linalg.as_vector"}
COUNTED = {"signs.leq": "signs.leq_calls"}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self._stack: list[int] = []
        self.current_job = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._originals: set[int] = set()

    # ------------------------------------------------------------ recording

    def _open(self, code: int) -> int:
        k = len(self.start)
        self.name_of.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(k)
        self.start.append(time.perf_counter())
        return k

    def _close(self, k: int) -> None:
        self.end[k] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn, on_result=None, on_error=None):
        code = self._code.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = open_(code)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(k)
                if on_error is not None:
                    on_error(exc)
                raise
            close(k)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return wrapper

    def _counted(self, key: str, fn, on_result=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return wrapper

    # ------------------------------------------------------------- patching

    def _hooks(self):
        """Per-function result and error hooks that feed the counters."""
        from l1geo import lp, solset

        c = self.counts

        def lp_result(out, args, kwargs):
            prog = args[0] if args else kwargs["lp"]
            me, ml = prog.A_eq.shape[0], prog.A_le.shape[0]
            m = me + ml
            c["lp.pivots"] += out.iterations
            c["lp.cells"] += m * (2 * prog.n + ml + m + 1)  # tableau size
            c["lp." + out.status] += 1

        def lp_error(exc):
            if isinstance(exc, lp.IterationLimitError):
                c["lp.iteration_limit"] += 1

        def feasible(out, *_):
            c["ballgeo.feasible"] += bool(out.feasible)

        def enumerated(out, *_):
            c["ballgeo.feasible_signs"] += len(out)

        def admm_error(exc):
            if isinstance(exc, solset.ConvergenceError):
                c["solset.admm_failures"] += 1

        def verified(out, *_):
            c["construct.verify_failures"] += not out.passed

        def verify_error(_):
            c["construct.verify_failures"] += 1

        return {
            "lp.solve": (lp_result, lp_error),
            "jsonfmt.dumps": (
                lambda out, *_: c.update({"jsonfmt.bytes": len(out)}), None),
            "signs.poset_cover_edges": (
                lambda out, *_: c.update({"signs.poset_elements":
                                         len(out.elements)}), None),
            "ballgeo.is_feasible": (feasible, None),
            "ballgeo.enumerate_feasible_signs": (enumerated, None),
            "solset.solve_admm": (None, admm_error),
            "construct.verify_construction": (verified, verify_error),
        }

    def _replace(self, orig, wrapper, modules) -> None:
        self._originals.add(id(orig))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer function under every binding, then verify."""
        pkg = importlib.import_module("l1geo")
        modules = [pkg] + [importlib.import_module(f"l1geo.{layer}")
                           for layer in LAYERS]
        hooks = self._hooks()
        for mod in modules[1:]:
            layer = mod.__name__.split(".")[-1]
            for name, fn in list(_public_functions(mod)):
                key = f"{layer}.{name}"
                if key in UNWRAPPED:
                    continue
                if key in COUNTED:
                    wrapper = self._counted(COUNTED[key], fn)
                else:
                    wrapper = self._spanned(key, fn,
                                            *hooks.get(key, (None, None)))
                self._replace(fn, wrapper, modules)
        from l1geo import lp, signs, solset

        self._patch_attr(lp.LinearProgram, "__post_init__",
                         self._spanned("lp.LinearProgram",
                                       lp.LinearProgram.__post_init__))
        self._patch_attr(signs.SignVector, "__post_init__",
                         self._counted("signs.sign_vectors",
                                       signs.SignVector.__post_init__))
        self._replace(solset._polish,
                      self._counted("solset.polish_calls", solset._polish),
                      modules)
        self._verify_bindings(modules)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        orig = getattr(owner, attr)
        self._originals.add(id(orig))
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _verify_bindings(self, modules) -> None:
        """Fail if any wrapped original is still reachable by a caller."""
        missed = []
        for mod in modules:
            for attr, value in vars(mod).items():
                targets = [value]
                if inspect.isclass(value) and value.__module__.startswith(
                        "l1geo"):
                    targets += list(vars(value).values())
                if inspect.isfunction(value):
                    targets += list(value.__defaults__ or ())
                    targets += list((value.__kwdefaults__ or {}).values())
                if any(id(t) in self._originals for t in targets):
                    missed.append(f"{mod.__name__}.{attr}")
        if missed:
            raise RuntimeError(f"unpatched binding sites: {sorted(missed)}")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -------------------------------------------------------------- reports

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for k, par in enumerate(self.parent):
            if par >= 0:
                covered[par] += dur[k]
        return [d - c for d, c in zip(dur, covered)]

    def write(self, path) -> None:
        """Dump every span as one JSON line: name, start, end, parent, job."""
        with gzip.open(path, "wt") as fh:
            for k in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_of[k]],
                                     self.start[k], self.end[k],
                                     self.parent[k], self.job[k]]) + "\n")

    def layer_metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, counts and times as means per traced job."""
        names = self.names
        selfs = self.self_times()
        dur = [e - s for s, e in zip(self.start, self.end)]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        layer_self: Counter = Counter()
        for k, code in enumerate(self.name_of):
            name = names[code]
            calls[name] += 1
            self_s[name] += selfs[k]
            total_s[name] += dur[k]
            layer_self[name.split(".")[0]] += selfs[k]
        # LPs solved under selected callers, found by walking up the parents
        lp_code = self._code.get("lp.solve", -1)
        under = {self._code[n]: n for n in (
            "ballgeo.enumerate_feasible_signs", "solset.maximal_sign",
            "solset.enumerate_extreme_solutions",
            "construct.construct_face_instance",
            "construct.construct_ball_instance", "construct.support_gap")
            if n in self._code}
        lps_under: Counter = Counter()
        for k, code in enumerate(self.name_of):
            if code != lp_code:
                continue
            seen = set()
            par = self.parent[k]
            while par >= 0:
                name = under.get(self.name_of[par])
                if name is not None and name not in seen:
                    seen.add(name)
                    lps_under[name] += 1
                par = self.parent[par]
        c = self.counts
        per = 1.0 / max(jobs, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        def layer_calls(layer):
            return sum(v for n, v in calls.items() if n.startswith(layer + "."))

        lp_calls = calls["lp.solve"]
        build = ("construct.construct_face_instance",
                 "construct.construct_ball_instance")
        return {
            "cli.calls": (calls["cli.main"] * per, "count"),
            "cli.self_s": (layer_self["cli"] * per, "s"),
            "jsonfmt.s": (layer_self["jsonfmt"] * per, "s"),
            "jsonfmt.bytes": (c["jsonfmt.bytes"] * per, "bytes"),
            "lp.calls": (lp_calls * per, "count"),
            "lp.s": (layer_self["lp"] * per, "s"),
            "lp.ms_per_call": (1e3 * ratio(layer_self["lp"], lp_calls), "ms"),
            "lp.pivots": (c["lp.pivots"] * per, "count"),
            "lp.pivots_per_call": (ratio(c["lp.pivots"], lp_calls), "count"),
            "lp.cells_per_call": (ratio(c["lp.cells"], lp_calls), "cells"),
            "lp.optimal": (c["lp.optimal"] * per, "count"),
            "lp.infeasible": (c["lp.infeasible"] * per, "count"),
            "lp.unbounded": (c["lp.unbounded"] * per, "count"),
            "lp.iteration_limit": (c["lp.iteration_limit"] * per, "count"),
            "linalg.calls": (layer_calls("linalg") * per, "count"),
            "linalg.s": (layer_self["linalg"] * per, "s"),
            "signs.leq_calls": (c["signs.leq_calls"] * per, "count"),
            "signs.sign_vectors": (c["signs.sign_vectors"] * per, "count"),
            "signs.poset_s": (total_s["signs.poset_cover_edges"] * per, "s"),
            "signs.poset_elements": (c["signs.poset_elements"] * per, "count"),
            "signs.s": (layer_self["signs"] * per, "s"),
            "ballgeo.feasibility_calls": (
                calls["ballgeo.is_feasible"] * per, "count"),
            "ballgeo.feasible_share": (
                ratio(c["ballgeo.feasible"], calls["ballgeo.is_feasible"]),
                "ratio"),
            "ballgeo.lps_per_feasible_sign": (
                ratio(lps_under["ballgeo.enumerate_feasible_signs"],
                      c["ballgeo.feasible_signs"]), "count"),
            "ballgeo.enumerate_self_s": (
                self_s["ballgeo.enumerate_feasible_signs"] * per, "s"),
            "ballgeo.hasse_self_s": (self_s["ballgeo.hasse_diagram"] * per,
                                     "s"),
            "ballgeo.face_calls": (calls["ballgeo.face_from_sign"] * per,
                                   "count"),
            "ballgeo.s": (layer_self["ballgeo"] * per, "s"),
            "solset.maximal_sign_lps": (
                lps_under["solset.maximal_sign"] * per, "count"),
            "solset.maximal_sign_s": (total_s["solset.maximal_sign"] * per,
                                      "s"),
            "solset.extreme_lps": (
                lps_under["solset.enumerate_extreme_solutions"] * per, "count"),
            "solset.extreme_s": (
                total_s["solset.enumerate_extreme_solutions"] * per, "s"),
            "solset.admm_calls": (calls["solset.solve_admm"] * per, "count"),
            "solset.admm_self_s": (self_s["solset.solve_admm"] * per, "s"),
            "solset.admm_failures": (c["solset.admm_failures"] * per, "count"),
            "solset.residual_checks": (
                calls["solset.optimality_residual"] * per, "count"),
            "solset.polish_accept_share": (
                ratio(calls["solset.solve_admm"] - c["solset.admm_failures"],
                      c["solset.polish_calls"]), "ratio"),
            "solset.bounds_s": (total_s["solset.coordinate_bounds"] * per,
                                "s"),
            "solset.s": (layer_self["solset"] * per, "s"),
            "construct.build_s": (sum(total_s[n] for n in build) * per, "s"),
            "construct.build_lps": (sum(lps_under[n] for n in build) * per,
                                    "count"),
            "construct.support_gap_lps": (
                lps_under["construct.support_gap"] * per, "count"),
            "construct.support_gap_s": (
                total_s["construct.support_gap"] * per, "s"),
            "construct.verify_self_s": (
                self_s["construct.verify_construction"] * per, "s"),
            "construct.verify_failures": (
                c["construct.verify_failures"] * per, "count"),
            "construct.s": (layer_self["construct"] * per, "s"),
            "trace.spans": (len(self.start) * per, "count"),
        }
