"""Outside-in tracing for the benchmark's traced runs.

`Tracer.install()` wraps public montspec functions in span recorders and
patches each one under every name that holds it: `certify` and
`identities` bind `solve`, `assemble_hamiltonian` and
`refined_lowest_eigenvalues` through `from .eigensolver import ...`, and
`eigensolver` and `certify` bind `minimize_golden` the same way, so
patching only the defining module would lose those spans.  Nothing
inside the library is changed; `uninstall()` restores every name.

A span's self time is its duration minus the durations of its direct
child spans.  Spans stay in memory; `summary()` reduces them to a
mergeable dict (the traced CLI driver sends it from each child process)
and `layer_metrics()` turns merged summaries into the per-layer metrics.
"""

import functools
import inspect
import statistics
import sys
import time

from montspec import bounds, certify, eigensolver, identities, operators, optimize, tridiag

# (name, unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("tridiag.lowest_eigenvalues.calls", "count", "lower", "wall_s, op_p50_s on solve-grid"),
    ("tridiag.lowest_eigenvalues.self_s", "s", "lower", "wall_s, op_p50_s on solve-grid"),
    ("tridiag.lowest_eigenvalues.points", "count", "lower", "wall_s, op_p50_s on solve-grid"),
    ("tridiag.inverse_iteration.calls", "count", "lower", "wall_s on solve-grid and alpha-evidence"),
    ("tridiag.inverse_iteration.self_s", "s", "lower", "wall_s on solve-grid and alpha-evidence"),
    ("tridiag.inverse_iteration.points", "count", "lower", "wall_s on solve-grid and alpha-evidence"),
    ("tridiag.shifted_solve.self_s", "s", "lower", "wall_s on alpha-evidence"),
    ("operators.value.calls", "count", "lower", "none expected (null, about 1 %)"),
    ("operators.value.self_s", "s", "lower", "none expected (null, about 1 %)"),
    ("operators.value.points", "count", "lower", "none expected (null, about 1 %)"),
    ("eigensolver.assemble_hamiltonian.calls", "count", "lower", "wall_s on solve-grid"),
    ("eigensolver.assemble_hamiltonian.self_s", "s", "lower", "wall_s on solve-grid"),
    ("eigensolver.points_assembled", "count", "lower", "wall_s on solve-grid"),
    ("eigensolver.levels_per_solve", "count", "lower", "wall_s, ok_frac on solve-grid"),
    ("eigensolver.final_n_p50", "count", "lower", "wall_s, ok_frac on solve-grid"),
    ("eigensolver.vector_resolves", "count", "lower", "wall_s on solve-grid"),
    ("eigensolver.failed_level_frac", "ratio", "lower", "wall_s, ok_frac on solve-grid"),
    ("eigensolver.solve.calls", "count", "lower", "wall_s on all workloads"),
    ("eigensolver.solve.self_s", "s", "lower", "wall_s on all workloads"),
    ("eigensolver.err_over_tol_max", "ratio", "lower", "diagnostic only (error calibration)"),
    ("eigensolver.est_over_err_min", "ratio", "higher", "diagnostic only (error calibration)"),
    ("optimize.minimize_golden.evals", "count", "lower", "wall_s on alpha-evidence"),
    ("certify.scan.self_s", "s", "lower", "wall_s on alpha-evidence"),
    ("certify.scan.solves", "count", "lower", "wall_s on alpha-evidence"),
    ("certify.locate_minimum.self_s", "s", "lower", "wall_s on alpha-evidence"),
    ("certify.locate_minimum.evals", "count", "lower", "wall_s on alpha-evidence"),
    ("identities.identity_report.self_s", "s", "lower", "wall_s on alpha-evidence"),
    ("identities.identity_report.solves_per_report", "count", "lower", "wall_s on alpha-evidence"),
    ("bounds.self_s", "s", "lower", "setup_s, wall_s, op_p50_s on cli-session"),
    ("certify.certificates.self_s", "s", "lower", "setup_s, wall_s, op_p50_s on cli-session"),
    ("cli.run.self_s", "s", "lower", "setup_s, wall_s, op_p50_s on cli-session"),
    ("cli.import_s", "s", "lower", "setup_s, wall_s, op_p50_s on cli-session"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s of one pass"),
)

SOLVE = "eigensolver.solve"
LADDER = "eigensolver.solve_on_interval"
LEVEL = "eigensolver.refined_lowest_eigenvalues"
EXTRACT = "tridiag.lowest_eigenvalues"
# Spans whose self time is reported under another layer's name.
_GROUP = {LADDER: SOLVE, LEVEL: SOLVE, "certify.certify_small_k": "certify.certificates",
          "certify.certify_large_k": "certify.certificates"}
_SOLVE_SIG = inspect.signature(eigensolver.solve)


class Span:
    __slots__ = ("name", "parent", "duration", "child_s", "ok", "attrs", "kids")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.duration = 0.0
        self.child_s = 0.0
        self.ok = True
        self.attrs = {}
        self.kids = {}


def _points_of_first(span, args, kwargs):
    span.attrs["points"] = len(args[0])


def _points_of_system(span, args, kwargs):
    span.attrs["points"] = len(args[0].diag)


def _points_of_samples(span, args, kwargs):
    span.attrs["points"] = int(getattr(args[1], "size", 1))


def _assembled_points(span, result):
    span.attrs["points"] = len(result.diag)


def _solve_problem(span, args, kwargs):
    bound = _SOLVE_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    problem = a["problem"]
    full_line = (problem.geometry is operators.Geometry.FULL_LINE
                 if isinstance(problem, operators.OperatorSpec)
                 else isinstance(problem, operators.MontgomeryPotential)
                 and a["geometry"] in (None, operators.Geometry.FULL_LINE))
    if full_line:
        span.attrs["problem"] = (int(problem.k), float(problem.alpha), a["count"], a["tol"])


def _solve_result(span, result):
    span.attrs["eigenvalues"] = list(result.eigenvalues)
    span.attrs["achieved"] = result.achieved_tol_estimate


class Tracer:
    """Records spans around public montspec calls while installed."""

    def __init__(self):
        self.spans = []
        self.golden_evals = 0
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, before=None, after=None):
        """fn, recording one span per call; before/after add attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            if before is not None:
                before(span, args, kwargs)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.duration = time.perf_counter() - start
                self._stack.pop()
                parent = span.parent
                if parent is not None:
                    parent.child_s += span.duration
                    parent.kids[name] = parent.kids.get(name, 0) + 1
                    if name == LEVEL:
                        parent.attrs["final_n"] = span.attrs["points"]
            if after is not None:
                after(span, result)
            return result

        return traced

    def _count_golden(self, fn):
        @functools.wraps(fn)
        def counted_search(f, *args, **kwargs):
            def counted(x):
                self.golden_evals += 1
                if self._stack:
                    top = self._stack[-1].attrs
                    top["evals"] = top.get("evals", 0) + 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return counted_search

    def _patch_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "montspec" or mod_name.startswith("montspec.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        targets = [
            (tridiag.lowest_eigenvalues, EXTRACT, _points_of_first, None),
            (tridiag.inverse_iteration, "tridiag.inverse_iteration", _points_of_first, None),
            (tridiag.shifted_solve, "tridiag.shifted_solve", _points_of_first, None),
            (eigensolver.assemble_hamiltonian, "eigensolver.assemble_hamiltonian", None,
             _assembled_points),
            (eigensolver.refined_lowest_eigenvalues, LEVEL, _points_of_system, None),
            (eigensolver.solve_on_interval, LADDER, None, None),
            (eigensolver.solve, SOLVE, _solve_problem, _solve_result),
            (certify.scan, "certify.scan", None, None),
            (certify.locate_minimum, "certify.locate_minimum", None, None),
            (certify.certify_small_k, "certify.certify_small_k", None, None),
            (certify.certify_large_k, "certify.certify_large_k", None, None),
            (identities.identity_report, "identities.identity_report", None, None),
        ]
        for name, fn in vars(bounds).items():
            if inspect.isfunction(fn) and fn.__module__ == bounds.__name__ and not name.startswith("_"):
                targets.append((fn, "bounds." + name, None, None))
        for original, name, before, after in targets:
            self._patch_everywhere(original, self.wrap(name, original, before, after))
        self._patch_everywhere(optimize.minimize_golden, self._count_golden(optimize.minimize_golden))
        for cls in (operators.MontgomeryPotential, operators.ShiftedHarmonicPotential,
                    operators.PureAnharmonicPotential, operators.HalfPowerModelPotential):
            self._undo.append((cls, "value", cls.value))
            cls.value = self.wrap("operators.value", cls.value, _points_of_samples)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Mergeable reduction of the recorded spans (see merge_summaries)."""
        out = {"self_s": {}, "calls": {}, "points": {}, "ladders": [], "solves": [],
               "golden_evals": self.golden_evals, "scan_solves": 0, "locate_evals": 0,
               "reports": 0, "report_solves": 0, "import_s": []}
        for s in self.spans:
            group = "bounds" if s.name.startswith("bounds.") else _GROUP.get(s.name, s.name)
            out["self_s"][group] = out["self_s"].get(group, 0.0) + s.duration - s.child_s
            out["calls"][s.name] = out["calls"].get(s.name, 0) + 1
            out["points"][s.name] = out["points"].get(s.name, 0) + s.attrs.get("points", 0)
            if s.name == LADDER:
                out["ladders"].append({"levels": s.kids.get(LEVEL, 0), "ok": s.ok,
                                       "final_n": s.attrs.get("final_n", 0),
                                       "vector_resolves": s.kids.get(EXTRACT, 0)})
            elif s.name == SOLVE and "problem" in s.attrs:
                out["solves"].append({"problem": s.attrs["problem"], "ok": s.ok,
                                      "eigenvalues": s.attrs.get("eigenvalues"),
                                      "achieved": s.attrs.get("achieved")})
            elif s.name == "certify.scan":
                out["scan_solves"] += s.kids.get(SOLVE, 0)
            elif s.name == "certify.locate_minimum":
                out["locate_evals"] += s.attrs.get("evals", 0)
            elif s.name == "identities.identity_report":
                out["reports"] += 1
                out["report_solves"] += s.kids.get(SOLVE, 0)
        return out


def merge_summaries(summaries):
    merged = Tracer().summary()
    for part in summaries:
        for key, value in part.items():
            if isinstance(value, dict):
                for name, x in value.items():
                    merged[key][name] = merged[key].get(name, 0) + x
            else:
                merged[key] += value
    return merged


def _calibration(solves, refs):
    """(max |error| / tol, min estimate / error) over successful full-line
    Montgomery solves.  The error is floored at the reference's own error
    bar, so the second ratio never credits the estimate with more than the
    reference can resolve."""
    worst_ratio, best_cover = 0.0, None
    for rec in solves:
        if not rec["ok"]:
            continue
        k, alpha, count, tol = rec["problem"]
        ref, ref_err = refs.eigenvalues(k, alpha, count)
        err = max(abs(a - b) for a, b in zip(rec["eigenvalues"], ref))
        worst_ratio = max(worst_ratio, err / tol)
        cover = rec["achieved"] / max(err, ref_err, 1e-300)
        best_cover = cover if best_cover is None else min(best_cover, cover)
    return worst_ratio, best_cover or 0.0


def layer_metrics(summary, refs, overhead_s):
    """Every LAYER_METRICS value (0 where the workload never reaches the layer)."""
    self_s, calls, points = summary["self_s"], summary["calls"], summary["points"]
    ladders = summary["ladders"]
    levels = sum(x["levels"] for x in ladders)
    failed_levels = sum(x["levels"] for x in ladders if not x["ok"])
    err_over_tol, est_over_err = _calibration(summary["solves"], refs)
    values = {
        "tridiag.shifted_solve.self_s": self_s.get("tridiag.shifted_solve", 0.0),
        "eigensolver.points_assembled": points.get("eigensolver.assemble_hamiltonian", 0),
        "eigensolver.levels_per_solve": levels / len(ladders) if ladders else 0.0,
        "eigensolver.final_n_p50": statistics.median(x["final_n"] for x in ladders) if ladders else 0,
        "eigensolver.vector_resolves": sum(x["vector_resolves"] for x in ladders),
        "eigensolver.failed_level_frac": failed_levels / levels if levels else 0.0,
        "eigensolver.solve.calls": calls.get(SOLVE, 0),
        "eigensolver.solve.self_s": self_s.get(SOLVE, 0.0),
        "eigensolver.err_over_tol_max": err_over_tol,
        "eigensolver.est_over_err_min": est_over_err,
        "optimize.minimize_golden.evals": summary["golden_evals"],
        "certify.scan.self_s": self_s.get("certify.scan", 0.0),
        "certify.scan.solves": summary["scan_solves"],
        "certify.locate_minimum.self_s": self_s.get("certify.locate_minimum", 0.0),
        "certify.locate_minimum.evals": summary["locate_evals"],
        "identities.identity_report.self_s": self_s.get("identities.identity_report", 0.0),
        "identities.identity_report.solves_per_report":
            summary["report_solves"] / summary["reports"] if summary["reports"] else 0.0,
        "bounds.self_s": self_s.get("bounds", 0.0),
        "certify.certificates.self_s": self_s.get("certify.certificates", 0.0),
        "cli.run.self_s": self_s.get("cli.run", 0.0),
        "cli.import_s": statistics.median(summary["import_s"]) if summary["import_s"] else 0.0,
        "trace.overhead_s": overhead_s,
    }
    for layer in (EXTRACT, "tridiag.inverse_iteration", "operators.value"):
        values[layer + ".calls"] = calls.get(layer, 0)
        values[layer + ".self_s"] = self_s.get(layer, 0.0)
        values[layer + ".points"] = points.get(layer, 0)
    values["eigensolver.assemble_hamiltonian.calls"] = calls.get("eigensolver.assemble_hamiltonian", 0)
    values["eigensolver.assemble_hamiltonian.self_s"] = self_s.get("eigensolver.assemble_hamiltonian", 0.0)
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}
