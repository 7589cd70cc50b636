"""Span tracing from outside the program: wrap the public functions of each
`padua` module where their callers look them up, and record one span per call.

A span is (name, start, end, parent, command, work, minor page faults).
Spans stay in memory until the run ends.  Self time is a span's duration
minus the time covered by its direct children; calls run on one thread, so
children never overlap.  Page faults count the whole span, children included.
"""

import functools
import json
import os
import resource
from time import perf_counter


def _pairs(args, result):
    return int(args[1].theta1.size * args[2].theta1.size)


def _points(args, result):
    return int(result.theta1.size)


def _grid_pts(args, result):
    return int(args[2].m ** 2) if len(args) > 2 else 0


def _lebesgue_grid_pts(args, result):
    return int(args[1].m ** 2)


def _nodes(args, result):
    return len(result)


def _bytes(args, result):
    path = args[0].path
    return os.path.getsize(path) if path not in (None, "-") else 0


# (span name, module, attribute, work counter name, counter).  A function is
# wrapped at every attribute its callers resolve at call time: interp and
# analysis bind t_norm_lattice at import, so those bindings are wrapped too.
TARGETS = (
    ("points.generate", "points", "generate", "nodes", _nodes),
    ("kernel.star_matrix", "kernel", "star_matrix", "pairs", _pairs),
    ("kernel.point_tables", "kernel", "point_tables", "points", _points),
    ("kernel.node_tables", "kernel", "node_tables", "points", _points),
    ("kernel.kernel_compact", "kernel", "kernel_compact", None, None),
    ("kernel.kernel_direct", "kernel", "kernel_direct", None, None),
    ("kernel.node_star_direct", "kernel", "node_star_direct", None, None),
    ("interp.interpolate_grid", "interp", "interpolate_grid", "grid_pts", _grid_pts),
    ("interp.lebesgue_constant", "interp", "lebesgue_constant", "grid_pts",
     _lebesgue_grid_pts),
    ("interp.lagrange_matrix", "interp", "lagrange_matrix", None, None),
    ("interp.sample", "interp", "sample", None, None),
    ("interp.to_coefficients", "interp", "to_coefficients", None, None),
    ("cheb.product_series_grid", "cheb", "product_series_grid", None, None),
    ("cheb.t_norm_lattice", "cheb", "t_norm_lattice", None, None),
    ("cheb.t_norm_lattice", "interp", "t_norm_lattice", None, None),
    ("cheb.t_norm_lattice", "analysis", "t_norm_lattice", None, None),
    ("analysis.convergence_study", "analysis", "convergence_study", None, None),
    ("analysis.marcinkiewicz_trials", "analysis", "marcinkiewicz_trials", None, None),
    ("cubature.build_rule", "cubature", "build_rule", None, None),
    ("cubature.integrate", "cubature", "integrate", None, None),
    ("ideal.q_poly", "ideal", "q_poly", None, None),
    ("ideal.three_term_residual", "ideal", "three_term_residual", None, None),
    ("ideal.cd_residual", "ideal", "cd_residual", None, None),
    ("verify.run_verification", "verify", "run_verification", None, None),
    ("cli.main", "cli", "main", None, None),
    ("cli.output", "cli.OutputSpec", "write_rows", "bytes", _bytes),
    ("cli.output", "cli.OutputSpec", "write_json", "bytes", _bytes),
)


def _resolve(package, dotted):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.command = None
        self._stack = []
        self._saved = []

    def install(self):
        for name, owner, attr, counter, count in TARGETS:
            target = _resolve(self.package, owner)
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original, counter, count))

    def uninstall(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def _wrap(self, name, fn, counter, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.command, counter, 0, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[7] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                self._stack.pop()
            if count is not None:
                span[6] = count(args, result)
            return result

        return traced

    def totals(self):
        """Per span name: calls, total_s, self_s, minflt and the work counter."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _, _, counter, work, faults), child in zip(self.spans, covered):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "minflt": 0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child
            agg["minflt"] += faults
            if counter is not None:
                agg[counter] = agg.get(counter, 0) + work
        return out

    def write(self, path, origin):
        """Write every span as one JSON line, times relative to origin."""
        with open(path, "w") as fh:
            for name, start, end, parent, command, counter, work, faults in self.spans:
                record = {"name": name, "start": start - origin, "end": end - origin,
                          "parent": parent, "command": command, "minflt": faults}
                if counter is not None:
                    record[counter] = work
                fh.write(json.dumps(record) + "\n")
