"""Spans recorded around calls into refmatch, from outside the package.

Nothing in ``src/`` knows about tracing.  :func:`install` replaces each
traced function at the place its callers look it up -- a module global
such as ``refmatch.solver.vacancy_closure``, a name another module
imported such as ``refmatch.experiments.solve_equilibrium``, or a class
attribute such as ``Zipf.referral_expectation`` -- with a wrapper that
records one span per call, and returns a function that puts the
originals back.

A span is (name, start, end, parent span).  Spans are appended to flat
arrays in memory as calls start, so a pass of 10^6 kernel calls costs
tens of megabytes, and are written out once, when the run ends.  The
self time of a span is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter

import numpy as np

# Traced names: span name -> [(module, attribute, owner)].  ``owner`` is
# "module" for a module global or the name of a class in that module.
# Layers are the first dotted component of the span name.
SITES = {
    "degree.poisson": [("degree", "referral_expectation", "Poisson")],
    "degree.regular": [("degree", "referral_expectation", "Degenerate")],
    "degree.zipf": [("degree", "referral_expectation", "Zipf")],
    "degree.zeta": [("degree", "zeta", "module")],
    "degree.polylog": [("degree", "polylog", "module")],
    "degree.zipf_alpha_for_mean": [
        ("degree", "zipf_alpha_for_mean", "module"),
        ("experiments", "zipf_alpha_for_mean", "module"),
        ("cli", "zipf_alpha_for_mean", "module"),
    ],
    "model.vacancy_closure": [("solver", "vacancy_closure", "module")],
    "model.market_arrival": [("solver", "market_arrival", "module")],
    "model.info_probability": [("solver", "info_probability", "module")],
    "solver.flow_residual": [("solver", "flow_residual", "module")],
    "solver.iterate": [("solver", "_iterate", "module")],
    "solver.solve_equilibrium": [
        ("solver", "solve_equilibrium", "module"),
        ("calibration", "solve_equilibrium", "module"),
        ("experiments", "solve_equilibrium", "module"),
        ("cli", "solve_equilibrium", "module"),
    ],
    "solver.solve_all": [("solver", "solve_all", "module")],
    "calibration.calibrate": [
        ("calibration", "calibrate", "module"),
        ("cli", "calibrate", "module"),
    ],
    "metrics.gini": [("experiments", "gini", "module"), ("cli", "gini", "module")],
    "metrics.social_welfare": [
        ("experiments", "social_welfare", "module"),
        ("cli", "social_welfare", "module"),
    ],
    "metrics.group_incomes": [("metrics", "group_incomes", "module")],
    "experiments.equilibrium_rows": [("experiments", "equilibrium_rows", "module")],
    "experiments.run_table2": [("cli", "run_table2", "module")],
    "experiments.run_structure_sweeps": [("cli", "run_structure_sweeps", "module")],
    "experiments.run_df_sweep": [("cli", "run_df_sweep", "module")],
    "experiments.run_phi_sweep": [("cli", "run_phi_sweep", "module")],
    "experiments.reference_checks": [("cli", "reference_checks", "module")],
    "cli.main": [("cli", "main", "module")],
    "cli.write_csv": [("experiments", "write_csv", "SweepResult")],
    "simulate.build_network": [("simulate", "build_configuration_network", "module")],
    "simulate.estimate": [("simulate", "estimate_referral_rate", "module")],
}

LAYERS = ("degree", "model", "solver", "calibration", "metrics", "experiments", "cli", "simulate")


class Tracer:
    """In-memory span store plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.names = list(SITES)
        self.kept: list[tuple] = []
        self.kept_spans = 0
        self.reset()

    def reset(self) -> None:
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def wrap(self, fn, name: str):
        nid = self.names.index(name)
        on_return = ON_RETURN.get(name)
        on_error = ON_ERROR.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.starts)
            parent = tracer.current
            tracer.name_ids.append(nid)
            tracer.parents.append(parent)
            tracer.ends.append(0.0)
            tracer.current = sid
            tracer.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                tracer.ends[sid] = perf_counter()
                tracer.current = parent
            if on_return is not None:
                on_return(tracer, out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def pass_summary(self) -> dict:
        """Per span name: calls, inclusive time and self time of this pass.

        Inclusive time counts only spans whose parent has another name,
        so a name nested in itself is not counted twice.
        """
        nid = np.frombuffer(self.name_ids, dtype=np.int32)
        par = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        k = len(self.names)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        parent_name = np.full(len(nid), -1, dtype=np.int64)
        parent_name[has_parent] = nid[par[has_parent]]
        outer = parent_name != nid
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        selfs = np.bincount(nid, weights=self_t, minlength=k)
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names])
        span_layer = layer_of[nid]
        parent_layer = np.full(len(nid), -1, dtype=np.int64)
        parent_layer[has_parent] = layer_of[nid[par[has_parent]]]
        top = parent_layer != span_layer
        layer_incl = np.bincount(span_layer[top], weights=dur[top], minlength=len(LAYERS))
        layer_self = np.bincount(span_layer, weights=self_t, minlength=len(LAYERS))
        return {
            "names": {
                n: {"calls": float(calls[i]), "time_s": float(incl[i]), "self_s": float(selfs[i])}
                for i, n in enumerate(self.names)
            },
            "layers": {
                layer: {"time_s": float(layer_incl[j]), "self_s": float(layer_self[j])}
                for j, layer in enumerate(LAYERS)
            },
            "counters": dict(self.counters),
        }

    def keep(self, limit: int) -> None:
        """Keep this pass's spans for :meth:`write`, up to ``limit`` in all.

        Spans are stored in start order and a parent starts before its
        children, so a prefix of a pass is a complete trace of its start.
        """
        n = min(len(self.starts), limit - self.kept_spans)
        if n > 0:
            self.kept.append((self.name_ids[:n], self.parents[:n], self.starts[:n],
                              self.ends[:n], self.kept_spans))
            self.kept_spans += n

    def write(self, path: str) -> int:
        """Write the kept spans as arrays (name table, name id, parent, start, end)."""
        if not self.kept:
            return 0

        def cat(column, dtype):
            return np.concatenate([np.frombuffer(k[column], dtype=dtype) for k in self.kept])

        parents = [np.frombuffer(p, dtype=np.int32) for _, p, _, _, _ in self.kept]
        np.savez(
            path,
            names=np.array(self.names),
            name_id=cat(0, np.int32),
            parent=np.concatenate(
                [np.where(p >= 0, p + base, -1) for p, (*_, base) in zip(parents, self.kept)]
            ),
            start=cat(2, np.float64),
            end=cat(3, np.float64),
        )
        return self.kept_spans


def _add_iterations(tracer: Tracer, iters: int) -> None:
    tracer.add("solver.outer_iters", iters)
    tracer.counters["solver.outer_iters_max"] = max(tracer.counters["solver.outer_iters_max"], iters)


def _count_iterations(tracer: Tracer, out, args) -> None:
    _add_iterations(tracer, out[3])  # _iterate returns (u_vec, v, residual, iterations)


def _count_convergence_error(tracer: Tracer, exc: Exception) -> None:
    iters = getattr(exc, "iterations", None)  # only ConvergenceError carries it
    if iters is not None:
        tracer.add("solver.convergence_errors", 1)
        _add_iterations(tracer, iters)


def _count_rows(tracer: Tracer, out, args) -> None:
    tracer.add("experiments.rows", len(out.rows))


def _count_distinct(tracer: Tracer, out, args) -> None:
    tracer.add("solver.multistart_distinct", len(out) - 1)


def _count_csv_bytes(tracer: Tracer, out, args) -> None:
    target = args[1]
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        tracer.add("cli.csv_bytes", os.path.getsize(target))


def _count_network(tracer: Tracer, out, args) -> None:
    # Computed from array sizes, not measured: building a network
    # allocates degrees and offsets (n and n + 1 int64) and five
    # stub-length int64 arrays (stub owners, permutation, shuffled
    # owners, inverse permutation, neighbours).
    stubs = out.stub_count
    tracer.add("simulate.stubs", stubs)
    tracer.add("simulate.computed_bytes", 8 * (2 * out.n + 1 + 5 * stubs))


ON_RETURN = {
    "solver.iterate": _count_iterations,
    "solver.solve_all": _count_distinct,
    "experiments.run_table2": _count_rows,
    "experiments.run_structure_sweeps": _count_rows,
    "experiments.run_df_sweep": _count_rows,
    "experiments.run_phi_sweep": _count_rows,
    "cli.write_csv": _count_csv_bytes,
    "simulate.build_network": _count_network,
}
ON_ERROR = {"solver.iterate": _count_convergence_error}
COUNTERS = (
    "solver.outer_iters", "solver.outer_iters_max", "solver.convergence_errors",
    "solver.multistart_distinct", "experiments.rows", "cli.csv_bytes",
    "simulate.stubs", "simulate.computed_bytes",
)


def install(tracer: Tracer, modules: dict):
    """Wrap every site in :data:`SITES`; returns a function that undoes it."""
    undo = []
    for name, sites in SITES.items():
        for module, attr, owner in sites:
            target = modules[module] if owner == "module" else getattr(modules[module], owner)
            own = owner == "module" or attr in target.__dict__
            undo.append((target, attr, getattr(target, attr) if own else None))
            setattr(target, attr, tracer.wrap(getattr(target, attr), name))

    def restore():
        for target, attr, original in reversed(undo):
            if original is None:
                delattr(target, attr)  # inherited: uncover the base-class method
            else:
                setattr(target, attr, original)

    return restore
