"""The three workloads: inputs from the seed, one pass of fixed work, checks.

Each workload has ``setup(rm)``, which receives the freshly imported
refmatch modules and builds its inputs (the same inputs every time for
one seed), and ``run_pass(ops)``, which does the fixed work once, checks
every output against oracles.py and returns ``(wall, op_ms)``: the
seconds the work took, checks excluded, and the milliseconds of each of
its ops in a fixed order (None for an op that failed).  Every pass does
the same ops, so run.py can take each op's fastest repeat.
"""

from __future__ import annotations

import io
import math
import os
import shutil
from dataclasses import replace
from time import perf_counter

import numpy as np

import oracles


def allowed_errors(rm) -> tuple[type, ...]:
    """The error types the package documents for inputs outside the model."""
    return (ValueError, rm["solver"].ConvergenceError, rm["calibration"].CalibrationError)


class Ops:
    """Per-op accounting: attempts, and failures split by kind.

    ``failed`` counts every op that did not return a checked result:
    ``allowed`` (a documented error type; every input is feasible, so
    this is still a failure), ``crashed`` (any other exception, which is
    caught so the run goes on) and ``wrong`` (a result that failed its
    oracle).
    """

    def __init__(self, allowed: tuple[type, ...], before_op=None):
        self.allowed_types = allowed
        self.before_op = before_op  # called, untimed, before every op
        self.attempted = self.allowed = self.crashed = self.wrong = 0
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return self.allowed + self.crashed + self.wrong

    def call(self, fn, *args, **kwargs):
        """Run one op; returns (result, milliseconds), or (None, None) if it failed."""
        if self.before_op is not None:
            self.before_op()
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except self.allowed_types as exc:
            self.allowed += 1
            self._note(f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # a crash is recorded, not raised
            self.crashed += 1
            self._note(f"crash {type(exc).__name__}: {exc}")
        else:
            return out, (perf_counter() - t0) * 1e3
        return None, None

    def mark_wrong(self, problems: list[str]) -> None:
        self.wrong += 1
        for p in problems[:5]:
            self._note(p)

    def _note(self, message: str) -> None:
        if len(self.messages) < 50:
            self.messages.append(message)


def _timed_site(module, attr: str, latencies_ms: list):
    """Record the latency of every call of ``module.attr``; returns an undo function."""
    fn = getattr(module, attr)

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            latencies_ms.append((perf_counter() - t0) * 1e3)

    setattr(module, attr, timed)
    return lambda: setattr(module, attr, fn)


class Reproduce:
    """``refmatch reproduce-all`` on the paper's fixed grids; the seed is unused."""

    name = "reproduce"

    def __init__(self, seed: int, workdir: str):
        self.outdir = os.path.join(workdir, "reproduce")

    def setup(self, rm) -> None:
        self.rm = rm
        self.golden = oracles.load_golden()

    def run_pass(self, ops: Ops) -> tuple[float, list]:
        rm = self.rm
        shutil.rmtree(self.outdir, ignore_errors=True)
        # The ops are the solves; every solve of reproduce-all goes
        # through one of these names.
        solves_ms: list = []
        undo = [
            _timed_site(rm[m], "solve_equilibrium", solves_ms)
            for m in ("calibration", "experiments", "cli")
        ]
        try:
            rc, ms = ops.call(rm["cli"].main, ["reproduce-all", "--outdir", self.outdir], out=io.StringIO())
        finally:
            for u in undo:
                u()
        if ms is None:
            return 0.0, []
        problems = [f"exit code {rc}"] if rc != 0 else oracles.check_reproduce(self.outdir, self.golden)
        if problems:
            ops.mark_wrong(problems)
        return ms / 1e3, solves_ms

    def teardown(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)


class SolveGrid:
    """A seeded batch of Poisson/regular economies, each calibrated then solved.

    The cost of a solve depends mostly on group count, referral
    frequency phi and job-network degree d_f, so these follow a fixed
    design: five blocks of 20 economies, each block taking every one of
    20 group counts (2..64), 20 phi levels (log-spaced on [0.001, 1]) and
    20 d_f levels (0..40) once, paired differently in each block.  The
    first block is solved through ``solve_all`` with restarts.  The seed
    draws everything else -- calibration targets, group sizes, degree
    laws and their parameters, the group permutation of the check -- so
    it changes the economies but not the spread of work, and the
    run-to-run spread measures the program rather than the draw.
    """

    name = "solve-grid"
    BLOCKS = 5
    LEVELS = 20
    RESTARTS = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.first_u: list | None = None

    def setup(self, rm) -> None:
        self.rm = rm
        Targets = rm["calibration"].CalibrationTargets
        Poisson, Degenerate = rm["degree"].Poisson, rm["degree"].Degenerate
        GroupSpec = rm["model"].GroupSpec
        rng = np.random.default_rng([self.seed, 1])
        top = self.LEVELS - 1
        self.economies = []
        for block in range(self.BLOCKS):
            for k in range(self.LEVELS):
                targets = Targets(
                    u_target=0.044 * math.exp(rng.uniform(-0.25, 0.25)),
                    market_tightness_inverse=1.1 * math.exp(rng.uniform(-0.2, 0.2)),
                    wage_target=float(rng.uniform(0.55, 0.65)),
                    referral_share=float(rng.uniform(0.3, 0.6)),
                    baseline_mean_degree=float(rng.uniform(10.0, 40.0)),
                )
                groups = []
                for _ in range(2 + round(62 * k / top)):
                    size = float(10.0 ** rng.uniform(4.0, 7.0))
                    if rng.random() < 0.5:
                        dist = Poisson(float(rng.uniform(0.5, 50.0)))
                    else:
                        dist = Degenerate(int(rng.integers(0, 51)))
                    groups.append(GroupSpec(size, dist))
                phi_level = (k + 7 * block) % self.LEVELS
                df_level = (3 * k + 11 * block) % self.LEVELS
                self.economies.append({
                    "targets": targets,
                    "phi": float(10.0 ** (-3.0 + 3.0 * phi_level / top)),
                    "d_f": round(40 * df_level / top),
                    "groups": tuple(groups),
                    "restarts": self.RESTARTS if block == 0 else 0,
                    "perm": rng.permutation(len(groups)),
                })

    def _solve(self, econ: dict):
        """One op: calibrate the economy, then solve it."""
        rm = self.rm
        params = replace(rm["calibration"].calibrate(econ["targets"]), phi=econ["phi"], d_f=econ["d_f"])
        config = rm["solver"].SolverConfig(multistart=econ["restarts"])
        if econ["restarts"]:
            return params, rm["solver"].solve_all(params, econ["groups"], config)
        return params, [rm["solver"].solve_equilibrium(params, econ["groups"], config)]

    def run_pass(self, ops: Ops) -> tuple[float, list]:
        results, op_ms = [], []
        for econ in self.economies:
            out, ms = ops.call(self._solve, econ)
            results.append(out)
            op_ms.append(ms)
        first = self.first_u is None
        if first:
            self.first_u = [None] * len(self.economies)
        for i, (econ, out) in enumerate(zip(self.economies, results)):
            if out is not None:
                problems = self._check(*out, econ, i, first)
                if problems:
                    ops.mark_wrong(problems)
        return sum(t for t in op_ms if t is not None) / 1e3, op_ms

    def _check(self, params, eqs: list, econ: dict, i: int, first: bool) -> list[str]:
        problems = []
        for eq in eqs:
            flow, entry = oracles.steady_state_errors(params, econ["groups"], eq)
            if not flow < oracles.FLOW_TOL:
                problems.append(f"economy {i}: flow residual {flow:.3e}")
            if not entry < oracles.ENTRY_TOL:
                problems.append(f"economy {i}: |r V| = {entry:.3e}")
        u = np.array([s.u for s in eqs[0].groups])
        if first:
            # Solving the same groups in another order must give the same
            # steady state.  Later passes must repeat this pass's answer.
            perm = econ["perm"]
            swapped = self.rm["solver"].solve_equilibrium(
                params, tuple(econ["groups"][j] for j in perm))
            u_perm = np.empty_like(u)
            u_perm[perm] = [s.u for s in swapped.groups]
            gap = float(np.max(np.abs(u - u_perm)))
            if not gap < oracles.PERMUTATION_TOL:
                problems.append(f"economy {i}: permuting groups moves u by {gap:.3e}")
            self.first_u[i] = u
        elif self.first_u[i] is not None:
            gap = float(np.max(np.abs(u - self.first_u[i])))
            if not gap < oracles.PERMUTATION_TOL:
                problems.append(f"economy {i}: u moved {gap:.3e} since the first pass")
        return problems

    def teardown(self) -> None:
        pass


class MonteCarlo:
    """``estimate_referral_rate`` for three degree laws at the baseline context.

    10^5 workers keep each stub array near 18 MB (inside a large L3);
    10^6 workers make it about 180 MB.  Trials are 10^5 at both sizes.
    Only the Poisson law runs at 10^6 workers.  A regular network of
    that size takes the same path at the same cost and would halve the
    repeats a run can make.  A Zipf one has a stub total so heavy tailed
    that one seed in a hundred needs over 30 million stubs (1.2 GB of
    stub arrays) and the largest of 300 seeds needed 109 million
    (4.4 GB).  Even at 10^5 workers the 99th percentile of the Zipf stub
    total is 7 times its median, so Poisson and regular run twice there,
    on two networks, and the median op is not the Zipf one.  The
    network seeds come from the benchmark seed, so every pass repeats
    the same six estimates.
    """

    name = "montecarlo"
    RUNS = (("poisson", 100_000), ("regular", 100_000), ("poisson", 100_000),
            ("regular", 100_000), ("zipf", 100_000), ("poisson", 1_000_000))
    TRIALS = 100_000
    MEAN_DEGREE = 22.47
    Z_LIMIT = 5.0

    def __init__(self, seed: int, workdir: str):
        self.seeds = np.random.default_rng([seed, 2]).integers(0, 2**31, size=len(self.RUNS))

    def setup(self, rm) -> None:
        # What `refmatch simulate` does before its estimates: calibrate,
        # solve the two-group Poisson baseline, read off the context.
        self.rm = rm
        deg = rm["degree"]
        params = rm["calibration"].calibrate()
        groups = (rm["model"].GroupSpec(1e6, deg.Poisson(self.MEAN_DEGREE)),) * 2
        baseline = rm["solver"].solve_equilibrium(params, groups)
        g = baseline.groups[0]
        families = {
            "poisson": deg.Poisson(self.MEAN_DEGREE),
            "regular": deg.Degenerate(int(self.MEAN_DEGREE)),
            "zipf": deg.Zipf(deg.zipf_alpha_for_mean(self.MEAN_DEGREE)),
        }
        self.reference = {f: d.referral_expectation(g.P) for f, d in families.items()}
        self.configs = [
            (fam, rm["simulate"].SimConfig.at_context(
                families[fam], u_i=g.u, u=baseline.u, v=baseline.v, phi=params.phi,
                d_f=params.d_f, n_workers=n, n_trials=self.TRIALS, seed=int(seed)))
            for (fam, n), seed in zip(self.RUNS, self.seeds)
        ]

    def run_pass(self, ops: Ops) -> tuple[float, list]:
        estimate = self.rm["simulate"].estimate_referral_rate
        results, op_ms = [], []
        for _, config in self.configs:
            est, ms = ops.call(estimate, config)
            results.append(est)
            op_ms.append(ms)
        for (fam, config), est in zip(self.configs, results):
            if est is None:
                continue
            z = est.z_score(self.reference[fam])
            if not abs(z) < self.Z_LIMIT:
                ops.mark_wrong([f"{fam} n={config.n_workers}: z = {z:+.2f} against referral_expectation"])
        return sum(t for t in op_ms if t is not None) / 1e3, op_ms

    def teardown(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Reproduce, SolveGrid, MonteCarlo)}
