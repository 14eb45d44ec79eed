"""Compare the Monte Carlo referral estimates of two checkouts in distribution.

Seeded estimates change whenever the estimator draws differently, so
this compares their distribution, not their values.  For each degree
family of ``refmatch simulate`` (Poisson, regular and Zipf at the common
mean degree) at the baseline context, runs SEEDS seeded estimates of
WORKERS workers x TRIALS trials with the refmatch of this checkout and
with that of CHECKOUT, each in a subprocess that imports the package
from its checkout's src/.  Prints, per family and side, the mean and
standard deviation of z against ``referral_expectation``; then, per
family, the gap between the two sides' mean z in standard errors, and
how many seeds give the same estimate bit for bit on both sides (all
of them when a change keeps every draw).  Exits 1 if a family's mean z
differs between the sides by more than 4 standard errors.
Usage: python tools/mc_diff.py CHECKOUT
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SEEDS, WORKERS, TRIALS = 200, 10_000, 10_000
LIMIT = 4.0


def emit() -> None:
    """Child side: one JSON line per family: its estimates and the mean and sd of their z."""
    import numpy as np

    import refmatch as rm
    from refmatch.calibration import baseline_groups
    from refmatch.experiments import COMMON_MEAN_DEGREE
    from refmatch.simulate import SimConfig, estimate_referral_rate

    params = rm.calibrate()
    baseline = rm.solve_equilibrium(params, baseline_groups())
    g = baseline.groups[0]
    families = {"poisson": rm.Poisson(COMMON_MEAN_DEGREE),
                "regular": rm.Degenerate(int(COMMON_MEAN_DEGREE)),
                "zipf": rm.Zipf(rm.zipf_alpha_for_mean(COMMON_MEAN_DEGREE))}
    for fam, dist in families.items():
        target = dist.referral_expectation(g.P)
        estimates, z = [], []
        for seed in range(SEEDS):
            config = SimConfig.at_context(dist, u_i=g.u, u=baseline.u, v=baseline.v,
                                          phi=params.phi, d_f=params.d_f, n_workers=WORKERS,
                                          n_trials=TRIALS, seed=seed)
            est = estimate_referral_rate(config)
            estimates.append(est.estimate)
            z.append(est.z_score(target))
        row = {"family": fam, "estimates": estimates,
               "mean_z": float(np.mean(z)), "sd_z": float(np.std(z, ddof=1))}
        print(json.dumps(row), flush=True)


def run_in(root: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, __file__, "--emit"], env=env, check=True,
                          capture_output=True, text=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        emit()
        sys.exit(0)
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    ours = run_in(Path(__file__).resolve().parents[1])
    theirs = run_in(Path(sys.argv[1]).resolve())
    print(f"{SEEDS} seeds x {WORKERS} workers x {TRIALS} trials per family")
    print(f"{'family':<8} {'side':<9} {'mean z':>8} {'sd z':>7}")
    differing = 0
    for a, b in zip(ours, theirs):
        for side, row in (("this", a), ("CHECKOUT", b)):
            print(f"{row['family']:<8} {side:<9} {row['mean_z']:>+8.3f} {row['sd_z']:>7.3f}")
        se = math.hypot(a["sd_z"], b["sd_z"]) / math.sqrt(SEEDS)
        gap = (a["mean_z"] - b["mean_z"]) / se
        differing += abs(gap) > LIMIT
        print(f"{a['family']:<8} mean z differs by {gap:+.2f} standard errors")
    print(f"{differing} of {len(ours)} families differ")
    for a, b in zip(ours, theirs):
        same = sum(x == y for x, y in zip(a["estimates"], b["estimates"]))
        print(f"{a['family']:<8} {same} of {SEEDS} seeds give the same estimate bit for bit")
    sys.exit(1 if differing else 0)
