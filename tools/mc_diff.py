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
of them when a change keeps every draw).

A side whose estimates build a network (checkouts before every
family's estimate read only its focal workers' stubs) also prints the
network columns: the mean z against each seed's network-exact rate
(the mean over nodes of 1 - (1 - q)^k with k the node's reachable
degree, which the trials estimate without bias), the mean number of
self-loops per node, and the mean and variance of the degrees pooled
over all the seeds' nodes next to the law's own (lam and lam for
Poisson, k and 0 for regular, the mean and inf for Zipf), and, where
both sides build networks, how many seeds give the same stub list (by
SHA-256).  A side that builds none prints "(no network built)" there.
Exits 1 if a family's mean z differs between the sides by more than 4
standard errors.
Usage: python tools/mc_diff.py CHECKOUT
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SEEDS, WORKERS, TRIALS = 200, 10_000, 10_000
LIMIT = 4.0


def emit() -> None:
    """Child side: one JSON line per family: estimates, z and, where built, the network columns."""
    import numpy as np

    import refmatch as rm
    from refmatch import simulate
    from refmatch.calibration import baseline_groups
    from refmatch.experiments import COMMON_MEAN_DEGREE
    from refmatch.simulate import SimConfig, estimate_referral_rate

    # Keep the network each estimate builds, if it builds one, so that it
    # is not built twice.
    build, built = simulate.build_configuration_network, []

    def keep(*args):
        built.append(build(*args))
        return built[-1]

    simulate.build_configuration_network = keep

    params = rm.calibrate()
    baseline = rm.solve_equilibrium(params, baseline_groups())
    g = baseline.groups[0]
    families = {"poisson": rm.Poisson(COMMON_MEAN_DEGREE),
                "regular": rm.Degenerate(int(COMMON_MEAN_DEGREE)),
                "zipf": rm.Zipf(rm.zipf_alpha_for_mean(COMMON_MEAN_DEGREE))}
    for fam, dist in families.items():
        target = dist.referral_expectation(g.P)
        estimates, hashes, z, net_z, loops = [], [], [], [], []
        nodes, degree_sum, square_sum = 0, 0.0, 0.0
        for seed in range(SEEDS):
            config = SimConfig.at_context(dist, u_i=g.u, u=baseline.u, v=baseline.v,
                                          phi=params.phi, d_f=params.d_f, n_workers=WORKERS,
                                          n_trials=TRIALS, seed=seed)
            est = estimate_referral_rate(config)
            estimates.append(est.estimate)
            z.append(est.z_score(target))
            if not built:  # this estimate built no network
                continue
            net = built.pop()  # the estimator's network
            hashes.append(hashlib.sha256(net.stubs.tobytes()).hexdigest())
            reachable = net.reachable_degrees()
            q = config.employment_rate * config.informed_given_employed
            net_z.append(est.z_score(float(np.mean(-np.expm1(reachable * math.log1p(-q))))))
            loops.append(float(np.sum(net.degrees - reachable)) / 2 / WORKERS)
            degrees = net.degrees.astype(float)
            nodes += degrees.size
            degree_sum += float(degrees.sum())
            square_sum += float(np.dot(degrees, degrees))
        row = {"family": fam, "estimates": estimates, "hashes": hashes,
               "mean_z": float(np.mean(z)), "sd_z": float(np.std(z, ddof=1)),
               "law_mean": dist.mean()}
        if nodes:
            mean = degree_sum / nodes
            # A Zipf law of mean above zeta(2) / zeta(3) = 1.37 has alpha < 3.
            law_var = {"poisson": dist.mean(), "regular": 0.0, "zipf": math.inf}[fam]
            row.update(net_z=float(np.mean(net_z)), loops=float(np.mean(loops)),
                       deg_mean=mean, deg_var=square_sum / nodes - mean**2, law_var=law_var)
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
    print(f"{'family':<8} {'side':<9} {'mean z':>8} {'sd z':>7} {'net z':>8} {'loops/node':>11}"
          f" {'deg mean':>9} {'law':>9} {'deg var':>10} {'law':>9}")
    differing = 0
    for a, b in zip(ours, theirs):
        for side, row in (("this", a), ("CHECKOUT", b)):
            network = (f" {row['net_z']:>+8.3f} {row['loops']:>11.3e} {row['deg_mean']:>9.4f}"
                       f" {row['law_mean']:>9.4f} {row['deg_var']:>10.4f} {row['law_var']:>9.4f}"
                       if "net_z" in row else "  (no network built)")
            print(f"{row['family']:<8} {side:<9} {row['mean_z']:>+8.3f} {row['sd_z']:>7.3f}{network}")
        se = math.hypot(a["sd_z"], b["sd_z"]) / math.sqrt(SEEDS)
        gap = (a["mean_z"] - b["mean_z"]) / se
        differing += abs(gap) > LIMIT
        print(f"{a['family']:<8} mean z differs by {gap:+.2f} standard errors")
    print(f"{differing} of {len(ours)} families differ")
    for a, b in zip(ours, theirs):
        same = sum(x == y for x, y in zip(a["estimates"], b["estimates"]))
        nets = (f" and {sum(x == y for x, y in zip(a['hashes'], b['hashes']))} the same stub list"
                if a["hashes"] and b["hashes"] else "")
        print(f"{a['family']:<8} {same} of {SEEDS} seeds give the same estimate{nets} bit for bit")
    sys.exit(1 if differing else 0)
