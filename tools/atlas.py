"""Solve a seeded scan of ROADMAP item 10's box and summarise the outcomes.

Economy i (i = FIRST .. FIRST + COUNT - 1) is drawn from
``np.random.default_rng([20261019, i])`` in the box of
``tests/test_solver.py::_economies``: delta, eta, gamma, beta, c, b and r
uniform on their ranges, phi 0, 1 or U(0, 1) evenly, d_f one of 0, 1, 4,
16 and 50, and 1-5 degree laws plus an equal copy of one of them, in a
random order, on groups of sizes U(1, 1e7).  Each law is Zipf(U(2.05, 4))
with probability 0.1, else Poisson(U(0.5, 50)) or Degenerate(0-50)
evenly.  Each economy is solved once from the default start with the
refmatch of DIR/src (default: this checkout).  Prints the count of each
outcome (converged, corner, cycle, step cap, other error), the quantiles
of the converged solves' outer steps, the 5 slowest solves, and one
SHA-256 over (i, the bits of each u_i, the bits of v) of the converged
solves, which is equal for two checkouts exactly when they converge on
the same economies to the same floats.
Usage: python tools/atlas.py FIRST COUNT [--checkout DIR]
"""

import argparse
import hashlib
import sys
import time
from dataclasses import replace
from pathlib import Path

OUTCOMES = ("converged", "corner", "cycle", "step cap", "other error")


def economy(rm, np, i: int):
    rng = np.random.default_rng([20261019, i])
    u = rng.uniform
    params = rm.ModelParams(
        delta=u(0.001, 0.9), eta=u(0.01, 1.0), gamma=u(0.01, 3.0), beta=u(0.0, 0.99),
        c=u(0.1, 40.0), b=u(0.01, 0.95), r=u(0.001, 0.2),
        phi=(0.0, 1.0, u())[int(rng.integers(3))], d_f=int(rng.choice((0, 1, 4, 16, 50))))
    laws = [rm.Zipf(u(2.05, 4.0)) if rng.random() < 0.1
            else rm.Poisson(u(0.5, 50.0)) if rng.random() < 0.5
            else rm.Degenerate(int(rng.integers(0, 51))) for _ in range(int(rng.integers(1, 6)))]
    laws.append(replace(laws[int(rng.integers(len(laws)))]))  # equal, not the same object
    return params, [rm.GroupSpec(u(1.0, 1e7), laws[j]) for j in rng.permutation(len(laws))]


def outcome(rm, exc: Exception) -> str:
    text = str(exc) if isinstance(exc, rm.ConvergenceError) else ""
    return ("corner" if "no-market corner" in text else "cycle" if "outer iterate" in text
            else "step cap" if "no convergence after" in text else "other error")


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__,
                                  formatter_class=argparse.RawTextHelpFormatter)
    cli.add_argument("first", type=int)
    cli.add_argument("count", type=int)
    cli.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = cli.parse_args()
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    import numpy as np
    import refmatch as rm

    counts, steps, runs, digest = dict.fromkeys(OUTCOMES, 0), [], [], hashlib.sha256()
    for i in range(args.first, args.first + args.count):
        params, groups = economy(rm, np, i)
        start = time.perf_counter()
        try:
            eq = rm.solve_equilibrium(params, groups)
        except Exception as exc:  # the outcome is what is counted
            kind, n = outcome(rm, exc), getattr(exc, "iterations", None)
        else:
            kind, n = "converged", eq.iterations
            steps.append(n)
            digest.update(np.array([i], np.int64).tobytes()
                          + np.array([g.u for g in eq.groups] + [eq.v]).tobytes())
        runs.append((time.perf_counter() - start, i, kind, n))
        counts[kind] += 1
    print(f"economies {args.first}..{args.first + args.count - 1}, refmatch from {args.checkout}")
    print("  ".join(f"{k} {n}" for k, n in counts.items()))
    if steps:
        q = np.quantile(steps, (0.0, 0.5, 0.9, 0.99, 1.0), method="inverted_cdf")
        print("converged steps: " + "  ".join(f"{p} {int(x)}" for p, x in
                                              zip(("min", "p50", "p90", "p99", "max"), q)))
    for wall, i, kind, n in sorted(runs, reverse=True)[:5]:
        print(f"slow: economy {i} {wall:.3f} s, {kind}, {n} steps")
    print(f"total {sum(r[0] for r in runs):.1f} s; converged digest {digest.hexdigest()}")
