"""Compare the equilibria of two checkouts, economy by economy.

Solves a fixed seeded set of economies with the refmatch of this
checkout and with that of CHECKOUT, each in a subprocess that imports
the package from its checkout's src/:
  - 40 economies of 1-64 Poisson and regular groups at the published
    parameters with phi in [1e-3, 1] and d_f in [0, 40], each group's
    law drawn from a pool of four, so that laws repeat;
  - Poisson-vs-Zipf pairs at the published parameters, one with the
    Zipf law twice, and Poisson vs Zipf(2.028) at phi = 1e-3, whose
    series run over up to 8 blocks;
  - 16 groups on three Zipf laws and one Poisson law;
  - the phi = 0 no-market corner (eta = 0.05, gamma = 0.01), and a
    corner economy at phi = 1 whose iterate reaches the clip and then
    cycles with period 2;
  - an economy that meets flow balance but whose iterate then cycles
    with period 2, never meeting free entry;
  - a phi = 1 economy whose residual rises twice in a row early on,
    where a damping halved on each such pair stalled for 10,000 steps;
  - edge economies with referrals off: d_f = 0, phi = 0 with an interior
    steady state, and a group on Degenerate(0).
Prints, per economy, which of u, v, iterations, P and p_r differ, with
the largest difference in each of u, v, P and p_r, relative and in ulps
(the number of doubles from one value to the other), or, when either
side raises, the two error types and the steps they report; then the
largest of each over every economy, which tells a rounding-level change
(about 1e-16, a few ulps) from a real one.  Floats are compared bit for
bit (float.hex), so -0.0 against 0.0 or a NaN against a number counts as
a difference (0 ulps for the zeros, an infinite count for a NaN).  Each
line also gives both sides' referral-kernel calls per law family (every
call into a law's ``_reach``, checked or not), and the last line their
totals, so a change to the flow solve shows whether it saved kernel
calls or only interpreter time.  Exits 1 if any value or error type
differs; kernel calls do not count.
Usage: python tools/solve_diff.py CHECKOUT
"""

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

FIELDS = ("u", "v", "iterations", "P", "p_r")
VALUES = ("u", "v", "P", "p_r")
FAMILIES = ("Poisson", "Degenerate", "Zipf")


def economies(rm):
    """(name, params, groups) of every economy, the same on both sides."""
    import numpy as np

    rng = np.random.default_rng(20260)
    out = []
    for i, n in enumerate([1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64] * 3 + [2, 5, 9, 64]):
        pool = [rm.Poisson(float(rng.uniform(0.5, 50.0))) if rng.random() < 0.5
                else rm.Degenerate(int(rng.integers(0, 51))) for _ in range(4)]
        groups = [rm.GroupSpec(float(10.0 ** rng.uniform(4.0, 7.0)), pool[int(rng.integers(4))])
                  for _ in range(n)]
        params = rm.ModelParams(phi=float(10.0 ** rng.uniform(-3.0, 0.0)),
                                d_f=int(rng.integers(0, 41)))
        out.append((f"grid{i:02d} ({n} groups)", params, groups))
    for alpha in (2.028, 2.3, 3.0):
        zipf = rm.Zipf(alpha)
        out.append((f"Poisson vs Zipf({alpha})", rm.ModelParams(),
                    [rm.GroupSpec(1e6, rm.Poisson(zipf.mean())), rm.GroupSpec(1e6, zipf)]))
    out.append(("Poisson vs 2 x Zipf(2.3)", rm.ModelParams(),
                [rm.GroupSpec(1e6, rm.Poisson(22.47)), rm.GroupSpec(5e5, rm.Zipf(2.3)),
                 rm.GroupSpec(2e6, rm.Zipf(2.3))]))
    # P falls to about 5e-4, where a Zipf series runs over up to 8 blocks.
    zipf = rm.Zipf(2.028)
    out.append(("Zipf(2.028) at phi = 1e-3", rm.ModelParams(phi=0.001),
                [rm.GroupSpec(1e6, rm.Poisson(zipf.mean())), rm.GroupSpec(1e6, zipf)]))
    pool = [rm.Zipf(2.1), rm.Zipf(2.5), rm.Zipf(3.5), rm.Poisson(15.0)]
    out.append(("16 groups, 3 Zipf + Poisson", rm.ModelParams(),
                [rm.GroupSpec(float(10.0 ** rng.uniform(4.0, 7.0)), pool[i % 4]) for i in range(16)]))
    out.append(("phi = 0 corner", rm.ModelParams(eta=0.05, gamma=0.01, phi=0.0),
                [rm.GroupSpec(1.0, rm.Poisson(22.47))]))
    corner = rm.ModelParams(b=0.0595130817476952, r=0.11943165448064004, delta=0.3287231885500706,
                            eta=1 / 3, gamma=0.01, beta=0.9276375421277745, c=38.83597263090465,
                            phi=1.0, d_f=4)
    out.append(("phi = 1 corner", corner,
                [rm.GroupSpec(1.0, rm.Poisson(lam))
                 for lam in (0.5, 0.5, 38.83597263090465, 41.21123044467842)]))
    cycle = rm.ModelParams(b=0.5459275321952658, r=0.14334393296201056, delta=0.7674855304027197,
                           eta=0.26143130695909506, gamma=0.5224205259426208,
                           beta=0.9166081335701889, c=32.80730905022276,
                           phi=0.7644998489631071, d_f=16)
    out.append(("period-2 outer cycle", cycle,
                [rm.GroupSpec(4165911.5824667295, rm.Poisson(46.22646571427592)),
                 rm.GroupSpec(30063.438307059034, rm.Degenerate(25)),
                 rm.GroupSpec(52.470296306663435, rm.Poisson(30.211156389029693)),
                 rm.GroupSpec(1231368.2025324712, rm.Poisson(30.211156389029693))]))
    rising = rm.ModelParams(delta=0.1545274005773913, eta=0.03182720133966904,
                            gamma=1.1451909704404253, beta=0.31875818292603086,
                            c=28.81781739360187, b=0.8727085118437508, r=0.11566740155120275,
                            phi=1.0, d_f=4)
    out.append(("phi = 1, residual rising", rising,
                [rm.GroupSpec(382582.2868055708, rm.Poisson(4.316723212089775)),
                 rm.GroupSpec(1040.9206067851467, rm.Degenerate(35)),
                 rm.GroupSpec(1215120.585084422, rm.Poisson(6.485368987893442)),
                 rm.GroupSpec(4535.244481703927, rm.Poisson(5.244280640727932)),
                 rm.GroupSpec(54.8988126920546, rm.Degenerate(24)),
                 rm.GroupSpec(1692.403980695569, rm.Poisson(6.485368987893442))]))
    mixed = [rm.GroupSpec(1e6, rm.Poisson(22.47)), rm.GroupSpec(5e5, rm.Degenerate(16))]
    out.append(("d_f = 0", rm.ModelParams(d_f=0), mixed))
    out.append(("phi = 0 interior", rm.ModelParams(phi=0.0), mixed))
    out.append(("with Degenerate(0)", rm.ModelParams(), mixed + [rm.GroupSpec(2e5, rm.Degenerate(0))]))
    return out


def bits(x) -> str:
    return float(x).hex()


def emit() -> None:
    """Child side: solve every economy and print one JSON line each."""
    import refmatch as rm

    calls = dict.fromkeys(FAMILIES, 0)

    def counted(family, kernel):
        def call(*args):
            calls[family] += 1
            return kernel(*args)
        return call

    for family in FAMILIES:
        law = getattr(rm, family)
        law._reach = counted(family, law._reach)
    for name, params, groups in economies(rm):
        calls.update(dict.fromkeys(FAMILIES, 0))
        try:
            eq = rm.solve_equilibrium(params, groups)
        except Exception as exc:  # the error type is what is compared
            row = {"error": type(exc).__name__, "steps": getattr(exc, "iterations", None)}
        else:
            row = {"u": [bits(g.u) for g in eq.groups], "v": bits(eq.v),
                   "iterations": eq.iterations, "P": [bits(g.P) for g in eq.groups],
                   "p_r": [bits(g.p_referral) for g in eq.groups]}
        print(json.dumps({"name": name, **row, "calls": calls}), flush=True)


def solve_in(root: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, __file__, "--emit"], env=env, check=True,
                          capture_output=True, text=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def ordinal(x: float) -> int:
    """x's position among the doubles: consecutive doubles differ by 1, and -0.0 is 0.0."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def diffs(a, b) -> tuple[float, float]:
    """Largest (relative, ulp) difference between two floats, or two lists of them, given as hex."""
    pairs = [(float.fromhex(x), float.fromhex(y))
             for x, y in (zip(a, b) if isinstance(a, list) else [(a, b)])]
    rel = max(0.0 if x == y else abs(x - y) / max(abs(x), abs(y)) for x, y in pairs)
    ulps = max(math.inf if math.isnan(x) or math.isnan(y) else abs(ordinal(x) - ordinal(y))
               for x, y in pairs)
    return rel, ulps


def kernel_calls(a: dict, b: dict) -> str:
    """Both sides' kernel calls per law family, this checkout's first, for the families called."""
    return ", ".join(f"{f} {a[f]} vs {b[f]}" for f in FAMILIES if a[f] or b[f]) or "none"


def compare(a: dict, b: dict) -> tuple[bool, str, dict]:
    """(differs, description, {field: (relative, ulp) difference}) for one economy.

    ``a`` is this checkout's; the dict is empty unless values were compared.
    """
    if "error" in a or "error" in b:
        kinds = (a.get("error", "no error"), b.get("error", "no error"))
        steps = f"steps {a.get('steps', a.get('iterations'))} vs {b.get('steps', b.get('iterations'))}"
        if kinds[0] != kinds[1]:
            return True, f"error type differs: {kinds[0]} vs {kinds[1]} ({steps})", {}
        return False, f"both raise {kinds[0]} ({steps})", {}
    differing = [f for f in FIELDS if a[f] != b[f]]
    if differing:
        moved = {f: diffs(a[f], b[f]) for f in VALUES}
        sizes = "  ".join(f"{f} {rel:.1e} ({ulps:g} ulp)" for f, (rel, ulps) in moved.items())
        return True, f"differ: {', '.join(differing):<16} max diff {sizes}", moved
    return False, f"same ({a['iterations']} iterations)", {}


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        emit()
        sys.exit(0)
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    ours = solve_in(Path(__file__).resolve().parents[1])
    theirs = solve_in(Path(sys.argv[1]).resolve())
    if [r["name"] for r in ours] != [r["name"] for r in theirs]:
        sys.exit("the two checkouts solved different lists of economies")
    differing, largest = 0, {f: (0.0, 0) for f in VALUES}
    for a, b in zip(ours, theirs):
        differs, text, moved = compare(a, b)
        differing += differs
        for f, (rel, ulps) in moved.items():
            largest[f] = (max(largest[f][0], rel), max(largest[f][1], ulps))
        print(f"{a['name']:<28} {text}; kernel calls {kernel_calls(a['calls'], b['calls'])}")
    print(f"{differing} of {len(ours)} economies differ; largest relative difference in u, v, P"
          f" or p_r {max(rel for rel, _ in largest.values()):.3e}; largest in ulps: "
          + ", ".join(f"{f} {ulps:g}" for f, (_, ulps) in largest.items()))
    totals = [{f: sum(r["calls"][f] for r in rows) for f in FAMILIES} for rows in (ours, theirs)]
    print(f"kernel calls, this checkout vs CHECKOUT: {kernel_calls(*totals)};"
          f" in all {sum(totals[0].values())} vs {sum(totals[1].values())}")
    sys.exit(1 if differing else 0)
