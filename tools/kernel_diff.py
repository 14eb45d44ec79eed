"""Compare the referral kernels of two checkouts, value by value.

Loads src/refmatch/degree.py from this checkout and from CHECKOUT and
evaluates referral_expectation for Poisson, regular and Zipf laws on a
fixed grid of information probabilities P from 5e-324 to 1, each law
made fresh on either side.  Prints, per law, how many values differ, the
largest relative difference over P >= 1e-3 (where the Zipf kernel is
accurate to 3e-10, so a difference there is a real change) and over the
whole grid (where a Zipf law's values at P < 1e-15 are rounding noise on
both sides), and exits 1 if any value differs.
Usage: python tools/kernel_diff.py CHECKOUT
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

FAMILIES = (
    [("Poisson", lam) for lam in (0.5, 22.47, 50.0)]
    + [("Degenerate", k) for k in (0, 1, 16, 50)]
    + [("Zipf", alpha) for alpha in (2.0000001, 2.001, 2.028, 2.3, 3, 5.0, 7.0)]
)
# 150 values: the subnormal floor, 1 - P rounding to 1, then P in [1e-16, 1].
GRID = sorted({5e-324, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-17,
               *np.logspace(-16.0, 0.0, 143).tolist()})
ACCURATE_P = 1e-3


def load_degree(root: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, root / "src" / "refmatch" / "degree.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def rel_diff(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    ours = load_degree(Path(__file__).resolve().parents[1], "degree_here")
    theirs = load_degree(Path(sys.argv[1]), "degree_there")
    differing = 0
    print(f"{len(GRID)} values of P per law, each law fresh")
    for family, param in FAMILIES:
        a, b = getattr(ours, family)(param), getattr(theirs, family)(param)
        diffs = [rel_diff(a.referral_expectation(p), b.referral_expectation(p)) for p in GRID]
        count = sum(d > 0 for d in diffs)
        differing += count
        accurate = max(d for d, p in zip(diffs, GRID) if p >= ACCURATE_P)
        label = f"{family}({param})"
        print(f"  {label:<22} differ {count:>4}   max rel diff {accurate:.3e} at P >= "
              f"{ACCURATE_P:g}, {max(diffs):.3e} overall")
    sys.exit(1 if differing else 0)
