"""Regenerate the benchmark's stored oracles.

    python3 perfbench/make_oracles.py golden   # reproduce-all outputs -> perfbench/golden/
    python3 perfbench/make_oracles.py zipf     # mpmath table -> perfbench/oracles/zipf_mpmath.json

Run from the root of a checkout.  The golden copy must come from a
commit whose outputs are trusted (it was taken at the commit that added
the benchmark); the mpmath table depends on nothing in ``src/``.  Neither
is regenerated by the benchmark itself, so its checks never read the
code they judge.
"""

from __future__ import annotations

import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Scale parameters and information probabilities of the Zipf referral
# table: the paper's 2.028, the alpha -> 2+ edge, and lighter tails; P
# from 1e-10 (deep in the cancellation regime of 1 - G(1 - P)) to 1.
ZIPF_ALPHAS = ("2.001", "2.028", "2.3", "3", "5")
ZIPF_PS = (
    "1e-10", "1e-9", "1e-8", "1e-7", "1e-6", "1e-5", "1e-4", "1e-3",
    "0.02", "0.1", "0.5", "0.9", "1",
)
ZIPF_DPS = 40


def make_golden() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from refmatch import cli

    outdir = os.path.join(HERE, "golden")
    rc = cli.main(["reproduce-all", "--outdir", outdir], out=io.StringIO())
    if rc != 0:
        raise SystemExit(f"reproduce-all exited {rc}")


def zipf_referral(alpha: str, p: str):
    """E[1 - (1 - P)^d] for d ~ Zipf(alpha), as an mpmath number.

    1 - Li_a(1 - P) / zeta(a), evaluated at ZIPF_DPS digits so the
    cancellation at small P (about 10 digits at P = 1e-10) leaves 30.
    """
    import mpmath as mp

    # The float the benchmark passes, not the decimal string.
    a, prob = mp.mpf(float(alpha)), mp.mpf(float(p))
    if prob == 1:
        return 1 - mp.polylog(a, 0) / mp.zeta(a)
    return 1 - mp.polylog(a, 1 - prob) / mp.zeta(a)


def make_zipf_table() -> None:
    import mpmath as mp

    mp.mp.dps = ZIPF_DPS
    rows = [
        {"alpha": float(a), "p": float(p), "value": mp.nstr(zipf_referral(a, p), 25)}
        for a in ZIPF_ALPHAS
        for p in ZIPF_PS
    ]
    os.makedirs(os.path.join(HERE, "oracles"), exist_ok=True)
    path = os.path.join(HERE, "oracles", "zipf_mpmath.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"dps": %d, "quantity": "E[1-(1-P)^d], d ~ Zipf(alpha)", "rows": [\n' % ZIPF_DPS)
        fh.write(",\n".join(json.dumps(r) for r in rows))
        fh.write("\n]}\n")


if __name__ == "__main__":
    targets = {"golden": make_golden, "zipf": make_zipf_table}
    if len(sys.argv) != 2 or sys.argv[1] not in targets:
        raise SystemExit(f"usage: make_oracles.py {{{'|'.join(targets)}}}")
    targets[sys.argv[1]]()
