"""Time the cold start of this checkout's commands against CHECKOUT's, in alternating pairs.

CHECKOUT is usually the parent commit, exported with ``git archive``.
Runs ``python -m refmatch reproduce-all`` (into a temporary directory)
and ``python -m refmatch calibrate`` as subprocesses, each importing the
package from its checkout's src/, PAIRS times per command (default 10).
Within a pair the two checkouts run back to back, and which runs first
alternates from pair to pair.  Each side runs every command once,
untimed, before the pairs, so both time a start with bytecode already
cached.  Prints, per command, each side's median wall time in seconds,
CHECKOUT's interquartile range, the relative change of the median and in
how many pairs this checkout was the faster.  A wall time is the whole
subprocess, interpreter start included.  Exits 1 if a command fails.
Usage: python tools/cold_start.py CHECKOUT [PAIRS]
"""

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter


def timed(checkout: Path, argv: list[str]) -> float:
    """Seconds one ``python -m refmatch ARGV`` takes with CHECKOUT's src/ on the path."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = perf_counter()
    subprocess.run([sys.executable, "-m", "refmatch", *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    ours, theirs = Path(__file__).resolve().parents[1], Path(sys.argv[1]).resolve()
    pairs = int(sys.argv[2]) if len(sys.argv) == 3 else 10
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for argv in (["reproduce-all", "--outdir", tmp], ["calibrate"]):
                times = {ours: [], theirs: []}
                for side in times:
                    timed(side, argv)
                for k in range(pairs):
                    for side in ((ours, theirs) if k % 2 else (theirs, ours)):
                        times[side].append(timed(side, argv))
                mine, parent = statistics.median(times[ours]), statistics.median(times[theirs])
                q1, _, q3 = statistics.quantiles(times[theirs], n=4)
                faster = sum(a < b for a, b in zip(times[ours], times[theirs]))
                print(f"{argv[0]:<14} this {mine:.4f} s  parent {parent:.4f} s (IQR {q3 - q1:.4f})"
                      f"  {mine / parent - 1.0:+.1%}  faster in {faster} of {pairs}")
    except subprocess.CalledProcessError as exc:
        sys.exit(f"command failed: {exc}")
