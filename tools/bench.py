"""Write BENCH_<workload>.json at the root of this checkout from perfbench runs.

For each perfbench workload (or each one named), runs
``perfbench/run.py --workload W --seed SEED --seconds SECONDS`` from the
root of this checkout, once with ``--trace 0`` and once with
``--trace 1``, and writes ``BENCH_<W>.json`` from the records the two
runs leave in ``perfbench/out/``: the untraced run's end-to-end
``metrics``, its ``machine`` (CPU model, ``nproc``, L3, Python and
numpy), ``ops_per_pass``, each op's fastest time in ms in op order
(``op_fastest_ms``, so a change to one op shows) and op counts, and the
traced run's per-layer counts (calls, solves, outer iterations, stubs,
bytes), which explain the time.  Exits 1 if a run fails or reports a
wrong output.
Usage: python tools/bench.py [WORKLOAD ...]
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("reproduce", "solve-grid", "montecarlo")
SEED, SECONDS = 1, 30
COUNT_UNITS = ("count", "B")


def run(workload: str, trace: int) -> dict:
    """One perfbench run; its full record from perfbench/out/."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    if not json.loads(done.stdout.splitlines()[-1])["correct"]:
        sys.exit(f"{workload} --trace {trace}: wrong output\n{done.stdout}")
    record = ROOT / "perfbench" / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


if __name__ == "__main__":
    names = sys.argv[1:] or WORKLOADS
    if not set(names) <= set(WORKLOADS):
        sys.exit(__doc__)
    for name in names:
        plain, traced = run(name, 0), run(name, 1)
        bench = {
            "workload": name, "seed": SEED, "seconds": SECONDS,
            "metrics": plain["metrics"],
            "machine": plain["machine"],
            "ops_per_pass": plain["ops_per_pass"],
            "op_fastest_ms": plain["op_fastest_ms"],
            "ops": {k: plain["ops"][k] for k in ("attempted", "failed")},
            "per_layer_counts": {k: m["value"] for k, m in traced["metrics"].items()
                                 if m["unit"] in COUNT_UNITS},
        }
        out = ROOT / f"BENCH_{name}.json"
        out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
        print(f"{out.name}: wall_s {bench['metrics']['wall_s']['value']:.4g} s, "
              f"{bench['ops_per_pass']} ops per pass, nproc {bench['machine']['nproc']}")
