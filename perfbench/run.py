"""refmatch benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload {reproduce,solve-grid,montecarlo} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
``src/``.  A run sets up several times (``setup_s`` is the median),
then repeats the workload's fixed work until ``--seconds`` have passed
(at least MIN_PASSES times).  Every time is scaled to a reference speed
(see SpeedReference), and each op counts at its fastest repeat.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, which come
from spans recorded around calls into refmatch (see spans.py), plus
``trace.overhead``, the traced over the untraced ``wall_s``.  Spans are
written to ``perfbench/out/spans-<workload>.npz`` and a full record of
the run (machine, every pass, failures) to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.  The last line of
stdout is the JSON result.  See README.md next to this file for why
each workload and metric is there.
"""

import os

# Pin BLAS and OpenMP pools before numpy is imported: one thread, so a
# run measures refmatch and not the host's core count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Ops, allowed_errors  # noqa: E402

# A Zipf network's stub total is heavy tailed: about one seed in 1,700
# asks for over 10^8 stubs, several GB of arrays.  Capping the address
# space makes such an op fail with MemoryError (counted as a crash)
# instead of exhausting a machine shared with others.
ADDRESS_SPACE_CAP = 4 << 30

SETUPS_PER_PASS = 2
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SPAN_LIMIT = 1_000_000
PROBE_PS = (("p1e-8", 1e-8), ("p1e-4", 1e-4), ("p0.02", 0.02), ("p0.5", 0.5), ("p1", 1.0))
PROBE_MEAN_DEGREE = 22.47
# Speed reference: a fixed pure-Python loop, timed before every op and
# around every pass and set-up.  Its fastest run on a quiet 2-vCPU Intel
# Xeon VM (Python 3.11) took REFERENCE_S.
REFERENCE_LOOP = 50_000
REFERENCE_S = 3.5e-3
REFERENCE_AROUND_PASS = 3
MODULES = ("degree", "model", "solver", "calibration", "metrics", "experiments", "simulate", "cli")


def import_refmatch(src: str) -> dict:
    """Import refmatch afresh from ``src`` (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "refmatch" or m.startswith("refmatch.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("refmatch")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SystemExit(f"refmatch imported from {pkg.__file__}, not from {src}")
    return {m: importlib.import_module(f"refmatch.{m}") for m in MODULES}


def machine_info() -> dict:
    info = {
        "cpu_model": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "l3_bytes": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            size = fh.read().strip()
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        info["l3_bytes"] = int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return info


class SpeedReference:
    """Times of a fixed loop that shares the run's CPU but not refmatch's code.

    On a shared 2-vCPU Intel Xeon VM the host ran everything up to 1.55
    times slower for stretches of seconds to minutes, invisibly from
    inside (CPU time equalled wall time).  The loop slows with it.  A time multiplied by
    :meth:`factor_since` -- REFERENCE_S over the loop's fastest run
    around that time -- is the time at reference speed, comparable
    between moments.  refmatch cannot change the loop's speed.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        x = 0
        for i in range(REFERENCE_LOOP):
            x += i * i % 7
        self.samples.append(perf_counter() - t0)

    def mark(self) -> int:
        return len(self.samples)

    def factor_since(self, mark: int) -> float:
        return REFERENCE_S / min(self.samples[mark:])

    def scale(self, passes: list) -> list:
        """Each pass's (wall, op_ms) at reference speed.

        ``passes`` holds (wall, op_ms, mark, calls): ``mark`` indexes the
        REFERENCE_AROUND_PASS samples taken before the pass, followed by
        one per op call and REFERENCE_AROUND_PASS after it.  When each
        timed op is one call, it is scaled by the faster of the samples
        just before and just after it.  Otherwise the timed ops run
        inside one long call, and a sample or two cannot stand for the
        speed of all of them, so the pass is scaled by the fastest
        sample of the whole run, the counterpart of its fastest repeats.
        """
        run_factor = self.factor_since(0)
        out = []
        for wall, op_ms, mark, calls in passes:
            if calls != len(op_ms):
                out.append((wall * run_factor, [None if t is None else t * run_factor for t in op_ms]))
                continue
            first = mark + REFERENCE_AROUND_PASS
            scaled = [
                None if t is None else t * REFERENCE_S / min(self.samples[first + i:first + i + 2])
                for i, t in enumerate(op_ms)
            ]
            done = sum(t for t in op_ms if t is not None)
            out.append((wall * sum(t for t in scaled if t is not None) / done if done else 0.0, scaled))
        return out


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, as numpy.quantile's default."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def probe_kernel(rm: dict) -> dict:
    """Per-call cost of each family's referral_expectation at fixed P."""
    deg = rm["degree"]
    dists = {
        "poisson": deg.Poisson(PROBE_MEAN_DEGREE),
        "regular": deg.Degenerate(int(PROBE_MEAN_DEGREE)),
        "zipf": deg.Zipf(deg.zipf_alpha_for_mean(PROBE_MEAN_DEGREE)),
    }
    out = {}
    for fam, dist in dists.items():
        for label, p in PROBE_PS:
            f = dist.referral_expectation
            calls = 1
            while True:  # size a batch to at least 2 ms
                t0 = perf_counter()
                for _ in range(calls):
                    f(p)
                if perf_counter() - t0 >= 2e-3:
                    break
                calls *= 4
            batches = []
            for _ in range(5):
                t0 = perf_counter()
                for _ in range(calls):
                    f(p)
                batches.append((perf_counter() - t0) / calls)
            out[f"degree.probe.{fam}.us_per_call.{label}"] = statistics.median(batches) * 1e6
    return out


def layer_metrics(summary: dict) -> dict:
    """The per_layer metrics of one traced pass, from tracer.pass_summary()."""
    n, c, lay = summary["names"], summary["counters"], summary["layers"]
    m = {}
    for key in ("degree.poisson", "degree.regular", "degree.zipf", "degree.zeta",
                "degree.polylog", "degree.zipf_alpha_for_mean", "model.vacancy_closure",
                "model.market_arrival", "model.info_probability", "solver.flow_residual"):
        m[f"{key}.calls"] = n[key]["calls"]
        m[f"{key}.time_s"] = n[key]["time_s"]
    solves = n["solver.iterate"]["calls"]
    kernel = sum(n[k]["calls"] for k in ("degree.poisson", "degree.regular", "degree.zipf"))
    m.update({
        "solver.solves": solves,
        "solver.time_s": lay["solver"]["time_s"],
        "solver.self_s": lay["solver"]["self_s"],
        "solver.outer_iters": c["solver.outer_iters"],
        "solver.outer_iters_max": c["solver.outer_iters_max"],
        "solver.kernel_calls_per_solve": kernel / solves if solves else 0.0,
        "solver.convergence_errors": c["solver.convergence_errors"],
        "solver.multistart_distinct": c["solver.multistart_distinct"],
        "calibration.calls": n["calibration.calibrate"]["calls"],
        "calibration.time_s": lay["calibration"]["time_s"],
        "calibration.self_s": lay["calibration"]["self_s"],
        "metrics.calls": sum(v["calls"] for k, v in n.items() if k.startswith("metrics.")),
        "metrics.time_s": lay["metrics"]["time_s"],
        "experiments.rows": c["experiments.rows"],
        "cli.reproduce_all.time_s": n["cli.main"]["time_s"],
        "cli.write_csv.time_s": n["cli.write_csv"]["time_s"],
        "cli.csv_bytes": c["cli.csv_bytes"],
        "simulate.build_network.calls": n["simulate.build_network"]["calls"],
        "simulate.build_network.time_s": n["simulate.build_network"]["time_s"],
        "simulate.estimate.time_s": n["simulate.estimate"]["time_s"],
        "simulate.estimate.self_s": n["simulate.estimate"]["self_s"],
        "simulate.stubs": c["simulate.stubs"],
        "simulate.computed_bytes": c["simulate.computed_bytes"],
    })
    for runner in ("run_table2", "run_structure_sweeps", "run_df_sweep", "run_phi_sweep",
                   "reference_checks"):
        m[f"experiments.{runner}.time_s"] = n[f"experiments.{runner}"]["time_s"]
    build_s = n["simulate.build_network"]["time_s"]
    m["simulate.stubs_per_s"] = c["simulate.stubs"] / build_s if build_s else 0.0
    for layer, v in lay.items():
        m[f"layer.{layer}.self_s"] = v["self_s"]
    return m


def fastest_repeats(passes: list) -> tuple[float, list]:
    """(pass time rebuilt from fastest repeats, each op's fastest repeat in ms).

    Ops are matched by position across passes; a pass a crash cut short
    is left out.  The rest of a pass (its time outside ops) also counts
    at its fastest.
    """
    n = max(len(op_ms) for _, op_ms in passes)
    full = [(wall, op_ms) for wall, op_ms in passes if len(op_ms) == n]
    fastest = []
    for i in range(n):
        times = [op_ms[i] for _, op_ms in full if op_ms[i] is not None]
        if times:
            fastest.append(min(times))
    rest = min(wall - sum(t for t in op_ms if t is not None) / 1e3 for wall, op_ms in full)
    return max(rest, 0.0) + sum(fastest) / 1e3, fastest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "refmatch", "__init__.py")):
        print(f"error: no refmatch sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, hard))
    workdir = os.path.join(root, "perfbench", "out")
    os.makedirs(workdir, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, workdir)
    setup_s: list[float] = []
    reference = SpeedReference()
    ops = Ops((), before_op=reference.sample)
    tracer = spans.Tracer() if args.trace else None
    untraced_raw, traced_raw, layer_passes = [], [], []
    setup_speed: list[float] = []
    start = perf_counter()
    try:
        while True:
            # Setting up before every pass spreads the set-up samples
            # over the run, as the passes are.
            for _ in range(SETUPS_PER_PASS):
                mark = reference.mark()
                reference.sample()
                t0 = perf_counter()
                rm = import_refmatch(src)
                workload.setup(rm)
                setup_s.append(perf_counter() - t0)
                reference.sample()
                setup_speed.append(reference.factor_since(mark))
            ops.allowed_types = allowed_errors(rm)
            traced_pass = tracer is not None and len(untraced_raw) > len(traced_raw)
            mark = reference.mark()
            for _ in range(REFERENCE_AROUND_PASS):
                reference.sample()
            calls = ops.attempted
            if traced_pass:
                restore = spans.install(tracer, rm)
                try:
                    wall, op_ms = workload.run_pass(ops)
                finally:
                    restore()
                layer_passes.append(layer_metrics(tracer.pass_summary()))
                tracer.keep(SPAN_LIMIT)
                tracer.reset()
            else:
                wall, op_ms = workload.run_pass(ops)
            for _ in range(REFERENCE_AROUND_PASS):
                reference.sample()
            (traced_raw if traced_pass else untraced_raw).append(
                (wall, op_ms, mark, ops.attempted - calls))
            if perf_counter() - start < args.seconds:
                continue
            if tracer is None and len(untraced_raw) >= MIN_PASSES:
                break
            if (tracer is not None and len(traced_raw) >= MIN_TRACED_PASSES
                    and len(untraced_raw) == len(traced_raw)):
                break
    finally:
        workload.teardown()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = reference.scale(untraced_raw)
    raw_wall_s, raw_fastest = fastest_repeats([p[:2] for p in untraced_raw])
    wall_s, op_fastest = fastest_repeats(untraced)
    end_to_end = {
        "setup_s": {"value": statistics.median(t * f for t, f in zip(setup_s, setup_speed)),
                    "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "op_p50_ms": {"value": quantile(op_fastest, 0.5) if op_fastest else 0.0, "unit": "ms"},
        "op_p90_ms": {"value": quantile(op_fastest, 0.9) if op_fastest else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    raw = {
        "setup_s": statistics.median(setup_s),
        "wall_s": raw_wall_s,
        "op_p50_ms": quantile(raw_fastest, 0.5) if raw_fastest else 0.0,
        "op_p90_ms": quantile(raw_fastest, 0.9) if raw_fastest else 0.0,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "setup_s": setup_s, "setup_speed_factor": setup_speed,
        "pass_wall_s": [p[0] for p in untraced_raw],
        "pass_speed_factor": [w / p[0] for (w, _), p in zip(untraced, untraced_raw) if p[0]],
        "ops_per_pass": len(op_fastest), "op_fastest_ms": op_fastest,
        "unnormalised": raw, "reference_fastest_s": min(reference.samples),
        "reference_samples": len(reference.samples),
        "ops": {"attempted": ops.attempted, "failed": ops.failed, "allowed_errors": ops.allowed,
                "crashes": ops.crashed, "wrong": ops.wrong, "messages": ops.messages},
        "end_to_end": end_to_end,
    }

    if tracer is None:
        metrics = end_to_end
    else:
        traced_wall_s, _ = fastest_repeats(reference.scale(traced_raw))
        per_layer = {k: statistics.median(p[k] for p in layer_passes) for k in layer_passes[0]}
        per_layer.update(probe_kernel(rm))
        per_layer["degree.probe.zipf.max_rel_err"] = oracles.zipf_max_rel_err(
            rm["degree"].Zipf, oracles.load_zipf_table())
        per_layer["trace.wall_s"] = traced_wall_s
        per_layer["trace.overhead"] = traced_wall_s / wall_s
        per_layer["harness.fail_rate"] = ops.failed / ops.attempted
        per_layer["harness.allowed_errors"] = float(ops.allowed)
        per_layer["harness.crashes"] = float(ops.crashed)
        per_layer["harness.wrong"] = float(ops.wrong)
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in _per_layer_units().items()}
        record["traced_pass_wall_s"] = [p[0] for p in traced_raw]
        record["spans_written"] = tracer.write(os.path.join(workdir, f"spans-{args.workload}.npz"))
        traced_median = statistics.median(p[0] for p in traced_raw)
        record["layer_share_of_traced_pass"] = {
            layer: per_layer[f"layer.{layer}.self_s"] / traced_median for layer in spans.LAYERS
        }
    record["metrics"] = metrics
    result = {
        "correct": ops.wrong == 0 and ops.attempted > ops.failed,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    with open(os.path.join(workdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _print_human(record)
    print(json.dumps(result))
    return 0


def _per_layer_units() -> dict:
    """Name -> unit of every per_layer metric, in BENCHMARK.json order."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def _print_human(record: dict) -> None:
    mach = record["machine"]
    print(f"machine: {mach['cpu_model']}, nproc {mach['nproc']}, L3 {mach['l3_bytes']} B, "
          f"python {mach['python']}, numpy {mach['numpy']}, threads pinned to 1")
    ops = record["ops"]
    print(f"ops: attempted {ops['attempted']}, failed {ops['failed']} "
          f"(allowed errors {ops['allowed_errors']}, crashes {ops['crashes']}, wrong {ops['wrong']})")
    for msg in ops["messages"][:10]:
        print(f"  {msg}")
    factors = record["pass_speed_factor"]
    print(f"speed reference: fastest {record['reference_fastest_s'] * 1e3:.3f} ms of "
          f"{record['reference_samples']}; passes scaled by {min(factors, default=1):.3f}"
          f" to {max(factors, default=1):.3f}")
    print(f"passes: {len(record['pass_wall_s'])} untraced; {record['ops_per_pass']} ops per pass, "
          f"op latency = fastest repeat; {len(record['setup_s'])} set-ups")
    if "layer_share_of_traced_pass" in record:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in record["layer_share_of_traced_pass"].items())
        print(f"self-time share of traced pass: {shares}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
