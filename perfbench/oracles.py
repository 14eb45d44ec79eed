"""Correctness checks that do not call the code they judge.

* ``reproduce``: the CSVs and summary lines of ``reproduce-all`` against
  the golden copy in ``golden/``, taken at the commit that added the
  benchmark.
* ``solve-grid``: the steady-state conditions recomputed here from the
  model's equations (flow balance and free entry), for Poisson and
  regular groups.
* the Zipf referral kernel: the mpmath table in ``oracles/``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
CSV_FILES = ("table2.csv", "structure_sweep.csv", "df_sweep.csv", "phi_sweep.csv")

# CSV floats are printed at 10 significant digits; a change of solver or
# kernel that keeps the answers right moves them by far less than this.
CSV_RTOL = 1e-6
CSV_ATOL = 1e-12
# Summary details are printed at 6 significant digits.
SUMMARY_RTOL = 1e-4
SUMMARY_ATOL = 1e-12

FLOW_TOL = 1e-12
ENTRY_TOL = 1e-8
PERMUTATION_TOL = 1e-10

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def load_golden() -> dict:
    with open(os.path.join(GOLDEN_DIR, "summary.txt"), encoding="utf-8") as fh:
        summary = fh.read().splitlines()
    return {"csv": {name: read_csv(os.path.join(GOLDEN_DIR, name)) for name in CSV_FILES},
            "summary": summary}


def compare_csv(got: list[list[str]], want: list[list[str]], name: str) -> list[str]:
    """Differences between two sweep CSVs: same header, rows, labels; floats within tolerance."""
    if got[:1] != want[:1]:
        return [f"{name}: header {got[:1]} != {want[:1]}"]
    if len(got) != len(want):
        return [f"{name}: {len(got) - 1} rows, golden has {len(want) - 1}"]
    problems = []
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=2):
        if len(g_row) != len(w_row) or g_row[0] != w_row[0] or g_row[2] != w_row[2]:
            problems.append(f"{name}:{i}: labels {g_row[:3]} != {w_row[:3]}")
            continue
        for col, (g, w) in enumerate(zip(g_row, w_row)):
            if col in (0, 2):
                continue
            if not _close(float(g), float(w), CSV_RTOL, CSV_ATOL):
                problems.append(f"{name}:{i}: {want[0][col]} = {g}, golden {w}")
    return problems


def compare_summary(got: list[str], want: list[str]) -> list[str]:
    """Summary lines must match word for word; numbers within SUMMARY_RTOL."""
    if len(got) != len(want):
        return [f"summary: {len(got)} lines, golden has {len(want)}"]
    problems = []
    for g, w in zip(got, want):
        g_nums, w_nums = _NUMBER.findall(g), _NUMBER.findall(w)
        same_text = _NUMBER.sub("#", g) == _NUMBER.sub("#", w)
        same_nums = len(g_nums) == len(w_nums) and all(
            _close(float(a), float(b), SUMMARY_RTOL, SUMMARY_ATOL) for a, b in zip(g_nums, w_nums)
        )
        if not (same_text and same_nums):
            problems.append(f"summary: {g!r} != golden {w!r}")
    return problems


def check_reproduce(outdir: str, golden: dict) -> list[str]:
    problems = []
    for name in CSV_FILES:
        path = os.path.join(outdir, name)
        if not os.path.exists(path):
            problems.append(f"{name} missing")
            continue
        problems += compare_csv(read_csv(path), golden["csv"][name], name)
    with open(os.path.join(outdir, "summary.txt"), encoding="utf-8") as fh:
        problems += compare_summary(fh.read().splitlines(), golden["summary"])
    return problems


def _referral(dist, p_info: float) -> float:
    """E[1 - (1 - P)^d] for a Poisson (``lam``) or regular (``k``) degree law."""
    if hasattr(dist, "lam"):
        return -math.expm1(-dist.lam * p_info)
    if p_info >= 1.0:
        return 1.0 if dist.k > 0 else 0.0
    return -math.expm1(dist.k * math.log1p(-p_info))


def steady_state_errors(params, groups, eq) -> tuple[float, float]:
    """(max |flow residual|, |r V|) of ``eq`` recomputed from the model equations.

    Flow balance: u_i (p_m + p_r,i) = delta (1 - u_i).  Free entry:
    r V = sum_i q_i (1 - beta) S_i - c = 0.
    """
    sizes = np.array([g.size for g in groups], dtype=np.float64)
    u_vec = np.array([s.u for s in eq.groups], dtype=np.float64)
    total = float(sizes.sum())
    u = float(u_vec @ sizes) / total
    v = eq.v
    p_m = params.gamma * (u / v) ** (params.eta - 1.0)
    vacant = v / (1.0 - u + v)
    reach = params.phi * -math.expm1(params.d_f * math.log1p(-vacant))
    flow = entry = 0.0
    for g, u_i, size in zip(groups, u_vec, sizes):
        p_i = p_m + _referral(g.dist, (1.0 - u_i) * reach)
        flow = max(flow, abs(u_i * p_i - params.delta * (1.0 - u_i)))
        s_i = (params.y - params.b) / (params.r + params.delta + params.beta * p_i)
        entry += size * u_i * p_i / (total * v) * (1.0 - params.beta) * s_i
    return flow, abs(entry - params.c)


def load_zipf_table() -> list[tuple[float, float, float]]:
    with open(os.path.join(HERE, "oracles", "zipf_mpmath.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    return [(r["alpha"], r["p"], float(r["value"])) for r in rows]


def zipf_max_rel_err(zipf_cls, table) -> float:
    """Largest relative error of ``Zipf(alpha).referral_expectation(P)`` over the table."""
    worst = 0.0
    for alpha, p, want in table:
        got = zipf_cls(alpha).referral_expectation(p)
        worst = max(worst, abs(got - want) / want)
    return worst
