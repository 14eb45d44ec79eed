"""The documented API: the README quick start runs, and the exports stay as documented."""

import pkgutil
import re
from pathlib import Path

import refmatch

README = Path(__file__).resolve().parents[1] / "README.md"

# What the README says ``refmatch`` exports: the names for building,
# calibrating and solving an economy and for catching its errors.
DOCUMENTED_API = [
    "ModelParams", "GroupSpec", "Equilibrium",
    "Poisson", "Degenerate", "Zipf", "zipf_alpha_for_mean",
    "SolverConfig", "ConvergenceError", "solve_equilibrium", "solve_all",
    "CalibrationTargets", "CalibrationError", "calibrate",
    "gini", "social_welfare",
]


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\s+```python\n(.*?)```", text, re.DOTALL).group(1)
    exec(compile(block, f"{README.name} quick start", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3  # two groups, then v and Gini


def test_exports_match_documented_api():
    assert sorted(refmatch.__all__) == sorted(DOCUMENTED_API)
    assert len(refmatch.__all__) == len(DOCUMENTED_API)
    # A stale __all__ entry anywhere makes a star import fail.
    for module in pkgutil.iter_modules(refmatch.__path__):
        if module.name != "__main__":
            exec(f"from refmatch.{module.name} import *", {})
