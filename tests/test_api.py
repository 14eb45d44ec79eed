"""The documented API: the README quick start runs, and the exports stay as documented."""

import importlib
import importlib.util
import io
import pkgutil
import re
from pathlib import Path

import pytest

import refmatch
from refmatch import ModelParams, solve_equilibrium
from refmatch.calibration import baseline_groups
from refmatch.cli import load_scenario, main
from refmatch.solver import SolverConfig, _iterate

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

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


def test_readme_config_example_solves(tmp_path):
    # The README's scenario file loads and solves, so it names no removed key.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"### Scenario configuration.*?```json\n(.*?)```", text, re.DOTALL).group(1)
    path = tmp_path / "scenario.json"
    path.write_text(block, encoding="utf-8")
    scenario, _ = load_scenario(path)
    assert scenario.name == "er-vs-scalefree"
    assert main(["solve", "--config", str(path)], out=io.StringIO()) == 0


def test_exports_match_documented_api():
    assert sorted(refmatch.__all__) == sorted(DOCUMENTED_API)
    assert len(refmatch.__all__) == len(DOCUMENTED_API)
    # A stale __all__ entry anywhere makes a star import fail.
    for module in pkgutil.iter_modules(refmatch.__path__):
        if module.name != "__main__":
            exec(f"from refmatch.{module.name} import *", {})


def traced_sites():
    """(span, module, attribute, owner) of every site the benchmark tracer wraps."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(name, *site) for name, sites in spans.SITES.items() for site in sites]


# The names the reproduce workload times its solves through (perfbench/workloads.py).
WORKLOAD_SITES = [
    ("reproduce.solve", module, "solve_equilibrium", "module")
    for module in ("calibration", "experiments", "cli")
]


@pytest.mark.parametrize("span, module, attr, owner", traced_sites() + WORKLOAD_SITES)
def test_traced_site_resolves(span, module, attr, owner):
    target = importlib.import_module(f"refmatch.{module}")
    if owner != "module":
        target = getattr(target, owner)
    assert callable(getattr(target, attr)), span


def test_iterate_reports_iterations_at_index_3():
    # The tracer counts outer iterations from _iterate's return value.
    params, groups = ModelParams(), baseline_groups()
    assert _iterate(params, groups, SolverConfig())[3] == solve_equilibrium(params, groups).iterations
