"""Sweep runners, the CSV contract, and the embedded reference checks."""

import gc
import io
import math
import sys

import pytest

from refmatch import Zipf, cli, experiments
from refmatch.experiments import (
    CSV_HEADER,
    DF_GRID,
    SCENARIOS,
    STRUCTURE_MEAN_GRID,
    SweepResult,
    SweepRow,
    check_df,
    check_phi,
    check_structure,
    check_table2,
    equilibrium_rows,
    reference_checks,
    run_df_sweep,
    run_phi_sweep,
    run_structure_sweeps,
    run_table2,
    summary_report,
)


class TestCsvContract:
    def test_header_and_shape(self, table2_result):
        text = table2_result.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[0] == (
            "scenario,axis_value,group,u,w,p_market,p_referral,P_i,S,gini,sw,v"
        )
        assert len(lines) == 1 + 6  # three scenarios x two groups
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(CSV_HEADER)
            float(fields[1])
            assert fields[2] in ("1", "2")
            for x in fields[3:]:
                float(x)

    def test_ten_significant_digits(self, table2_result):
        first = table2_result.to_csv_text().strip().split("\n")[1].split(",")
        # u at the published comparison has no short exact representation,
        # so the 10-significant-digit format yields 10 mantissa digits
        mantissa = first[3].replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) == 10

    def test_deterministic_output(self):
        a = run_table2().to_csv_text()
        b = run_table2().to_csv_text()
        assert a == b

    def test_write_to_path(self, tmp_path, table2_result):
        out = tmp_path / "rows.csv"
        table2_result.write_csv(out)
        assert out.read_text().startswith("scenario,")


class TestScenarioTable:
    def test_table_order_is_row_order(self, table2_result, structure_result,
                                      df_result, phi_result):
        results = (table2_result, structure_result, df_result, phi_result)
        scenarios = [r.scenario for result in results for r in result.rows]
        assert list(dict.fromkeys(scenarios)) == list(SCENARIOS)

    def test_solves_and_alpha_fits_per_runner(self, monkeypatch, baseline_eq):
        # each distinct economy of a runner is one solve (phi_fine repeats
        # phi = 0.1 and 0.3, solved 22 times before); the common-mean
        # d_f/phi economy's Zipf scale parameter is fitted once, not once per
        # grid point
        calls = {"solve": 0, "fit": 0}
        fit = experiments.zipf_alpha_for_mean

        def fake_solve(params, groups):
            calls["solve"] += 1
            return baseline_eq

        def counting_fit(mean):
            calls["fit"] += 1
            return fit(mean)

        monkeypatch.setattr(experiments, "solve_equilibrium", fake_solve)
        monkeypatch.setattr(experiments, "zipf_alpha_for_mean", counting_fit)
        for run, solves, fits in ((run_table2, 3, 2), (run_structure_sweeps, 18, 0),
                                  (run_df_sweep, 9, 1), (run_phi_sweep, 20, 1)):
            calls.update(solve=0, fit=0)
            experiments._common_mean_alpha.cache_clear()
            run()
            assert (calls["solve"], calls["fit"]) == (solves, fits), run.__name__


class TestZipfLawLifetime:
    """A Zipf law keeps the zeta(alpha) and Wood table it has built; no module may keep such a law."""

    def test_common_mean_groups_are_new_on_each_call(self):
        first, second = experiments._common_mean_groups(), experiments._common_mean_groups()
        assert isinstance(first[1].dist, Zipf)
        assert first[1].dist is not second[1].dist and first[1].dist == second[1].dist

    def test_no_law_with_blocks_reachable_after_reproduce_all(self, tmp_path):
        assert cli.main(["reproduce-all", "--outdir", str(tmp_path)], out=io.StringIO()) == 0
        assert _reachable_laws_with_tables() == []

    def test_walk_finds_a_law_left_reachable(self, monkeypatch):
        # Positive control: a law that has built its table, kept a few
        # levels down from a refmatch module, is found by the same walk.
        groups = experiments._common_mean_groups()
        law = groups[1].dist
        law.referral_expectation(1e-3)
        monkeypatch.setattr(experiments, "_kept_economy", {"groups": [groups]}, raising=False)
        assert _reachable_laws_with_tables() == [law]


def _reachable_laws_with_tables() -> list[Zipf]:
    """Zipf laws holding a Wood table that the refmatch modules reach
    without passing through another module or its globals (a function's
    __globals__)."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "refmatch"]
    others = [m for m in sys.modules.values() if m not in modules]
    seen = {id(m) for m in others} | {id(getattr(m, "__dict__", None)) for m in others}
    stack, kept = list(modules), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Zipf) and "_table" in obj.__dict__:
            kept.append(obj)
        stack.extend(gc.get_referents(obj))
    return kept


class TestTable2:
    def test_scenarios_and_ordering(self, table2_result):
        assert [r.scenario for r in table2_result.rows] == (
            ["er"] * 2 + ["regular"] * 2 + ["scale_free"] * 2
        )
        assert [r.axis_value for r in table2_result.rows] == [15.0, 30.0] * 3

    def test_published_unemployment_and_wages(self, table2_result):
        er = table2_result.rows_for("er")
        assert abs(er[0].u - 0.0510) < 0.0005
        assert abs(er[1].u - 0.0394) < 0.0005
        assert abs(er[0].w - 0.581) < 0.002
        assert abs(er[1].w - 0.615) < 0.002
        reg = table2_result.rows_for("regular")
        assert abs(reg[0].u - 0.0508) < 0.0005
        assert abs(reg[1].u - 0.0393) < 0.0005
        sf = table2_result.rows_for("scale_free")
        assert abs(sf[0].u - 0.0814) < 0.001
        assert abs(sf[1].u - 0.0810) < 0.001

    def test_published_inequality_and_welfare(self, table2_result):
        er = table2_result.rows_for("er")[0]
        sf = table2_result.rows_for("scale_free")[0]
        assert abs(er.gini - 1.45e-2) <= 0.10 * 1.45e-2
        assert abs(er.sw - 0.685) < 0.003
        assert abs(sf.gini - 2.31e-4) <= 0.50 * 2.31e-4
        assert abs(sf.sw - 0.627) < 0.003

    def test_all_reference_checks(self, table2_result):
        outcomes = check_table2(table2_result)
        failed = [c.name for c in outcomes if not c.passed]
        assert failed == []


class TestStructureSweep:
    def test_gap_zero_at_degree_zero(self, structure_result):
        rows = [r for r in structure_result.rows_for("er_vs_regular") if r.axis_value == 0.0]
        assert rows[0].u == rows[1].u
        assert rows[0].gini == 0.0

    def test_er_group_weakly_disadvantaged(self, structure_result):
        by_axis = {}
        for r in structure_result.rows_for("er_vs_regular"):
            by_axis.setdefault(r.axis_value, {})[r.group] = r.u
        for axis, us in by_axis.items():
            assert us[1] >= us[2] - 1e-12, f"mean degree {axis}"

    def test_inequality_peak_at_mean_degree_25(self, structure_result):
        # the Gini curve of the two-structure economy peaks exactly at the
        # 25 grid point; the raw unemployment gap peaks earlier (~10) on a
        # very flat plateau -- both series are emitted
        ginis = structure_result.series("er_vs_regular", "gini")
        assert max(ginis, key=lambda kv: kv[1])[0] == 25.0
        gaps = [
            (ue[0], ue[1] - ur[1])
            for ue, ur in zip(
                structure_result.series("er_vs_regular", "u", group=1),
                structure_result.series("er_vs_regular", "u", group=2),
            )
        ]
        assert max(gaps, key=lambda kv: kv[1])[0] == 10.0

    def test_scale_free_disadvantage_for_heavy_tails(self, structure_result):
        er = dict(structure_result.series("er_vs_scale_free", "u", group=1))
        sf = dict(structure_result.series("er_vs_scale_free", "u", group=2))
        for alpha in (2.028, 2.05, 2.1, 2.3, 2.5):
            assert sf[alpha] > er[alpha], f"alpha {alpha}"

    def test_check_outcomes(self, structure_result):
        outcomes = {c.name: c for c in check_structure(structure_result)}
        assert outcomes["structure gap zero at degree 0"].passed
        assert outcomes["structure gini argmax within one grid step of 25"].passed
        # known discrepancy: the raw u-gap peaks near 10, not 25
        assert not outcomes["structure u-gap argmax within one grid step of 25"].passed


class TestDfSweep:
    def test_equality_without_job_network(self, df_result):
        rows = [r for r in df_result.rows_for("df") if r.axis_value == 0.0]
        assert rows[0].u == rows[1].u
        assert rows[0].gini == 0.0

    def test_monotone_inequality_and_welfare(self, df_result):
        outcomes = {c.name: c for c in check_df(df_result)}
        assert all(c.passed for c in outcomes.values()), outcomes


class TestPhiSweep:
    def test_no_referrals_no_inequality(self, phi_result):
        rows = [r for r in phi_result.rows_for("phi") if r.axis_value == 0.0]
        assert rows[0].u == rows[1].u
        assert rows[0].gini == 0.0

    def test_welfare_monotone_and_peak_located(self, phi_result):
        outcomes = {c.name: c for c in check_phi(phi_result)}
        assert all(c.passed for c in outcomes.values()), outcomes

    def test_metadata_notes_grid_peculiarity(self, phi_result):
        assert any("0.408" in note for note in phi_result.notes)


class TestRowEmission:
    def test_rows_require_verified_equilibrium(self, baseline_eq):
        rows = equilibrium_rows("x", (1.0, 2.0), baseline_eq)
        assert [r.axis_value for r in rows] == [1.0, 2.0]
        from dataclasses import replace

        broken = replace(baseline_eq, residual=1.0)
        with pytest.raises(RuntimeError):
            equilibrium_rows("x", (1.0, 1.0), broken)

    def test_one_axis_value_per_group(self, baseline_eq):
        with pytest.raises(ValueError):
            equilibrium_rows("x", (1.0,), baseline_eq)


def _row(scenario: str, x: float, group: int, **values) -> SweepRow:
    """A hand-made CSV row: ``values`` over a fixed, unremarkable economy."""
    base = dict(u=0.05, w=0.6, p_market=0.3, p_referral=0.3, P_i=0.01, S=10.0,
                gini=0.0, sw=0.6, v=0.04)
    return SweepRow(scenario=scenario, axis_value=float(x), group=group, **{**base, **values})


class TestCheckKinds:
    """Each kind of reference check at its edges, on hand-built rows (no solves)."""

    @pytest.mark.parametrize("dip, passed", [(5e-13, True), (1e-11, False)])
    def test_nondecreasing_allows_a_1e_12_dip(self, dip, passed):
        ginis = (0.0, 0.01, 0.01 - dip, 0.02)
        rows = [_row("df", x, g, gini=gi) for x, gi in zip(DF_GRID, ginis) for g in (1, 2)]
        outcomes = {c.name: c for c in check_df(SweepResult(rows, []))}
        gini_check = outcomes["df sweep gini nondecreasing"]
        assert gini_check.passed is passed
        assert gini_check.detail == "gini from 0.000e+00 to 2.000e-02"
        assert outcomes["df sweep welfare nondecreasing"].passed

    def test_relative_tolerance_holds_at_its_bound(self):
        # Half the published 2.31e-4 is off by exactly 0.5 * 2.31e-4 (both
        # steps are exact in binary), the bound of that relative check.
        want = 2.31e-4
        for got, passed in ((want / 2, True), (math.nextafter(want / 2, 0.0), False)):
            rows = [_row(scenario, m, g, gini=got)
                    for scenario in ("er", "regular", "scale_free")
                    for g, m in ((1, 15.0), (2, 30.0))]
            outcomes = {c.name: c for c in check_table2(SweepResult(rows, []))}
            check = outcomes["table2 scale_free gini"]
            assert check.passed is passed
            assert check.detail.endswith(", reference 0.000231 (relative tolerance 0.5)")

    @pytest.mark.parametrize("peak, passed", [(20, True), (30, True), (15, False), (35, False)])
    def test_argmax_within_one_grid_step_of_25(self, peak, passed):
        rows = []
        for m in STRUCTURE_MEAN_GRID:
            gap = 1e-3 / (1 + abs(m - peak)) if m else 0.0
            rows += [_row("er_vs_regular", m, 1, u=0.05 + gap, gini=gap),
                     _row("er_vs_regular", m, 2, u=0.05, gini=gap)]
        outcomes = {c.name: c for c in check_structure(SweepResult(rows, []))}
        assert outcomes["structure gap zero at degree 0"].passed
        for kind in ("u-gap", "gini"):
            check = outcomes[f"structure {kind} argmax within one grid step of 25"]
            assert check.passed is passed
            assert check.detail == f"argmax at mean degree {peak} (grid step 5)"


class TestSummaryReport:
    def test_report_lines(self, calibrated_params, baseline_eq, table2_result,
                          structure_result, df_result, phi_result):
        checks = reference_checks(calibrated_params, baseline_eq, table2_result,
                                  structure_result, df_result, phi_result)
        report = summary_report(checks, notes=["note one"])
        lines = report.strip().split("\n")
        assert any(line.startswith("PASS calibration gamma") for line in lines)
        assert any("reference checks passed" in line for line in lines)
        assert "- note one" in lines
        # exactly two known-failing reference checks: the published mean
        # degree at the heaviest tail, and the u-gap peak location
        failing = [c.name for c in checks if not c.passed]
        assert failing == [
            "zipf mean alpha=2.028",
            "structure u-gap argmax within one grid step of 25",
        ]
