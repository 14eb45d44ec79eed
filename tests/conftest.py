import pytest

from refmatch import (
    calibrate,
    run_df_sweep,
    run_phi_sweep,
    run_structure_sweeps,
    run_table2,
    solve_equilibrium,
)
from refmatch.calibration import baseline_groups


@pytest.fixture(scope="session")
def calibrated_params():
    return calibrate()


@pytest.fixture(scope="session")
def baseline_eq(calibrated_params):
    return solve_equilibrium(calibrated_params, baseline_groups())


@pytest.fixture(scope="session")
def table2_result():
    return run_table2()


@pytest.fixture(scope="session")
def structure_result():
    return run_structure_sweeps()


@pytest.fixture(scope="session")
def df_result():
    return run_df_sweep()


@pytest.fixture(scope="session")
def phi_result():
    return run_phi_sweep()
