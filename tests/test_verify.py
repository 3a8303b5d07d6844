"""Built-in invariant registry: the check grid, determinism, coverage, tolerance control."""

import re

import pytest

from spinwire.errors import InvalidDimensionError
from spinwire.verify import CHECKS, CheckResult, run_verification

from support import GRID, check_results

EXPECTED_CHECKS = {
    "spectral_reconstruction",
    "propagator_vs_expm",
    "unitarity_group_symmetry",
    "homogeneous_closed_form",
    "engineered_spectrum_linear",
    "engineered_mirror_profile",
    "polarization_vs_oracle",
    "slater_vs_oracle",
    "mixed_overlap_vs_oracle",
    "logical_channels_vs_oracle",
    "autocorrelation_vs_oracle",
    "dq_parity_rule",
    "engineered_fidelity_mirror",
    "homogeneous_logical_closed_forms",
    "mqc_vs_analytic",
    "mqc_support_and_conservation",
    "purity_preservation",
    "commutation_and_gauge",
    "implant_timing",
    "serde_and_disorder",
}


def test_suite_passes_and_covers_everything():
    report = run_verification(max_n=6, seed=1)
    assert report.passed
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    assert set(names) == EXPECTED_CHECKS
    for check in report.checks:
        assert check.deviation <= check.tolerance


def test_max_n_bounds():
    with pytest.raises(InvalidDimensionError):
        run_verification(max_n=3)
    with pytest.raises(InvalidDimensionError):
        run_verification(max_n=13)


def test_blanket_tolerance_override():
    # tolerance 0 is pinned by the golden report verify_n5_s0_tol0
    loose = run_verification(max_n=5, seed=0, tolerance=10.0)
    assert loose.passed
    assert all(c.tolerance == 10.0 for c in loose.checks)


def test_check_line_format():
    ok = CheckResult("alpha", 1.25e-12, 1e-10, True, {})
    assert ok.line() == "ok   alpha: deviation 1.250e-12 (tol 1.0e-10)"
    bad = CheckResult("beta", 2.0, 1e-10, False, {})
    assert bad.line().startswith("FAIL beta:")
    for check in run_verification(max_n=5, seed=0).checks:
        assert re.fullmatch(
            r"(ok  |FAIL) [a-z_]+: deviation \d\.\d{3}e[+-]\d{2,3} \(tol \d\.\de[+-]\d{2,3}\)",
            check.line(),
        )


@pytest.mark.parametrize("point", GRID, ids=lambda p: "n{}-o{}-s{}".format(*p))
@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_check_on_grid(check, point):
    for name, deviation, bound in check_results(check, point):
        assert deviation <= bound, f"{name}: deviation {deviation:.3e} above {bound:.1e}"
