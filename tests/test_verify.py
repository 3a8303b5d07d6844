"""Built-in invariant registry: the check grid, determinism, coverage, tolerance control."""

import re

import numpy as np
import pytest

import spinwire.mqc
import spinwire.oracle
import spinwire.verify

from spinwire.errors import InvalidDimensionError, InvalidParameterError, OracleSizeError
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
    for bad in (3, 13, 5.5, "6", True):
        with pytest.raises(InvalidDimensionError):
            run_verification(max_n=bad)


@pytest.mark.parametrize(
    "kwargs",
    [{"seed": -1}, {"seed": 1.5}, {"seed": True}, {"tolerance": float("nan")},
     {"tolerance": -1.0}, {"tolerance": float("inf")}, {"tolerance": "0"}],
    ids=repr,
)
def test_seed_and_tolerance_are_checked_before_any_check_runs(kwargs):
    with pytest.raises(InvalidParameterError):
        run_verification(max_n=4, **kwargs)


@pytest.mark.parametrize("budget", ["2", "3"])
def test_an_oracle_budget_below_4_is_refused_before_any_check_runs(budget, monkeypatch):
    monkeypatch.setenv("SPINWIRE_ORACLE_MAX_N", budget)

    def never(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(spinwire.verify, "CHECKS", (never,))
    with pytest.raises(OracleSizeError, match="SPINWIRE_ORACLE_MAX_N >= 4"):
        run_verification(max_n=8)


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


def test_each_dense_hamiltonian_is_built_and_diagonalised_once(monkeypatch):
    calls = {"eigh": 0, "build_hamiltonian": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    build = counted("build_hamiltonian", spinwire.oracle.build_hamiltonian)
    for module in (spinwire.oracle, spinwire.mqc):
        monkeypatch.setattr(module, "build_hamiltonian", build)
    assert run_verification(max_n=8, seed=0).passed
    # xx and dq in four checks, xx alone in two, and the homogeneous dq chain of coherence_orders;
    # then the oracle mqc engine's sector blocks for each of the 4 prepared kinds at n = 7: one
    # build per sector pair k = 0..3, one eigh per half (two in each sector but k = 0)
    assert calls == {"eigh": 11 + 4 * 7, "build_hamiltonian": 11 + 4 * 4}


def test_each_dense_evolution_forms_z_t_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return total_z(n)

    total_z = spinwire.oracle.total_z
    for module in (spinwire.mqc, spinwire.oracle):
        monkeypatch.setattr(module, "total_z", counted)
    assert run_verification(max_n=8, seed=0).passed
    # one Z(t) per U(t): three U in coherence_orders (one for mqc_vs_analytic, two for
    # mqc_support_and_conservation) and the commutator check of purity_and_commutation
    assert len(calls) == 4


@pytest.mark.parametrize(
    "check, counts",
    [
        # per model, Z_1(t) and Z_2(t) serve the pairs (1, n), (2, n - 1) and (1, 1)
        ("polarization_vs_oracle", {"evolved": 4, "states": 0, "overlaps": 6}),
        # per kind, rho(0) and Tr[rho(0)^2] once, then rho(t) and one overlap per model
        ("autocorrelation_vs_oracle", {"evolved": 4, "states": 2, "overlaps": 6}),
        # Tr[rho(0)^2] once, then rho(t) and its purity per model
        ("purity_and_commutation", {"evolved": 2, "states": 1, "overlaps": 3}),
    ],
)
def test_model_independent_dense_work_is_done_once(check, counts, monkeypatch):
    calls = dict.fromkeys(counts, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, owner, attr in (("evolved", spinwire.verify, "_conjugated"),
                              ("states", spinwire.oracle, "deviation_to_dense"),
                              ("overlaps", spinwire.oracle, "trace_overlap")):
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    results = list(getattr(spinwire.verify, check)(np.random.default_rng(0), 8, 7))
    assert all(deviation <= tol for _, deviation, tol, _ in results)
    assert calls == counts
