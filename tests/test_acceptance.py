"""End-to-end acceptance gate.

One test per headline capability, each recording a PASS/FAIL summary
line (printed after the run) before asserting, so the gate status is
always visible even when an assertion fires. Each line is built from the
registry checks of ``spinwire.verify.CHECKS`` listed for it in
``ACCEPTANCE``, run over the test grid, plus the few assertions that no
check covers.
"""

import math

import numpy as np
from click.testing import CliRunner

from spinwire import cli
from spinwire.chain import engineered_couplings, transfer_timing
from spinwire.cli import main as cli_main
from spinwire.logical import channel_correlations, channel_fidelity
from spinwire.mqc import mqc_phase_cycled_grid, mqc_propagator_grid, prepare_state
from spinwire.propagator import (
    end_autocorrelation_grid,
    polarization_from_propagator,
    propagate,
    propagate_grid,
    spectral_decompose,
)

from conftest import record_acceptance
from reference import end_correlation, tail_couplings, tail_hamiltonian
from support import mode_matrix, registry_summary

ACCEPTANCE = {
    "engineered transfer law (n=21)": ("engineered_mirror_profile", "engineered_spectrum_linear"),
    "dq staggered sign rule": ("polarization_vs_oracle", "commutation_and_gauge"),
    "linear spectrum and mode coefficients": ("engineered_spectrum_linear",),
    "multi-excitation determinants": ("slater_vs_oracle", "mixed_overlap_vs_oracle"),
    "logical transport closed forms": (
        "logical_channels_vs_oracle", "homogeneous_logical_closed_forms",
        "engineered_fidelity_mirror",
    ),
    "dq parity correction restores fidelity": (
        "dq_parity_rule", "logical_channels_vs_oracle", "engineered_fidelity_mirror",
    ),
    "coherence intensities": ("mqc_vs_analytic", "mqc_support_and_conservation"),
    "conservation suite": (
        "unitarity_group_symmetry", "mqc_support_and_conservation", "purity_preservation",
        "commutation_and_gauge",
    ),
    "mirror-time autocorrelation (n=21, dq)": ("autocorrelation_vs_oracle",),
}


def finish(name: str, extra_ok: bool = True, extra: str = "") -> None:
    ok, detail = registry_summary(ACCEPTANCE[name])
    ok = ok and extra_ok
    detail = f"{detail}; {extra}" if extra else detail
    record_acceptance(name, ok, detail)
    assert ok, f"{name}: {detail}"


def test_engineered_transfer_law():
    finish("engineered transfer law (n=21)")


def test_dq_staggered_sign_rule():
    # shared single-excitation backend: the relation is exact, not approximate
    n = 21
    xx = engineered_couplings(n, 1.0, model="xx")
    dq = engineered_couplings(n, 1.0, model="dq")
    dec_xx, dec_dq = spectral_decompose(xx), spectral_decompose(dq)
    exact = all(
        polarization_from_propagator(a_dq, 1, l, "dq")
        == (-1) ** (1 - l) * polarization_from_propagator(a_xx, 1, l, "xx")
        for t in (0.4, 1.9, 5.2, 16.49)
        for a_xx, a_dq in [(propagate(dec_xx, t), propagate(dec_dq, t))]
        for l in range(1, n + 1)
    )
    finish("dq staggered sign rule", exact, f"exact on n=21: {exact}")


def test_linear_spectrum_and_mode_coefficients():
    dev_modes = 0.0
    for n in range(2, 13):
        dec = spectral_decompose(engineered_couplings(n, 1.0))
        reference = mode_matrix(n)
        got = dec.modes.copy()
        # align the free sign of each eigenvector by its first entry
        got *= np.sign(got[0, :])
        reference *= np.sign(reference[0, :])
        dev_modes = max(dev_modes, float(np.max(np.abs(got - reference))))
    finish(
        "linear spectrum and mode coefficients",
        dev_modes <= 1e-9,
        f"mode dev {dev_modes:.1e} (n=2..12)",
    )


def test_multi_excitation_determinants():
    finish("multi-excitation determinants")


def test_logical_transport_closed_forms(tmp_path):
    # homogeneous fidelity curves: emitted, bounded away from 1, later and lower
    runner = CliRunner()
    peaks = {}
    for n in (10, 15, 20):
        out = tmp_path / f"fidelity_homogeneous_n{n}.csv"
        args = [
            "logical", "--n", str(n), "--family", "homogeneous",
            "--grid", "0:14:1401", "--out", str(out),
        ]
        assert runner.invoke(cli_main, args).exit_code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        t_vals = np.array([float(r[0]) for r in rows])
        f_vals = np.array([float(r[5]) for r in rows])
        peaks[n] = (float(t_vals[np.argmax(f_vals)]), float(np.max(f_vals)))
    frozen = {10: (6.282437, 0.690930909), 15: (8.975358, 0.551831131), 20: (11.618146, 0.465577704)}
    curves_ok = all(
        abs(peaks[n][0] - frozen[n][0]) <= 0.02 and abs(peaks[n][1] - frozen[n][1]) <= 1e-3
        for n in peaks
    )
    curves_ok = curves_ok and all(peaks[n][1] < 1.0 for n in peaks)
    curves_ok = curves_ok and peaks[10][0] < peaks[15][0] < peaks[20][0]
    curves_ok = curves_ok and peaks[10][1] > peaks[15][1] > peaks[20][1]
    finish(
        "logical transport closed forms",
        curves_ok,
        f"homogeneous peaks {'ok' if curves_ok else 'WRONG'}: "
        + "; ".join(f"n={n}: F={peaks[n][1]:.3f} at t={peaks[n][0]:.2f}" for n in (10, 15, 20)),
    )


def test_dq_parity_correction_restores_fidelity():
    n = 6  # even: correction required
    spec = engineered_couplings(n, 1.0, model="dq")
    amp = propagate_grid(spectral_decompose(spec), [transfer_timing(spec).t_star], (1, 2))
    (f_fixed,) = channel_fidelity(channel_correlations(amp, "dq", corrected=True))
    (f_raw,) = channel_fidelity(channel_correlations(amp, "dq", corrected=False))
    finish(
        "dq parity correction restores fidelity",
        abs(f_fixed - 1.0) <= 1e-9 and f_raw < 1.0 - 1e-3,
        f"corrected F(t*)={f_fixed:.12f}, uncorrected F(t*)={f_raw:.6f} (n=6)",
    )


def test_coherence_intensities():
    finish("coherence intensities")


def test_conservation_suite():
    finish("conservation suite")


def test_mirror_time_autocorrelation():
    n, d = 21, 1.0
    spec = engineered_couplings(n, d, model="dq")
    t_star = transfer_timing(engineered_couplings(n, d)).t_star
    grid = np.linspace(0.0, 1.25 * t_star, 600)
    curves = {kind: end_autocorrelation_grid(spec, kind, grid) for kind in ("z_ends", "y_logical")}
    ok = True
    details = []
    for kind, curve in curves.items():
        c0 = curve[0]
        # peak away from the trivial t=0 maximum
        inner = grid > 0.25 * t_star
        t_peak = float(grid[inner][np.argmax(curve[inner])])
        ok = ok and abs(c0 - 1.0) <= 1e-9 and abs(t_peak - t_star) <= 0.05 * t_star
        details.append(f"{kind}: C(0)={c0:.9f}, peak at t={t_peak:.3f} (t*={t_star:.3f})")
    finish("mirror-time autocorrelation (n=21, dq)", ok, "; ".join(details))


def test_thermal_coherence_spectrum_matches_the_oracle():
    # full_z, the thermal state of the NMR experiment, through the propagator engine; no
    # registry check covers it, because verify never calls this engine
    n = 10
    spec = engineered_couplings(n, 1.0, model="dq")
    state = prepare_state(n, "full_z")
    times = np.linspace(0.0, 1.25 * transfer_timing(spec).t_star, 7)
    dev = float(np.max(np.abs(
        mqc_propagator_grid(spec, state, times) - mqc_phase_cycled_grid(spec, state, times)
    )))
    ok = dev <= 1e-12
    record_acceptance("full_z coherence spectrum vs oracle (n=10, dq)", ok, f"dev {dev:.1e}")
    assert ok, dev


def test_engineered_coherence_refocuses_by_parity_at_half_the_mirror_time():
    # A(4t) at t = t*/2 is A(2 t*) = (-1)^(n+1) I: z_ends refocuses into J_0 = 2 at odd n,
    # and sits wholly in J_+-2 = 1 at even n
    dev = 0.0
    for n in [*range(8, 22), 200]:
        spec = engineered_couplings(n, 1.0, model="dq")
        t = transfer_timing(spec).t_star / 2
        (row,) = mqc_propagator_grid(spec, prepare_state(n, "z_ends"), [t])
        want = [0.0, 0.0, 2.0, 0.0, 0.0] if n % 2 else [1.0, 0.0, 0.0, 0.0, 1.0]
        dev = max(dev, float(np.max(np.abs(row - want))))
    ok = dev <= 1e-12
    record_acceptance(
        "engineered dq coherence parity at t*/2 (n=8..21, 200)", ok, f"dev {dev:.1e}"
    )
    assert ok, dev


# What ``--family dipolar`` leaves out at n = 6 and 8: the 1/r^3 tail of its
# implanted chain (``reference.tail_hamiltonian``). Per n: max |C_1n| near t* of
# the chain model and of the full-tail dq chain; for the full-tail xx chain, the
# largest gap between pure |A_1n|^2 and mixed Tr[Z_1(t) Z_n] / 2^n up to 1.2 t*,
# and both at the pure peak. n = 10 (0.693, 0.162, 0.840, 0.798 on these grids)
# is left out: its dense build takes about 5 s.
DIPOLAR_TAIL = {6: (1.000, 0.854, 0.101, 0.879, 0.866), 8: (1.000, 0.772, 0.143, 0.856, 0.827)}


def test_dipolar_tail_left_out_by_the_chain_model():
    got = {}
    for n in DIPOLAR_TAIL:
        t_star = math.pi * n / 4
        near = np.linspace(0.8, 1.2, 401) * t_star
        chain = cli._build_chain("dipolar", n, 1.0, "dq")
        nn_dq = np.abs(propagate_grid(spectral_decompose(chain), near, (1,), (n,))[:, 0, 0]) ** 2
        tail_dq = np.abs(end_correlation(tail_hamiltonian(n, "dq"), n, near))
        grid = np.linspace(0.0, 1.2, 1201) * t_star
        # one excitation hops by d_jl under the full-tail xx chain: A(t) = exp(-i D t)
        energies, modes = np.linalg.eigh(tail_couplings(n))
        pure = np.abs((modes[0] * np.exp(-1j * np.outer(grid, energies))) @ modes[n - 1]) ** 2
        mixed = end_correlation(tail_hamiltonian(n, "xx"), n, grid)
        peak = np.argmax(pure)
        got[n] = (nn_dq.max(), tail_dq.max(), np.abs(pure - mixed).max(), pure[peak], mixed[peak])
    ok = all(abs(g - w) <= 1e-3 for n in got for g, w in zip(got[n], DIPOLAR_TAIL[n]))
    detail = "; ".join(
        f"n={n}: max|C_1n| NN dq {v[0]:.3f}, full-tail dq {v[1]:.3f}; full-tail xx "
        f"pure-mixed gap {v[2]:.3f}, at the pure peak {v[3]:.3f} vs {v[4]:.3f}"
        for n, v in got.items()
    )
    record_acceptance("dipolar tail left out by --family dipolar (n=6, 8)", ok, detail)
    assert ok, detail
