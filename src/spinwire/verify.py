"""Cross-module invariant registry behind the verify command.

Each paper identity is written once, as a plain function in
:data:`CHECKS` (unitarity, gauge equivalence, closed forms vs dense
oracle, ...). A check takes the random generator and the two working
sizes ``(rng, max_n, oracle_n)`` and yields one
``(name, deviation, tolerance, inputs)`` tuple per identity: its worst
deviation, its own tolerance, and the inputs needed to replay it. The
verify command, the test grid and the acceptance gate all run this
list. The whole suite is deterministic for a fixed seed, and the JSON
report contains no timestamps, so repeated runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import chain as chain_mod
from . import logical as logical_mod
from . import mqc as mqc_mod
from . import oracle as oracle_mod
from . import propagator as prop_mod
from .chain import ChainSpec
from .errors import InvalidDimensionError, InvalidParameterError, OracleSizeError

__all__ = ["CHECKS", "CheckResult", "VerificationReport", "run_verification"]

# identities that are pure finite-precision linear algebra
_TOL_LINALG = 1e-10
# exact operator algebra (entries merely permuted or negated)
_TOL_EXACT = 1e-12
# comparisons against the dense oracle
_TOL_ORACLE = 1e-8


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant check."""

    name: str
    deviation: float
    tolerance: float
    passed: bool
    inputs: dict

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return f"{status} {self.name}: deviation {self.deviation:.3e} (tol {self.tolerance:.1e})"


@dataclass(frozen=True)
class VerificationReport:
    """All check results plus the parameters that produced them."""

    parameters: dict
    checks: tuple[CheckResult, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "schema": "spinwire.verify/1",
            "parameters": self.parameters,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- single-excitation engine ----------------------------------------


def spectral_reconstruction(rng, max_n, oracle_n):
    n = max_n
    cpl = chain_mod.random_couplings(rng, n)
    spec = ChainSpec(n, "xx", cpl)
    dec = prop_mod.spectral_decompose(spec)
    m = spec.coupling_matrix()
    recon = (dec.modes * dec.frequencies) @ dec.modes.T
    ortho = dec.modes.T @ dec.modes - np.eye(n)
    dev = max(np.abs(recon - m).max(), np.abs(ortho).max())
    yield ("spectral_reconstruction", dev, _TOL_LINALG, {"n": n, "couplings": cpl})


def propagator_vs_expm(rng, max_n, oracle_n):
    from scipy.linalg import expm  # here: the CLI's tables never import scipy.linalg

    n = max_n
    cpl = chain_mod.random_couplings(rng, n)
    t = float(rng.uniform(0.3, 4.0))
    spec = ChainSpec(n, "xx", cpl)
    amp = prop_mod.propagate(prop_mod.spectral_decompose(spec), t)
    ref = expm(-1j * spec.coupling_matrix() * t)
    yield (
        "propagator_vs_expm",
        np.abs(amp - ref).max(),
        _TOL_LINALG,
        {"n": n, "couplings": cpl, "t": t},
    )


def unitarity_group_symmetry(rng, max_n, oracle_n):
    n = max_n
    cpl = chain_mod.random_couplings(rng, n)
    t1, t2 = (float(x) for x in rng.uniform(0.2, 3.0, 2))
    dec = prop_mod.spectral_decompose(ChainSpec(n, "xx", cpl))
    a1 = prop_mod.propagate(dec, t1)
    a2 = prop_mod.propagate(dec, t2)
    a12 = prop_mod.propagate(dec, t1 + t2)
    dev = max(
        np.abs(a1 @ a1.conj().T - np.eye(n)).max(),
        np.abs(a1 @ a2 - a12).max(),
        np.abs(a1 - a1.T).max(),
    )
    yield (
        "unitarity_group_symmetry",
        dev,
        _TOL_LINALG,
        {"n": n, "couplings": cpl, "t1": t1, "t2": t2},
    )


def homogeneous_closed_form(rng, max_n, oracle_n):
    n = max_n
    d = float(rng.uniform(0.5, 1.5))
    t = float(rng.uniform(0.2, 5.0))
    spec = chain_mod.homogeneous_couplings(n, d)
    amp = prop_mod.propagate(prop_mod.spectral_decompose(spec), t)
    dev = np.abs(amp - prop_mod.homogeneous_amplitude(n, d, [t])[0]).max()
    # two-site special case: the single off-diagonal is -i sin(d t)
    a12 = prop_mod.homogeneous_amplitude(2, d, [t], (1,), (2,))[0, 0, 0]
    dev = max(dev, abs(a12 - (-1j * math.sin(d * t))))
    yield ("homogeneous_closed_form", dev, _TOL_LINALG, {"n": n, "d": d, "t": t})


def engineered_spectrum_linear(rng, max_n, oracle_n):
    devs = []
    for n in range(2, max(max_n, 12) + 1):
        dec = prop_mod.spectral_decompose(chain_mod.engineered_couplings(n, 1.0))
        devs.append(np.abs(dec.frequencies - prop_mod.engineered_frequencies(n, 1.0)).max())
    yield (
        "engineered_spectrum_linear",
        max(devs),
        _TOL_LINALG,
        {"n_range": [2, max(max_n, 12)], "d": 1.0},
    )


def engineered_mirror_profile(rng, max_n, oracle_n):
    n = max(max_n, 8)
    d = 1.0
    spec = chain_mod.engineered_couplings(n, d)
    t_star = chain_mod.transfer_timing(spec).t_star
    dec = prop_mod.spectral_decompose(spec)
    amp = prop_mod.propagate(dec, t_star)
    phase = (-1j) ** (n - 1)
    dev = max(abs(amp[j, n - 1 - j] - phase) for j in range(n))
    # binomial transfer profile away from the mirror time
    t = 0.37 * t_star
    tau = chain_mod.normalized_time(n, d, [t])[0]
    amp_t = prop_mod.propagate(dec, t)
    s2, c2 = math.sin(tau) ** 2, math.cos(tau) ** 2
    for l in range(1, n + 1):
        pred = math.comb(n - 1, l - 1) * s2 ** (l - 1) * c2 ** (n - l)
        dev = max(dev, abs(abs(amp_t[0, l - 1]) ** 2 - pred))
    yield ("engineered_mirror_profile", dev, _TOL_LINALG, {"n": n, "d": d})


# -- oracle comparisons ------------------------------------------------


def _conjugated(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """U x U^dag: one evolved dense operator."""
    return u @ x @ u.conj().T


def _draw(rng, n, models):
    """Draw couplings, then t; per model, (spec, H, U(t)) from one build and one eigh."""
    cpl = chain_mod.random_couplings(rng, n)
    t = float(rng.uniform(0.3, 2.5))
    dense = []
    for model in models:
        spec = ChainSpec(n, model, cpl)
        h = oracle_mod.build_hamiltonian(spec)
        dense.append((spec, h, oracle_mod._unitary(np.linalg.eigh(h), t)))
    return cpl, t, dense


def polarization_vs_oracle(rng, max_n, oracle_n):
    n = oracle_n
    cpl, t, dense = _draw(rng, n, chain_mod.MODELS)
    z = {j: oracle_mod.pauli_string_to_dense(n, ((j, "Z"),)) for j in (1, 2, n - 1, n)}
    dev = 0.0
    for spec, _, u in dense:
        amp = prop_mod.propagate(prop_mod.spectral_decompose(spec), t)
        # Z_1(t) serves two pairs, so each Z_j(t) is formed once
        z_t = {j: _conjugated(u, z[j]) for j in (1, 2)}
        for j, l in ((1, n), (2, n - 1), (1, 1)):
            ref = oracle_mod.trace_overlap(z_t[j], z[l]).real
            got = prop_mod.polarization_from_propagator(amp, j, l, spec.model)
            dev = max(dev, abs(got - ref))
    yield ("polarization_vs_oracle", dev, _TOL_ORACLE, {"n": n, "couplings": cpl, "t": t})


def slater_vs_oracle(rng, max_n, oracle_n):
    n = oracle_n
    cpl, t, [(spec, _, u)] = _draw(rng, n, ("xx",))
    amp = prop_mod.propagate(prop_mod.spectral_decompose(spec), t)
    dev = 0.0
    configs = [((1, 2), (n - 1, n)), ((1, 3), (2, n)), ((1, 2, 3), (1, n - 1, n))]
    for src, tgt in configs:
        got = prop_mod.slater_amplitude(amp, src, tgt)
        ref = u[oracle_mod.basis_index(n, tgt), oracle_mod.basis_index(n, src)]
        dev = max(dev, abs(got - ref))
    yield ("slater_vs_oracle", dev, _TOL_ORACLE, {"n": n, "couplings": cpl, "t": t})


def mixed_overlap_vs_oracle(rng, max_n, oracle_n):
    n = oracle_n
    cpl, t, [(spec, _, u)] = _draw(rng, n, ("xx",))
    a = {
        ((1,), (1,)): 0.6,
        ((2,), (2,)): 0.4,
        ((1,), (2,)): 0.2 + 0.1j,
        ((2,), (1,)): 0.2 - 0.1j,
        ((1, 2), (1, 2)): 0.3,
    }
    b = {
        ((n - 1,), (n - 1,)): 0.5,
        ((n,), (n,)): 0.5,
        ((n - 1,), (n,)): -0.15j,
        ((n,), (n - 1,)): +0.15j,
        ((n - 1, n), (n - 1, n)): 0.25,
    }
    amp = prop_mod.propagate(prop_mod.spectral_decompose(spec), t)
    got = prop_mod.mixed_state_overlap(amp, a, b)
    ra = oracle_mod.excitation_operator(n, a)
    rb = oracle_mod.excitation_operator(n, b)
    ref = np.trace(_conjugated(u, ra) @ rb)
    yield (
        "mixed_overlap_vs_oracle",
        abs(got - ref),
        _TOL_ORACLE,
        {"n": n, "couplings": cpl, "t": t},
    )


def logical_channels_vs_oracle(rng, max_n, oracle_n):
    n = oracle_n
    cpl, t, dense = _draw(rng, n, chain_mod.MODELS)
    dev = 0.0
    for spec, _, u in dense:
        source = logical_mod.logical_basis(spec.model, n, "source")
        target = logical_mod.logical_basis(spec.model, n, "target")
        amp = prop_mod.propagate(prop_mod.spectral_decompose(spec), t)
        got = logical_mod.channel_correlations(amp, spec.model, corrected=False)
        for alpha in logical_mod.CHANNELS:
            rho0 = oracle_mod.deviation_to_dense(source[alpha])
            ref = 2.0 * oracle_mod.trace_overlap(
                _conjugated(u, rho0), oracle_mod.deviation_to_dense(target[alpha])
            ).real
            dev = max(dev, abs(got[alpha] - ref))
    yield (
        "logical_channels_vs_oracle",
        dev,
        _TOL_ORACLE,
        {"n": n, "couplings": cpl, "t": t},
    )


def autocorrelation_vs_oracle(rng, max_n, oracle_n):
    n = oracle_n
    cpl, t, dense = _draw(rng, n, chain_mod.MODELS)
    # each kind's rho(0) and Tr[rho(0)^2] hold for both models
    states = []
    for kind in prop_mod.INITIAL_KINDS:
        rho0 = oracle_mod.deviation_to_dense(mqc_mod.prepare_state(n, kind))
        states.append((kind, rho0, oracle_mod.trace_overlap(rho0, rho0).real))
    dev = 0.0
    for spec, _, u in dense:
        for kind, rho0, norm in states:
            ref = oracle_mod.trace_overlap(_conjugated(u, rho0), rho0).real / norm
            got = prop_mod.end_autocorrelation_grid(spec, kind, [t])[0]
            dev = max(dev, abs(got - ref))
    yield (
        "autocorrelation_vs_oracle",
        dev,
        _TOL_ORACLE,
        {"n": n, "couplings": cpl, "t": t},
    )


def dq_parity_rule(rng, max_n, oracle_n):
    dev = 0.0
    for n in (max_n, max_n + 1):
        cpl, t, _ = _draw(rng, n, ())
        amp = prop_mod.propagate(prop_mod.spectral_decompose(ChainSpec(n, "xx", cpl)), t)
        xx = logical_mod.channel_correlations(amp, "xx")
        raw = logical_mod.channel_correlations(amp, "dq", corrected=False)
        cor = logical_mod.channel_correlations(amp, "dq", corrected=True)
        sign = -1.0 if logical_mod.dq_parity_correction(n) else 1.0
        for alpha in ("x", "1"):
            dev = max(dev, abs(raw[alpha] - xx[alpha]), abs(cor[alpha] - xx[alpha]))
        for alpha in ("y", "z"):
            dev = max(dev, abs(raw[alpha] - sign * xx[alpha]), abs(cor[alpha] - xx[alpha]))
    yield (
        "dq_parity_rule",
        dev,
        _TOL_EXACT,
        {"n_values": [max_n, max_n + 1]},
    )


def engineered_fidelity_mirror(rng, max_n, oracle_n):
    dev = 0.0
    for n in range(4, 21):
        spec = chain_mod.engineered_couplings(n, 1.0)
        t_star = chain_mod.transfer_timing(spec).t_star
        mirror = logical_mod.logical_transport_engineered(n, 1.0, [t_star])
        (f,) = logical_mod.channel_fidelity(mirror)
        dev = max(dev, abs(f - 1.0))
        # closed forms agree with the propagator bilinears
        amp = prop_mod.propagate(prop_mod.spectral_decompose(spec), 0.43 * t_star)
        vals = logical_mod.channel_correlations(amp, "xx")
        closed = logical_mod.logical_transport_engineered(n, 1.0, [0.43 * t_star])
        for alpha in logical_mod.CHANNELS:
            dev = max(dev, abs(vals[alpha] - closed[alpha][0]))
    yield ("engineered_fidelity_mirror", dev, 1e-9, {"n_range": [4, 20]})


def homogeneous_logical_closed_forms(rng, max_n, oracle_n):
    dev = 0.0
    for n in (max_n, max_n + 3):
        d = 1.0
        t = float(rng.uniform(0.5, 4.0))
        spec = chain_mod.homogeneous_couplings(n, d)
        amp = prop_mod.propagate(prop_mod.spectral_decompose(spec), t)
        vals = logical_mod.channel_correlations(amp, "xx")
        closed = logical_mod.logical_transport_homogeneous(n, d, [t])
        for alpha in logical_mod.CHANNELS:
            dev = max(dev, abs(vals[alpha] - closed[alpha][0]))
    yield (
        "homogeneous_logical_closed_forms",
        dev,
        _TOL_LINALG,
        {"n_values": [max_n, max_n + 3]},
    )


# -- coherence protocol ---------------------------------------------------


def coherence_orders(rng, max_n, oracle_n):
    n = oracle_n
    d = 1.0
    # one dense build and eigh serve both identities, each at its own time
    eigen = np.linalg.eigh(
        oracle_mod.build_hamiltonian(chain_mod.homogeneous_couplings(n, d, model="dq"))
    )
    t = float(rng.uniform(0.2, 1.5))
    kinds = ("z_ends", "y_logical", "x_logical")
    *cycled, cycled_x = mqc_mod._cycle(
        oracle_mod._unitary(eigen, t), [mqc_mod.prepare_state(n, kind) for kind in kinds], 8, 2
    )
    dev = 0.0
    # column 2 + q holds J_q; z_ends is normalised to J_0(0) = 1, the cycle to Tr[rho Z]/2^n = 2
    for kind, scale, row in zip(kinds, (2.0, 1.0), cycled):
        analytic = mqc_mod.mqc_analytic(n, d, kind, t)
        for q in (-2, 0, 2):
            dev = max(dev, abs(row[2 + q] - scale * analytic.intensity(q)))
    dev = max(dev, max(abs(v) for v in cycled_x))
    yield ("mqc_vs_analytic", dev, _TOL_ORACLE, {"n": n, "d": d, "t": t})

    t = float(rng.uniform(0.2, 1.5))
    u_t, u_0 = oracle_mod._unitary(eigen, t), oracle_mod._unitary(eigen, 0.0)
    states = [mqc_mod.prepare_state(n, kind) for kind in mqc_mod.PREPARED_KINDS]
    dev = 0.0
    # column n + q of a row holds J_q; each total adds the orders left to right
    for full, at0 in zip(
        mqc_mod._cycle(u_t, states, 2 * n + 3, n), mqc_mod._cycle(u_0, states, 2 * n + 3, n)
    ):
        dev = max(dev, abs(sum(full.tolist()) - sum(at0.tolist())))
        for q, j in zip(range(-n, n + 1), full):
            if q not in (-2, 0, 2):
                dev = max(dev, abs(j))
            if q < 0:
                dev = max(dev, abs(j - full[n - q]))
    yield ("mqc_support_and_conservation", dev, _TOL_LINALG, {"n": n, "t": t})


# -- dense-model identities ---------------------------------------------


def purity_and_commutation(rng, max_n, oracle_n):
    n = oracle_n
    cpl, t, dense = _draw(rng, n, chain_mod.MODELS)
    rho0 = oracle_mod.deviation_to_dense(mqc_mod.prepare_state(n, "y_logical"))
    p0 = oracle_mod.trace_overlap(rho0, rho0).real
    dev = 0.0
    for _, _, u in dense:
        rho_t = _conjugated(u, rho0)
        pt = oracle_mod.trace_overlap(rho_t, rho_t).real
        dev = max(dev, abs(pt - p0))
    (_, hx, _), (_, hd, _) = dense
    zt = oracle_mod.total_z(n)
    zs = oracle_mod.staggered_z(n)
    dev_exact = max(
        np.abs(hx @ zt - zt @ hx).max(),
        np.abs(hd @ zs - zs @ hd).max(),
        oracle_mod.similarity_residual(hx, hd),
    )
    yield (
        "purity_preservation", dev, _TOL_LINALG, {"n": n, "couplings": cpl, "t": t}
    )
    yield (
        "commutation_and_gauge",
        dev_exact,
        _TOL_EXACT,
        {"n": n, "couplings": cpl},
    )


# -- chain utilities -------------------------------------------------------


def chain_utilities(rng, max_n, oracle_n):
    n = max_n + 5
    positions = chain_mod.implant_spacings(n, r_min=1.3)
    spec = chain_mod.dipolar_couplings(positions, prefactor=-0.7, model="xx")
    timing = chain_mod.transfer_timing(spec)
    d_eff = 4.0 * 0.7 / 1.3**3 / 2.0
    dev = abs(timing.t_star - math.pi * n / (4.0 * d_eff))
    dev = max(dev, abs(timing.t_star * timing.group_velocity - n))
    rnd = ChainSpec(n, "dq", chain_mod.random_couplings(rng, n))
    dev_json = 0.0 if ChainSpec.from_json(rnd.to_json()) == rnd else 1.0
    perturbed = chain_mod.perturb_couplings(rnd, 0.05, seed=7)
    again = chain_mod.perturb_couplings(rnd, 0.05, seed=7)
    dev_json = max(dev_json, 0.0 if perturbed == again else 1.0)
    unchanged = chain_mod.perturb_couplings(rnd, 0.0, seed=11)
    dev_json = max(
        dev_json,
        max(abs(a - b) for a, b in zip(unchanged.couplings, rnd.couplings)),
    )
    yield ("implant_timing", dev, _TOL_LINALG, {"n": n, "r_min": 1.3})
    yield ("serde_and_disorder", dev_json, _TOL_EXACT, {"n": n})


CHECKS = (
    spectral_reconstruction,
    propagator_vs_expm,
    unitarity_group_symmetry,
    homogeneous_closed_form,
    engineered_spectrum_linear,
    engineered_mirror_profile,
    polarization_vs_oracle,
    slater_vs_oracle,
    mixed_overlap_vs_oracle,
    logical_channels_vs_oracle,
    autocorrelation_vs_oracle,
    dq_parity_rule,
    engineered_fidelity_mirror,
    homogeneous_logical_closed_forms,
    coherence_orders,
    purity_and_commutation,
    chain_utilities,
)


def run_verification(
    max_n: int = 8, seed: int = 0, tolerance: float | None = None
) -> VerificationReport:
    """Run every check in :data:`CHECKS` and collect a deterministic report.

    max_n sets the working chain length for analytic checks (4..12);
    dense oracle comparisons run at min(max_n, oracle budget, 7). The
    checks draw from one generator seeded with ``seed``, in registry
    order. When ``tolerance`` is given it overrides every check's own
    tolerance; it must be finite and >= 0. An oracle budget below 4
    raises ``OracleSizeError`` before any check runs: the logical checks
    need the two end pairs of a chain of at least 4 sites.
    """
    max_n = chain_mod._check_length(max_n)
    if not 4 <= max_n <= 12:
        raise InvalidDimensionError(f"max_n must be in 4..12, got {max_n!r}")
    if tolerance is not None:
        tolerance = chain_mod._check_real(tolerance, "tolerance", InvalidParameterError)
        if tolerance < 0:
            raise InvalidParameterError(f"tolerance must be >= 0, got {tolerance!r}")
    seed = chain_mod._check_seed(seed)
    rng = np.random.default_rng(seed)
    budget = oracle_mod.oracle_budget()
    if budget < 4:
        raise OracleSizeError(
            f"verify needs {oracle_mod._ENV_VAR} >= 4 for its oracle checks, got {budget}"
        )
    oracle_n = min(max_n, budget, 7)
    results = []
    for check in CHECKS:
        for name, deviation, tol, inputs in check(rng, max_n, oracle_n):
            tol = tolerance if tolerance is not None else tol
            results.append(
                CheckResult(name, float(deviation), tol, bool(deviation <= tol), inputs)
            )
    params = {"max_n": max_n, "seed": seed, "tolerance": tolerance, "oracle_n": oracle_n}
    return VerificationReport(parameters=params, checks=tuple(results))
