"""Secret-key capacity bounds for lossy and thermal-loss channels.

Repeaterless capacity, its detector-adjusted version, the asymmetric
single-repeater capacity, and the thermal-loss upper bound that folds
detector dark counts into the channel.
"""

from __future__ import annotations

import math

from .finitestats import hbar

__all__ = [
    "skc0",
    "skc1",
    "relative_skc0",
    "thermal_mean_photon",
    "noisy_skc0_ub",
    "capacity_point",
]


def skc0(eta: float) -> float:
    """Repeaterless secret-key capacity -log2(1 - eta) in bits/use.

    Approximately 1.44 * eta at low transmissivity; diverges at eta = 1.
    Written with log1p, which keeps that value where 1 - eta rounds to 1
    (eta below 2^-53, beyond about 160 dB).
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("skc0 requires eta in [0, 1)")
    return -math.log1p(-eta) / math.log(2)


def skc1(eta_a: float, eta_b: float) -> float:
    """Single-repeater capacity -log2(1 - min(eta_a, eta_b)) in bits/use.

    Scales like the worst arm at low transmissivity.
    """
    return skc0(min(eta_a, eta_b))


def relative_skc0(eta: float, det_efficiency: float) -> float:
    """Repeaterless capacity adjusted for detector efficiency.

    Equals skc0(eta * det_efficiency): the inefficiency is modelled as
    extra loss in front of the detector.
    """
    if not 0.0 <= det_efficiency <= 1.0:
        raise ValueError("detector efficiency must lie in [0, 1]")
    return skc0(eta * det_efficiency)


def thermal_mean_photon(dark_prob: float, eta: float) -> float:
    """First-order mean photon number of the equivalent thermal channel.

    n_bar ~= d_c / (1 - eta), from equating the vacuum-input click
    probability with the dark-count probability; eta includes the detector
    efficiency.  Higher orders shift the bound imperceptibly at realistic
    dark rates.
    """
    if not 0.0 <= dark_prob < 1.0:
        raise ValueError("dark_prob must lie in [0, 1)")
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    return dark_prob / (1.0 - eta)


def noisy_skc0_ub(eta: float, n_bar: float) -> tuple[float, bool]:
    """Thermal-loss upper bound on the noisy repeaterless capacity.

    UB = -log2[(1 - eta) * eta^n_bar] - hbar(n_bar), valid for
    n_bar < eta / (1 - eta).  Returns (value, valid_flag); the value is
    still computed when the validity condition fails.  Reduces exactly to
    skc0(eta) at n_bar = 0.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    if not 0.0 <= n_bar < math.inf:
        raise ValueError(f"n_bar must be finite and non-negative, got {n_bar}")
    valid = n_bar < eta / (1.0 - eta)
    if n_bar == 0.0:
        return skc0(eta), valid
    if eta == 0.0:
        return float("inf"), False
    value = skc0(eta) - n_bar * math.log2(eta) - hbar(n_bar)
    return value, valid


def capacity_point(loss_db: float, eta_a: float, eta_b: float,
                   det_efficiency: float, dark_prob: float) -> dict:
    """Every bound at one total channel loss, as a CSV row.

    Columns: loss_db, skc0, skc0_relative, skc1_sym (repeater mid-channel),
    skc1_asym (repeater between arms of transmissivities ``eta_a`` and
    ``eta_b``; ``tfqkd bounds`` passes the arms ``keyrate.split_loss_link``
    builds at ``loss_db``), noisy_ub and valid (1 when the thermal bound's
    validity condition holds).  ``dark_prob`` is the per-gate,
    per-detector dark probability entering the thermal bound.
    """
    eta = 10.0 ** (-loss_db / 10.0)
    eta_half = 10.0 ** (-loss_db / 20.0)
    eta_det = eta * det_efficiency
    n_bar = thermal_mean_photon(dark_prob, eta_det)
    ub, valid = noisy_skc0_ub(eta_det, n_bar)
    return {
        "loss_db": float(loss_db),
        "skc0": skc0(eta),
        "skc0_relative": relative_skc0(eta, det_efficiency),
        "skc1_sym": skc1(eta_half, eta_half),
        "skc1_asym": skc1(eta_a, eta_b),
        "noisy_ub": ub,
        "valid": int(valid),
    }
