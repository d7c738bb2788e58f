"""First and second moments of the co-phased envelope sum, and the
effective transmit SNR.

The end-to-end envelope variable is

    Z = sum_l rho_l * sum_m sqrt(beta_lm^-1) |g_lm| |h_lm|  +  rho_0 sqrt(beta_0^-1) |h_0|

with one panel (centralized) or several (distributed).  These operations
take *path-loss vectors*, not geometry: a near-field panel passes its
per-element losses, a far-field panel passes a constant vector, and the
far-field closed forms fall out as a special case checked in tests.

Cross terms use the (sum a)^2 - sum a^2 factorization, O(M) instead of
O(M^2); the naive double loop is kept as a test oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class MomentSummary:
    """Mean, raw second moment, and variance of the envelope variable."""

    mean: float
    second_moment: float
    variance: float


@dataclass(frozen=True)
class EffectiveSnr:
    """Transmit power over expected effective-noise power."""

    gamma_teff: float
    noise_variance: float


@dataclass(frozen=True)
class PanelStats:
    """One panel's inputs to the moment formulas.

    beta_inv holds the inverse loss factor of each element; omega1/omega2
    are the envelope means of the BS-to-panel and panel-to-user fades; rho
    is the aging correlation of the panel-to-user estimate.
    """

    beta_inv: np.ndarray
    omega1: float
    omega2: float
    rho: float


def _summary(mean: float, second: float) -> MomentSummary:
    # Clamp away the tiny negative variance a near-deterministic sum can
    # produce through cancellation.
    return MomentSummary(mean=mean, second_moment=second, variance=max(second - mean * mean, 0.0))


def distributed_moments(
    per_panel: Sequence[PanelStats],
    omega0: float,
    rho0: float,
    beta0_direct_inv: float,
) -> MomentSummary:
    """Moments of the multi-panel envelope sum H.

    Terms, in order: per-element powers; within-panel cross terms;
    across-panel cross terms; the direct-link mixed term; the direct-link
    power.
    """
    amp_sums = []  # s_l = rho_l * omega1_l * omega2_l * sum_m sqrt(beta_lm^-1)
    power_sums = []  # rho_l^2 * sum_m beta_lm^-1
    within_cross = []
    for p in per_panel:
        beta_inv = np.asarray(p.beta_inv, dtype=float)
        if beta_inv.ndim != 1:
            raise ValueError("beta_inv must be one-dimensional")
        if np.any(beta_inv < 0):
            raise ValueError("inverse loss factors must be >= 0")
        root_sum = float(np.sum(np.sqrt(beta_inv)))
        sq_sum = float(np.sum(beta_inv))
        amp_sums.append(p.rho * p.omega1 * p.omega2 * root_sum)
        power_sums.append(p.rho * p.rho * sq_sum)
        within_cross.append(
            (p.rho * p.omega1 * p.omega2) ** 2 * (root_sum * root_sum - sq_sum)
        )

    direct_amp = math.sqrt(beta0_direct_inv) * rho0 * omega0
    total_amp = math.fsum(amp_sums)
    mean = total_amp + direct_amp

    across_cross = total_amp * total_amp - math.fsum(s * s for s in amp_sums)
    second = math.fsum(
        [
            math.fsum(power_sums),
            math.fsum(within_cross),
            across_cross,
            2.0 * math.sqrt(beta0_direct_inv) * rho0 * omega0 * total_amp,
            beta0_direct_inv * rho0 * rho0,
        ]
    )
    return _summary(mean, second)


def _leakage(
    tx_power: float,
    per_panel: Sequence[PanelStats],
    rho0: float,
    omega0: float,
    beta0_direct_inv: float,
) -> float:
    """Outdated-CSI leakage power.

    Each panel leaks P*(1-rho^2)*(1-omega2^2)*sum(beta^-1); the direct link
    leaks P*(1-rho0^2)*(1-omega0^2)*beta0^-1.
    """
    panel_terms = [
        tx_power
        * (1.0 - p.rho * p.rho)
        * (1.0 - p.omega2 * p.omega2)
        * float(np.sum(np.asarray(p.beta_inv, dtype=float)))
        for p in per_panel
    ]
    direct_term = (
        tx_power * (1.0 - rho0 * rho0) * (1.0 - omega0 * omega0) * beta0_direct_inv
    )
    return math.fsum(panel_terms) + direct_term


def distributed_noise_variance(
    tx_power: float,
    per_panel: Sequence[PanelStats],
    rho0: float,
    omega0: float,
    beta0_direct_inv: float,
    noise_power: float,
) -> EffectiveSnr:
    """Effective-noise variance: outdated-CSI leakage plus thermal noise."""
    if tx_power <= 0:
        raise ValueError("transmit power must be positive")
    if noise_power <= 0:
        raise ValueError("noise power must be positive")
    variance = _leakage(tx_power, per_panel, rho0, omega0, beta0_direct_inv) + noise_power
    return EffectiveSnr(gamma_teff=tx_power / variance, noise_variance=variance)


def saturation_gamma_teff(
    per_panel: Sequence[PanelStats],
    rho0: float,
    omega0: float,
    beta0_direct_inv: float,
) -> float:
    """Large-power limit of gamma_teff (thermal noise becomes negligible).

    Infinite when every aging coefficient is 1 (no CSI leakage at all).
    """
    leak = _leakage(1.0, per_panel, rho0, omega0, beta0_direct_inv)
    if leak <= 0:
        return math.inf
    return 1.0 / leak
