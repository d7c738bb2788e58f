"""First and second moments of the co-phased envelope sum, and the
effective-noise variance.

The end-to-end envelope variable is

    Z = sum_l rho_l * sum_m sqrt(beta_lm^-1) |g_lm| |h_lm|  +  rho_0 sqrt(beta_0^-1) |h_0|

with one panel (centralized) or several (distributed).  These operations
take the ``channel.PanelChannel`` records the Monte Carlo oracle samples,
and read only each panel's root sum sum_m sqrt(beta_lm^-1) and power sum
sum_m beta_lm^-1, not its amplitudes or geometry; the far-field closed
forms fall out as a special case checked in tests.  Each panel's envelope means come from its
K-factors (``rician_mean_envelope``).

Cross terms use the (sum a)^2 - sum a^2 factorization, O(M) instead of
O(M^2); the naive double loop is kept as a test oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .channel import PanelChannel, RicianParams, rician_mean_envelope


@dataclass(frozen=True)
class MomentSummary:
    """Mean, raw second moment, and variance of the envelope variable."""

    mean: float
    second_moment: float
    variance: float


def distributed_moments(
    per_panel: Sequence[PanelChannel],
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
        omega1 = rician_mean_envelope(RicianParams(p.k1))
        omega2 = rician_mean_envelope(RicianParams(p.k2))
        amp_sums.append(p.rho * omega1 * omega2 * p.root_sum)
        power_sums.append(p.rho * p.rho * p.power_sum)
        within_cross.append(
            (p.rho * omega1 * omega2) ** 2 * (p.root_sum * p.root_sum - p.power_sum)
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
    # Clamp away the tiny negative variance a near-deterministic sum can
    # produce through cancellation.
    return MomentSummary(mean=mean, second_moment=second, variance=max(second - mean * mean, 0.0))


def distributed_noise_variance(
    tx_power: float,
    per_panel: Sequence[PanelChannel],
    rho0: float,
    omega0: float,
    beta0_direct_inv: float,
    noise_power: float,
) -> float:
    """Effective-noise variance: outdated-CSI leakage plus thermal noise.
    Each panel leaks P*(1-rho^2)*(1-omega2^2)*sum(beta^-1); the direct link
    leaks P*(1-rho0^2)*(1-omega0^2)*beta0^-1.  gamma_teff is P over it."""
    panel_terms = []
    for p in per_panel:
        omega2 = rician_mean_envelope(RicianParams(p.k2))
        panel_terms.append(
            tx_power * (1.0 - p.rho * p.rho) * (1.0 - omega2 * omega2) * p.power_sum
        )
    direct_term = tx_power * (1.0 - rho0 * rho0) * (1.0 - omega0 * omega0) * beta0_direct_inv
    return math.fsum(panel_terms) + direct_term + noise_power
