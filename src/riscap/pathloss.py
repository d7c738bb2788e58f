"""Path-loss models for the reflected and direct links.

All outputs are *loss factors*: received power scales as 1/beta, and the
SNR formulas downstream consume beta^-1.  The reference constant
``beta0_reference`` (an element-aperture term) and the direct-link
``direct_pathloss`` are distinct quantities and are never aliased.

Antenna gains are linear here; dB conversion happens at the scenario
boundary.  The transmit and receive antennas are assumed pointed at the
panel center (peak-radiation assumption), which is what makes the
elevation-cosine pattern below valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PatternUnderflow, SingularPattern
from .geometry import ElementLinks, PanelLink


@dataclass(frozen=True)
class LinkBudget:
    """Link-budget inputs in linear units (gains linear, powers in watts)."""

    gt: float
    gr: float
    tx_power: float
    noise_power: float
    eta_db: float
    xi: float

    def __post_init__(self):
        if self.gt <= 0 or self.gr <= 0:
            raise ValueError("antenna gains must be positive")
        if self.tx_power <= 0:
            raise ValueError("transmit power must be positive")
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")
        if self.xi <= 0:
            raise ValueError("path-loss exponent must be positive")


def beta0_reference(gt: float, gr: float, dx: float, dy: float) -> float:
    """Element-aperture reference constant 16*pi^2 / (gt*gr*dx^2*dy^2)."""
    if min(gt, gr, dx, dy) <= 0:
        raise ValueError("gains and element dimensions must be positive")
    return 16.0 * math.pi**2 / (gt * gr * dx**2 * dy**2)


def combine_pattern(links: ElementLinks, gt: float, gr: float) -> np.ndarray:
    """Joint normalized power radiation pattern, one entry per element.

    The endpoint-side cosines enter with the (possibly fractional) gain
    exponents, so they must be positive; an endpoint sitting past the
    perpendicular of an element has no defined pattern.
    """
    endpoint_cos = np.minimum(links.cos_tx, links.cos_rx)
    bad = endpoint_cos <= 0
    if bad.any():
        raise SingularPattern(
            f"endpoint-side pattern cosines must be positive; {int(bad.sum())} "
            f"element(s) are not (worst {endpoint_cos.min():.4g})"
        )
    return (
        links.cos_tx ** (gt / 2.0 - 1.0)
        * links.cos_t
        * links.cos_r
        * links.cos_rx ** (gr / 2.0 - 1.0)
    )


def element_pathloss(
    links: ElementLinks, beta0_ref: float, gt: float, gr: float
) -> np.ndarray:
    """Near-field loss factor per element: beta0_ref*(r_t*r_r)^2/pattern."""
    pattern = combine_pattern(links, gt, gr)
    bad = pattern <= 0
    if bad.any():
        if np.all((links.cos_t[bad] > 0) & (links.cos_r[bad] > 0)):
            raise PatternUnderflow(
                f"radiation pattern underflows to 0 at {int(bad.sum())} element(s) although "
                f"every cosine is positive: a gain exponent (gt/2 - 1 = {gt / 2.0 - 1.0:g}, "
                f"gr/2 - 1 = {gr / 2.0 - 1.0:g}) is too large for this geometry"
            )
        raise SingularPattern(
            f"radiation pattern is not positive at {int(bad.sum())} element(s) "
            f"(worst {pattern.min():.4g}); check link geometry"
        )
    return beta0_ref * (links.r_t * links.r_r) ** 2 / pattern


def farfield_pathloss(link: PanelLink, beta0_ref: float) -> float:
    """Far-field loss factor shared by every element of a panel."""
    if link.cos_theta_t <= 0 or link.cos_theta_r <= 0:
        raise SingularPattern("panel elevation cosine is not positive")
    return beta0_ref * (link.d1 * link.d2) ** 2 / (link.cos_theta_t * link.cos_theta_r)


def direct_pathloss(d0: float, eta_db: float, xi: float) -> float:
    """Direct BS-user loss factor from a log-distance model.

    The *inverse* loss in dB is eta_db - 10*xi*log10(d0); the returned
    linear value is the loss factor (>= 1 for any sensible budget).
    """
    if d0 <= 0:
        raise ValueError("direct-link distance must be positive")
    inv_db = eta_db - 10.0 * xi * math.log10(d0)
    return 10.0 ** (-inv_db / 10.0)
