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
        if not (self.gt > 0 and self.gr > 0):
            raise ValueError("antenna gains must be positive")
        if not self.tx_power > 0:
            raise ValueError("transmit power must be positive")
        if not self.noise_power > 0:
            raise ValueError("noise power must be positive")
        if not self.xi > 0:
            raise ValueError("path-loss exponent must be positive")


def beta0_reference(gt: float, gr: float, dx: float, dy: float) -> float:
    """Element-aperture reference constant 16*pi^2 / (gt*gr*dx^2*dy^2)."""
    if min(gt, gr, dx, dy) <= 0:
        raise ValueError("gains and element dimensions must be positive")
    return 16.0 * math.pi**2 / (gt * gr * dx**2 * dy**2)


@dataclass
class PatternFaults:
    """The non-positive pattern factors of one panel, recorded tile by tile.

    ``pattern`` gives a tile's joint pattern and records its faults;
    ``check`` then raises the panel's first fault: non-positive endpoint
    cosines first, then a pattern that underflows or is not positive, each
    with the panel's element count and worst value.  The endpoint-side
    cosines enter with the (possibly fractional) gain exponents, so an
    endpoint past the perpendicular of an element has no defined pattern.
    """

    endpoint_count: int = 0
    endpoint_worst: float = math.inf
    pattern_count: int = 0
    pattern_worst: float = math.inf
    underflow: bool = True  # every non-positive pattern has positive cos_t and cos_r

    def pattern(self, links: ElementLinks, gt: float, gr: float) -> np.ndarray:
        """The joint pattern of one tile, its faults recorded."""
        endpoint_cos = np.minimum(links.cos_tx, links.cos_rx)
        self.endpoint_count += int(np.count_nonzero(endpoint_cos <= 0))
        # a reduction from the worst so far: a nan propagates as in one call
        self.endpoint_worst = endpoint_cos.min(initial=self.endpoint_worst)
        # a non-positive endpoint cosine to a fractional power is nan, and
        # check() reports that cosine instead
        with np.errstate(invalid="ignore", divide="ignore"):
            pattern = (
                links.cos_tx ** (gt / 2.0 - 1.0)
                * links.cos_t
                * links.cos_r
                * links.cos_rx ** (gr / 2.0 - 1.0)
            )
        bad = pattern <= 0
        count = int(np.count_nonzero(bad))
        if count:
            self.pattern_count += count
            self.underflow = self.underflow and bool(
                np.all((links.cos_t[bad] > 0) & (links.cos_r[bad] > 0))
            )
        self.pattern_worst = pattern.min(initial=self.pattern_worst)
        return pattern

    def check(self, gt: float, gr: float) -> None:
        """Raise the panel's first fault, if it has one."""
        if self.endpoint_count:
            raise SingularPattern(
                f"endpoint-side pattern cosines must be positive; {self.endpoint_count} "
                f"element(s) are not (worst {self.endpoint_worst:.4g})"
            )
        if not self.pattern_count:
            return
        if self.underflow:
            raise PatternUnderflow(
                f"radiation pattern underflows to 0 at {self.pattern_count} element(s) although "
                f"every cosine is positive: a gain exponent (gt/2 - 1 = {gt / 2.0 - 1.0:g}, "
                f"gr/2 - 1 = {gr / 2.0 - 1.0:g}) is too large for this geometry"
            )
        raise SingularPattern(
            f"radiation pattern is not positive at {self.pattern_count} element(s) "
            f"(worst {self.pattern_worst:.4g}); check link geometry"
        )


def element_pathloss(
    links: ElementLinks, beta0_ref: float, gt: float, gr: float, faults: PatternFaults
) -> np.ndarray:
    """Near-field loss factor per element: beta0_ref*(r_t*r_r)^2/pattern.

    A pattern factor that is not positive is recorded in faults, the
    record of the panel the links are a tile of, and the loss of that
    element is not a loss factor; ``faults.check`` raises it.
    """
    pattern = faults.pattern(links, gt, gr)
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
