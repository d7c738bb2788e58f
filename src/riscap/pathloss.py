"""Path-loss models for the reflected and direct links.

All outputs are *loss factors*: received power scales as 1/beta, and the
SNR formulas downstream consume beta^-1.  The reference constant
``beta0_reference`` (an element-aperture term) and the direct-link
``direct_pathloss`` are distinct quantities and are never aliased.
``NearFieldTiles`` gives a panel's per-element near-field losses one tile
at a time and records its pattern faults; ``farfield_pathloss`` is the one
loss every element of a far-field panel shares.

Antenna gains are linear here; dB conversion happens at the scenario
boundary.  The transmit and receive antennas are assumed pointed at the
panel center (peak-radiation assumption), which is what makes the
elevation-cosine pattern below valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PatternUnderflow, ScenarioError, SingularPattern
from .geometry import PanelLink, Point3, RisPanel

GAINS = ("scenario.budget.gt", "scenario.budget.gr")  # their fields in a scenario file
ENDPOINTS = ("scenario.bs", "scenario.user")  # their sections in a scenario file
OUT_OF_RANGE = "loss factor or its inverse is out of float range"


def loss_factor(pathloss, *args) -> float:
    """pathloss(*args), or inf where that loss factor or its inverse is not
    finite and positive."""
    try:
        loss = pathloss(*args)
        return loss if 0.0 < 1.0 / loss < math.inf else math.inf
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _pattern_fault(kind, link: PanelLink, message: str, keys=("mx", "my", "dx", "dy")):
    """A pattern fault of the link's panel: a cosine's sign follows from
    the endpoints and the panel's keys (its element grid, or its centre in
    the far field)."""
    return kind(message, _panel_fields(link, keys), f"panel {link.index}", set_by=True)


def _panel_fields(link: PanelLink, keys=("mx", "my", "dx", "dy")) -> tuple[str, ...]:
    """The panel's keys and the endpoints, which set its cosines."""
    return (*(f"{link.section}.{key}" for key in keys), *ENDPOINTS)


@dataclass(frozen=True)
class LinkBudget:
    """Link-budget inputs in linear units (gains linear, powers in watts),
    positive but for eta_db."""

    gt: float
    gr: float
    tx_power: float
    noise_power: float
    eta_db: float
    xi: float

    def __post_init__(self):
        for name in ("tx_power", "noise_power", "gt", "gr"):
            value = getattr(self, name)
            if not value > 0:
                raise ScenarioError(f"must be positive in linear units, got {value!r}", (name,))
        if not self.xi > 0:
            raise ScenarioError("path-loss exponent must be positive", ("xi",))


def beta0_reference(gt: float, gr: float, dx: float, dy: float) -> float:
    """Element-aperture reference constant 16*pi^2 / (gt*gr*dx^2*dy^2)."""
    return 16.0 * math.pi**2 / (gt * gr * dx**2 * dy**2)


class NearFieldTiles:
    """One panel's near-field inverse loss factors, tile by tile, and its
    pattern faults.  ``links(rows, cols)`` gives a tile's distances r_t,
    r_r and endpoint cosines cos_tx, cos_rx; ``inverse_losses(rows, cols)``
    gives its beta^-1, row-major, of beta = beta0_ref * (r_t * r_r)^2 /
    pattern with the joint pattern cos_tx^(gt/2-1) * cos_t * cos_r *
    cos_rx^(gr/2-1).  From an endpoint at height h and distance d from the
    center, cos_tx / cos_rx is (r^2 + d^2 - d_m^2) / (2 d r) (law of
    cosines) and cos_t / cos_r is h / r; r^2 and d_m^2 (element to center)
    are outer sums of per-column and per-row squares, read before r is
    taken.  Where r and d_m dwarf d that numerator cancels, so a cosine
    it puts at <= 0 is taken again from the rays' dot product, (h^2 +
    (x - ex)(cx - ex) + (y - ey)(cy - ey)) / (d r), which does not.
    ``check`` then raises the panel's first fault: non-positive endpoint
    cosines (an endpoint past an element's perpendicular, which the
    fractional gain exponents cannot take), then a pattern that underflows
    or is not positive, each with the panel's element count and worst
    value.  A nan endpoint cosine (its squared distances overflowed) is
    no pattern fault: its loss is out of float range, which the caller's
    range check reports."""

    def __init__(
        self,
        bs: Point3,
        user: Point3,
        panel: RisPanel,
        link: PanelLink,
        beta0_ref: float,
        gt: float,
        gr: float,
    ):
        z0 = panel.center.z
        # per endpoint: its point, height over the plane, distance to the center
        self.ends = ((bs, bs.z - z0, link.d1), (user, user.z - z0, link.d2))
        self.panel, self.link, self.beta0_ref, self.gt, self.gr = panel, link, beta0_ref, gt, gr
        self.endpoint_count, self.endpoint_worst, self.nan_count = 0, math.inf, 0
        self.pattern_count, self.pattern_worst = 0, math.inf
        self.underflow = True  # every non-positive pattern has positive cos_t and cos_r

    @np.errstate(all="ignore")  # a nan or overflow is recorded or range-checked downstream
    def links(self, rows: range, cols: range) -> tuple[np.ndarray, ...]:
        """(r_t, r_r, cos_tx, cos_rx) of the tile of rows (y indices) and
        cols (x indices), each of shape (len(rows), len(cols))."""
        (bs, hb, d1), (user, hu, d2) = self.ends
        c = self.panel.center
        x = self.panel.element_x(cols)
        y = self.panel.element_y(rows)[:, None]
        # squared distances to the center, the BS and the user
        d_m2 = np.square(x - c.x) + np.square(y - c.y)
        r_t = (np.square(x - bs.x) + hb * hb) + np.square(y - bs.y)
        r_r = (np.square(x - user.x) + hu * hu) + np.square(y - user.y)
        cos_tx = r_t + d1 * d1
        cos_tx -= d_m2
        cos_rx = r_r + d2 * d2
        cos_rx -= d_m2
        np.sqrt(r_t, out=r_t)
        np.sqrt(r_r, out=r_r)
        scratch = d_m2  # the numerators have read it
        cos_tx /= np.multiply(r_t, 2.0 * d1, out=scratch)
        cos_rx /= np.multiply(r_r, 2.0 * d2, out=scratch)
        return r_t, r_r, cos_tx, cos_rx

    @np.errstate(all="ignore")  # a nan or overflow is recorded here or range-checked by the caller
    def inverse_losses(self, rows: range, cols: range) -> np.ndarray:
        """beta^-1 of the tile of rows (y indices) and cols (x indices),
        row-major; its pattern faults are recorded for check."""
        r_t, r_r, cos_tx, cos_rx = self.links(rows, cols)
        (_, hb, _), (_, hu, _) = self.ends
        # a tile's minima show whether it has a fault (or a nan) to record
        if not (cos_tx.min() > 0 and cos_rx.min() > 0):
            c, x, y = self.panel.center, self.panel.element_x(cols), self.panel.element_y(rows)
            for cos, (e, h, d), r in zip((cos_tx, cos_rx), self.ends, (r_t, r_r)):
                dot = h * h + (x - e.x) * (c.x - e.x) + (y[:, None] - e.y) * (c.y - e.y)
                np.copyto(cos, dot / d / r, where=cos <= 0)
            endpoint_cos = np.minimum(cos_tx, cos_rx)
            self.endpoint_count += int(np.count_nonzero(endpoint_cos <= 0))
            self.nan_count += int(np.count_nonzero(np.isnan(endpoint_cos)))
            # a reduction from the worst so far: a nan propagates as in one call
            self.endpoint_worst = endpoint_cos.min(initial=self.endpoint_worst)
        # a non-positive endpoint cosine to a fractional power is nan, and
        # check() reports that cosine instead; cos ** 0 is 1, even at nan
        scratch = np.empty_like(r_t)
        cos_tx **= self.gt / 2.0 - 1.0
        pattern = cos_tx
        pattern *= np.divide(hb, r_t, out=scratch)
        pattern *= np.divide(hu, r_r, out=scratch)
        cos_rx **= self.gr / 2.0 - 1.0
        pattern *= cos_rx
        if not pattern.min() > 0:
            bad = pattern <= 0
            count = int(np.count_nonzero(bad))
            if count:
                self.pattern_count += count
                self.underflow = self.underflow and bool(
                    np.all((hb / r_t[bad] > 0) & (hu / r_r[bad] > 0))
                )
            self.pattern_worst = pattern.min(initial=self.pattern_worst)
        loss = r_t  # beta0_ref * (r_t * r_r)^2 / pattern, then its inverse
        loss *= r_r
        loss *= loss
        loss *= self.beta0_ref
        loss /= pattern
        return np.divide(1.0, loss, out=loss).ravel()

    def check(self) -> None:
        """Raise the panel's first fault, if it has one."""
        gt, gr, link = self.gt, self.gr, self.link
        if self.endpoint_count:
            raise _pattern_fault(
                SingularPattern, link, "endpoint-side pattern cosines must be positive; "
                f"{self.endpoint_count} element(s) are not (worst {self.endpoint_worst:.4g})"
            )
        if not self.pattern_count or self.nan_count:
            return
        if self.underflow:
            raise PatternUnderflow(
                f"radiation pattern underflows to 0 at {self.pattern_count} element(s) although "
                f"every cosine is positive: a gain exponent (gt/2 - 1 = {gt / 2.0 - 1.0:g}, "
                f"gr/2 - 1 = {gr / 2.0 - 1.0:g}) is too large for this geometry",
                (*GAINS, *_panel_fields(link)), f"panel {link.index}",
            )
        raise _pattern_fault(
            SingularPattern, link, f"radiation pattern is not positive at {self.pattern_count} "
            f"element(s) (worst {self.pattern_worst:.4g}); check link geometry"
        )


def farfield_pathloss(link: PanelLink, beta0_ref: float) -> float:
    """Far-field loss factor shared by every element of a panel."""
    if link.cos_theta_t <= 0 or link.cos_theta_r <= 0:
        raise _pattern_fault(
            SingularPattern, link, "panel elevation cosine is not positive", ("center",)
        )
    return beta0_ref * (link.d1 * link.d2) ** 2 / (link.cos_theta_t * link.cos_theta_r)


def direct_pathloss(d0: float, eta_db: float, xi: float) -> float:
    """Direct BS-user loss factor from a log-distance model.

    The *inverse* loss in dB is eta_db - 10*xi*log10(d0); the returned
    linear value is the loss factor (>= 1 for any sensible budget).
    """
    inv_db = eta_db - 10.0 * xi * math.log10(d0)
    return 10.0 ** (-inv_db / 10.0)
