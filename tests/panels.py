"""Panels for the tests: PanelChannel records built from inverse loss
factors, for the tests that state a panel by its beta^-1 values, and the
near-field kernel with one whole-panel call, for the tests that read a
panel's beta^-1 off it."""

import numpy as np

from riscap.channel import PanelChannel
from riscap.geometry import panel_link
from riscap.pathloss import NearFieldTiles


def panel_channel(beta_inv, rho, k1, k2) -> PanelChannel:
    """The panel of inverse losses beta_inv: amplitudes sqrt(beta_inv),
    root sum sum(sqrt(beta_inv)) and power sum sum(beta_inv), reduced as
    the workbench reduces a panel of one tile."""
    beta_inv = np.asarray(beta_inv, dtype=float)
    amplitude = np.sqrt(beta_inv)
    return PanelChannel(
        beta_inv.size,
        float(np.sum(amplitude)),
        float(np.sum(beta_inv)),
        rho,
        k1,
        k2,
        amplitude,
    )


def near_field(bs, user, p, gt=2.0, gr=2.0, b0=1.0, link=None) -> NearFieldTiles:
    """The panel's near-field kernel, by default with beta0_ref = 1, so
    that beta^-1 is pattern / (r_t r_r)^2."""
    return NearFieldTiles(bs, user, p, link or panel_link(bs, user, p), b0, gt, gr)


def whole_panel(kernel: NearFieldTiles) -> np.ndarray:
    """beta^-1 of every element of the kernel's panel from one
    inverse_losses call, row-major; raises the panel's pattern fault, if
    any."""
    p = kernel.panel
    beta_inv = kernel.inverse_losses(range(p.my), range(p.mx))
    kernel.check()
    return beta_inv
