"""PanelChannel records built from inverse loss factors, for the tests
that state a panel by its beta^-1 values."""

import numpy as np

from riscap.channel import PanelChannel


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
