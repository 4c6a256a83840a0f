"""Per-frame Monte Carlo kernel: standard normals to gains to SINRs.

The SINRs themselves come from protocol.sinrs, the one place they are
written; this module only turns a block of normals into Rician power gains.
The Monte Carlo engine caches those gains per block and link set, so
frame_metrics takes them ready-made.
"""

from __future__ import annotations

import numpy as np

from . import protocol as pr
from .channel_models import LinkSet, rician_power_gain


def power_gains(z: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> list:
    """Per-link power gains, one length-n array per link, from normals.

    z has shape (n, 5, 2): one pair of normals per link, links in the fixed
    (au, ub, ue, ae, be) order; mu and sigma are the length-5 per-link
    amplitude parameters. Working one link at a time keeps numpy's inner
    loops n long, where a broadcast over the (n, 5) plane runs them 5 long.
    """
    return [rician_power_gain(mu[j], sigma[j], z[:, j, 0], z[:, j, 1])
            for j in range(5)]


def frame_metrics(gains, cfg: pr.ProtocolConfig, links: LinkSet):
    """Per-frame (gamma_main, gamma_e1, gamma_e2) from the five link gains,
    in the (au, ub, ue, ae, be) order power_gains returns them."""
    return pr.sinrs(cfg, links, *gains, cfg.source_power, cfg.jamming_power)
