"""Per-frame Monte Carlo kernel: standard normals to gains to SINRs.

The SINRs themselves come from protocol.sinrs's two halves, the one place
they are written; this module only turns a block of normals into Rician
power gains and hands the gains to those halves. The Monte Carlo engine
caches the gains per block and link set, and beside them the power-free
half (sinr_terms) per block and (beta, eta, zeta, N0), so frame_metrics
takes both ready-made and pays only for the two powers.
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


def sinr_terms(gains, cfg: pr.ProtocolConfig, links: LinkSet) -> pr.SinrTerms:
    """protocol.sinr_terms of the five link gains, in the (au, ub, ue, ae,
    be) order power_gains returns them."""
    return pr.sinr_terms(cfg, *gains[:3], links.au.large_scale_gain,
                         links.ub.large_scale_gain, links.ue.large_scale_gain)


def frame_metrics(gains, cfg: pr.ProtocolConfig, links: LinkSet,
                  terms: pr.SinrTerms):
    """Per-frame (gamma_main, gamma_e1, gamma_e2) at cfg's powers from the
    five link gains, in the (au, ub, ue, ae, be) order power_gains returns
    them, and their sinr_terms at cfg."""
    s_au, s_ub, _, s_ae, s_be = gains
    return pr.sinrs_from_terms(cfg, links, terms, s_au, s_ub, s_ae, s_be,
                               cfg.source_power, cfg.jamming_power)
