"""Shared test helpers: pinned frame draws, the SINRs of a frame and the
Shannon capacity the secrecy rate is built from."""

import math

import numpy as np

from secrelay import channel_models as cm
from secrelay import protocol as pr


def draw_frames(links, stream, size):
    """size frames drawn link by link, all g1 then all g2 of each link.

    This stream layout fixes the pinned frame sets of the tests; the Monte
    Carlo engine draws its gains from (n, 5, 2) blocks of normals instead.
    """
    gains = []
    for link in links.ordered():
        mu, sigma = cm.amplitude_params(link.k_factor)
        g1 = stream.standard_normal(size)
        g2 = stream.standard_normal(size)
        gains.append(cm.rician_power_gain(mu, sigma, g1, g2))
    return pr.FrameRealization(*gains)


def frame_sinrs(cfg, frame, links):
    """(gamma_main, gamma_eve1, gamma_eve2) of a frame at cfg's powers."""
    return pr.sinrs(cfg, links, *frame.gains(), cfg.source_power, cfg.jamming_power)


def capacity(gamma):
    """Capacity 0.5 * log2(1 + gamma) in bits/s/Hz; the 1/2 is the two phases."""
    return 0.5 * np.log1p(gamma) / math.log(2.0)
