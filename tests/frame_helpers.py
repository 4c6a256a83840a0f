"""Shared test helpers: pinned frame draws, the SINRs and allocation
constants of a frame, a brute-force allocation reference and the Shannon
capacity the secrecy rate is built from."""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from secrelay import channel_models as cm
from secrelay import optimize as opt
from secrelay import protocol as pr


class Frame(NamedTuple):
    """Small-scale power gains of frames, in the order protocol.sinrs takes
    them; scalars or equal-shape arrays, unchecked like the engine's."""

    s_au: object
    s_ub: object
    s_ue: object
    s_ae: object
    s_be: object


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
    return Frame(*gains)


def frame_sinrs(cfg, frame, links):
    """(gamma_main, gamma_eve1, gamma_eve2) of a frame at cfg's powers."""
    return pr.sinrs(cfg, links, *frame, cfg.source_power, cfg.jamming_power)


def frame_constants(cfg, frame, links):
    """optimize.SinrConstants of a frame, from its protocol.sinr_terms."""
    terms = pr.sinr_terms(cfg, frame.s_au, frame.s_ub, frame.s_ue,
                          links.au.large_scale_gain, links.ub.large_scale_gain,
                          links.ue.large_scale_gain)
    return opt.sinr_constants(cfg, links, terms, frame.s_ae, frame.s_be)


def phi(cfg, frame, links, allocation):
    """SINR gap ratio (gamma_main - gamma_eve) / (1 + gamma_eve) at an
    allocation; its sign is the sign of the instantaneous secrecy rate."""
    gamma_m, gamma_1, gamma_2 = frame_sinrs(
        replace(cfg, allocation=allocation), frame, links)
    gamma_e = np.maximum(gamma_1, gamma_2)
    return (gamma_m - gamma_e) / (1.0 + gamma_e)


PHI_GRID = np.arange(1e-3, 1.0, 1e-3)


def phi_grid_argmax(cfg, frame, links):
    """Per frame, the allocation on PHI_GRID that maximizes phi, ties to the
    lowest: the brute-force reference for the closed-form allocation."""
    values = np.stack([phi(cfg, frame, links, float(a)) for a in PHI_GRID])
    return PHI_GRID[np.argmax(values, axis=0)]


def capacity(gamma):
    """Capacity 0.5 * log2(1 + gamma) in bits/s/Hz; the 1/2 is the two phases."""
    return 0.5 * np.log1p(gamma) / math.log(2.0)
