"""Seedable Monte Carlo engine for frame-level metric estimation.

Frames are partitioned into fixed-size blocks and block i draws from its own
Philox stream keyed by (seed, i), so gains depend only on the seed and the
frame's block, never on call order or caching. Partial sums are folded in
block order, making every estimate bit-reproducible.

Sweeps evaluate many configurations on the same seed (common random
numbers), so each block's normals are drawn once per process and kept in a
small bounded cache; later calls on the same (seed, block) read them back.
Beside the normals, each cached block keeps the per-link gains of the last
link set evaluated on it, so consecutive calls on one link set transform
the normals once, and the power-free half of its SINRs (protocol.sinr_terms)
at the last (beta, eta, zeta, N0) evaluated on those gains, so calls that
change only the two transmit powers pay only for the powers; a functional
of estimate_functional receives those terms beside the gains. An estimate
fetches its blocks one at a time, just before each is reduced: one locked
step draws the block, or finds it, and makes whatever of its gains and
terms the call needs.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel_models import LinkSet, amplitude_params
from .protocol import ProtocolConfig, require_noise, secrecy_rate

BLOCK_FRAMES = 8192

# Blocks kept by the draw cache: 16 x 8192 frames x (10 normals + 5 gains
# + 4 power-free SINR terms) x 8 bytes is about 19.9 MB (one more term with
# the residual-epsilon term on), enough for the 13 blocks of the default
# 100k-frame plan. A longer plan evicts its own earliest blocks as it goes,
# so repeated calls on it draw every block again.
CACHE_BLOCKS = 16


@dataclass
class _Block:
    """One cached block: its normals, the gains of the last link set and
    the power-free SINR terms of the last configuration on those gains.

    z is read-only, of shape (length, 5, 2). gains holds five read-only
    length-n arrays in (au, ub, ue, ae, be) order, computed from z for the
    amplitude parameters whose bytes are link_key. terms is the
    protocol.sinr_terms of those gains, read-only, for the link_key,
    large-scale gains and configuration in terms_key (_terms_key).
    """

    z: np.ndarray
    link_key: bytes = b""
    gains: tuple = ()
    terms_key: tuple = ()
    terms: tuple = ()


# (seed, block index, length) -> _Block, least recently used first. The
# lock guards callers on different threads.
_cache: OrderedDict[tuple[int, int, int], _Block] = OrderedDict()
_cache_lock = threading.Lock()


@dataclass(frozen=True)
class SimulationPlan:
    """How many frames to simulate, and from which seed."""

    frames: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("frames", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error and the provenance that made it."""

    mean: float
    std_error: float
    frames: int
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.std_error)):
            raise ValueError(
                f"estimate must be finite, got mean={self.mean}, "
                f"std_error={self.std_error}"
            )
        if self.std_error < 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")


def block_stream(seed: int, index: int) -> np.random.Generator:
    """The Philox stream that owns block `index`; independent across indices."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _spans(frames: int):
    return [
        (i, min(BLOCK_FRAMES, frames - i * BLOCK_FRAMES))
        for i in range((frames + BLOCK_FRAMES - 1) // BLOCK_FRAMES)
    ]


def clear_block_cache() -> None:
    """Drop every cached block, its gains and its SINR terms; the next
    estimate draws again."""
    with _cache_lock:
        _cache.clear()


def _link_arrays(links: LinkSet):
    mu = np.empty(5)
    sigma = np.empty(5)
    for j, link in enumerate(links.ordered()):
        mu[j], sigma[j] = amplitude_params(link.k_factor)
    return mu, sigma


def _terms_key(link_key: bytes, cfg: ProtocolConfig, links: LinkSet) -> tuple:
    """Everything _kernels.sinr_terms reads: the gains, through their
    link_key, and the rest of cfg and links it uses."""
    return (link_key, links.au.large_scale_gain, links.ub.large_scale_gain,
            links.ue.large_scale_gain, cfg.power_split,
            cfg.harvester_efficiency, cfg.processing_noise_ratio,
            cfg.noise_power, cfg.include_residual_epsilon)


def _block(key: tuple[int, int, int], mu: np.ndarray, sigma: np.ndarray,
           cfg: ProtocolConfig, links: LinkSet, terms_key: tuple) -> tuple:
    """(gains, SINR terms) of the block with this (seed, index, length) key,
    for the amplitude parameters (mu, sigma) and for terms_key, whose first
    field is their link_key; all read-only.

    One step under the cache lock looks the block up or draws it, then makes
    its gains on a new link set and its terms on a new terms_key, so
    concurrent callers that miss the same block draw it once, and terms are
    only ever stored beside the gains they were made from. A caller keeps
    the arrays it was handed even if another caller then replaces them in
    the cache.
    """
    link_key = terms_key[0]
    with _cache_lock:
        block = _cache.get(key)
        if block is None:
            # evict the least recently used before drawing, so old and new
            # blocks never exceed the bound
            while len(_cache) >= CACHE_BLOCKS:
                _cache.popitem(last=False)
            seed, index, length = key
            z = block_stream(seed, index).standard_normal((length, 5, 2))
            z.flags.writeable = False
            block = _cache[key] = _Block(z)
        else:
            _cache.move_to_end(key)
        # each renewal drops the old arrays first, so old and new are never
        # held at once
        if block.link_key != link_key:
            block.link_key, block.gains = b"", ()
            block.terms_key, block.terms = (), ()
            gains = tuple(_kernels.power_gains(block.z, mu, sigma))
            for g in gains:
                g.flags.writeable = False
            block.link_key, block.gains = link_key, gains
        if block.terms_key != terms_key:
            block.terms_key, block.terms = (), ()
            terms = _kernels.sinr_terms(block.gains, cfg, links)
            for t in terms:
                if t is not None:
                    t.flags.writeable = False
            block.terms_key, block.terms = terms_key, terms
        return block.gains, block.terms


def _gain_blocks(plan: SimulationPlan, links: LinkSet, cfg: ProtocolConfig):
    """Each block's gains and their SINR terms at cfg, in block order, on
    the calling thread.

    A block is fetched, or made, only when the caller asks for it, just
    before the block is reduced: so each block is drawn at most once per
    call however long the plan, and its arrays are still in the processor
    cache when the kernel reads them. Made for a whole 13-block plan first,
    the terms had left that cache, and a call that missed them all took
    twice as long in the kernel.
    """
    mu, sigma = _link_arrays(links)
    terms_key = _terms_key(mu.tobytes() + sigma.tobytes(), cfg, links)
    for index, length in _spans(plan.frames):
        yield _block((plan.seed, index, length), mu, sigma, cfg, links,
                     terms_key)


def _nonfinite(values: np.ndarray) -> int:
    """Entries that are NaN or infinite.

    Any such entry makes the sum non-finite, so one sum settles the
    all-finite case; the elementwise count runs only when that sum is not
    finite, which a sum of large finite values can also be.
    """
    with np.errstate(over="ignore"):
        if math.isfinite(np.sum(values)):
            return 0
    return int(np.count_nonzero(~np.isfinite(values)))


def _nonfinite_sum(gamma_m: np.ndarray, gamma_e: np.ndarray) -> int:
    """Frames where gamma_m + gamma_e is NaN or infinite, without forming it
    unless one is.

    SINRs are >= 0 or NaN, so no frame's sum exceeds the sum of the two
    totals: when that is finite, every frame's is. Only otherwise are the
    frames counted one by one, on gamma_m + gamma_e itself, so the count
    is exact; it includes frames where both SINRs are finite but their sum
    overflows.
    """
    with np.errstate(over="ignore"):
        if math.isfinite(float(np.add.reduce(gamma_m))
                         + float(np.add.reduce(gamma_e))):
            return 0
    return int(np.count_nonzero(~np.isfinite(gamma_m + gamma_e)))


class NonFiniteSinrError(ValueError):
    """Frames whose SINR left double range: the powers or gains are too large."""


def _estimate(cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan,
              values) -> Estimate:
    """Mean over the plan of the per-frame values(gains, terms, sinrs): the
    one per-block path behind every estimator.

    Each block's SINRs are computed once, at cfg's powers from its cached
    power-free terms, as the list
    [gamma_m, gamma_e], gamma_e the better of the eavesdropper's two. A
    frame where gamma_m + gamma_e is not finite is refused: from then on no
    block is reduced, and NonFiniteSinrError gives the count over the whole
    plan. Otherwise values maps the block's gains and cached terms to its
    per-frame values; a values function that does not read the SINRs
    empties the list, which releases them before it works on the block.
    Each block is reduced to a sum and a sum of squares, and the sums are
    folded in block order. Boolean values are hits and get the binomial
    standard error, real values the sample one.
    """
    require_noise(cfg)
    total = total_sq = 0.0
    refused = bad = 0
    for gains, terms in _gain_blocks(plan, links, cfg):
        gamma_m, gamma_1, gamma_2 = _kernels.frame_metrics(gains, cfg, links,
                                                           terms)
        sinrs = [gamma_m, np.maximum(gamma_1, gamma_2)]
        del gamma_m, gamma_1, gamma_2  # so that emptying sinrs frees them
        refused += _nonfinite_sum(*sinrs)
        if not refused:
            frame_values = values(gains, terms, sinrs)
            hits = frame_values.dtype == bool
            if hits:
                total += np.count_nonzero(frame_values)
            else:
                block_sum = float(np.sum(frame_values))
                if not math.isfinite(block_sum):
                    bad += _nonfinite(frame_values)
                total += block_sum
                total_sq += float(np.dot(frame_values, frame_values))
            del frame_values
        # no block's arrays outlive it, so the next block reuses their memory
        del sinrs
    if refused:
        raise NonFiniteSinrError(
            f"{refused} of {plan.frames} frames gave a non-finite SINR; the "
            "configured powers or gains leave double range"
        )
    if bad:
        raise ValueError(
            f"functional produced {bad} non-finite values over {plan.frames} frames"
        )
    n = plan.frames
    mean = total / n
    if hits:
        variance = mean * (1.0 - mean)
    elif n > 1:
        variance = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    else:
        variance = 0.0
    return Estimate(mean=mean, std_error=math.sqrt(variance / n), frames=n,
                    seed=plan.seed)


def estimate_cp(cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan) -> Estimate:
    """Probability that the destination decodes: fraction of frames with
    main-link SINR above the transmission threshold."""
    delta = cfg.delta_t
    return _estimate(cfg, links, plan,
                     lambda gains, terms, sinrs: sinrs[0] > delta)


def estimate_sop(cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan) -> Estimate:
    """Probability of a secrecy outage: fraction of frames where the better of
    the eavesdropper's two SINRs clears the secrecy threshold."""
    delta = cfg.delta_e
    return _estimate(cfg, links, plan,
                     lambda gains, terms, sinrs: sinrs[1] > delta)


def estimate_asr(cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan) -> Estimate:
    """Average secrecy rate: mean clamped capacity gap in bits/s/Hz."""
    return _estimate(cfg, links, plan,
                     lambda gains, terms, sinrs: secrecy_rate(*sinrs))


def estimate_functional(
    cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan, functional
) -> Estimate:
    """Mean of an arbitrary frame functional over the same gain stream the
    metric estimators consume.

    The functional is called as functional(gains, terms) once per block.
    gains holds the block's five read-only length-n gain arrays in
    (au, ub, ue, ae, be) order, as one tuple; terms is their read-only
    protocol.SinrTerms at cfg, the power-free half of the SINRs that the
    engine caches beside them, so a functional that needs the SINRs at
    other powers brings in only the powers (protocol.sinrs_from_terms). It
    must return n real values; another shape raises ValueError at once.
    Frames whose SINRs at cfg's powers leave double range are refused under
    the rule every estimator applies, whatever the functional does with the
    block; the functional sees no block from the first refused one on.
    Non-finite values raise ValueError with their count over the whole plan.
    """

    def values(gains, terms, sinrs):
        sinrs.clear()
        length = len(gains[0])
        frame_values = np.asarray(functional(gains, terms), dtype=float)
        if frame_values.shape != (length,):
            raise ValueError(
                f"functional returned shape {frame_values.shape}, expected ({length},)"
            )
        return frame_values

    return _estimate(cfg, links, plan, values)
