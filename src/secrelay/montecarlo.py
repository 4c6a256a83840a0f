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
the normals once.
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

# Blocks kept by the draw cache: 16 x 8192 frames x (10 normals + 5 gains)
# x 8 bytes is about 15.7 MB, enough for the 13 blocks of the default
# 100k-frame plan.
CACHE_BLOCKS = 16


@dataclass
class _Block:
    """One cached block: its normals and the gains of the last link set.

    z is read-only, of shape (length, 5, 2). gains holds five read-only
    length-n arrays in (au, ub, ue, ae, be) order, computed from z for the
    amplitude parameters whose bytes are link_key.
    """

    z: np.ndarray
    link_key: bytes = b""
    gains: tuple = ()


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
    """Drop every cached block and its gains; the next estimate draws again."""
    with _cache_lock:
        _cache.clear()


def _draw(key: tuple[int, int, int]) -> _Block:
    seed, index, length = key
    z = block_stream(seed, index).standard_normal((length, 5, 2))
    z.flags.writeable = False
    return _Block(z)


def _link_arrays(links: LinkSet):
    mu = np.empty(5)
    sigma = np.empty(5)
    for j, link in enumerate(links.ordered()):
        mu[j], sigma[j] = amplitude_params(link.k_factor)
    return mu, sigma


def _gains(block: _Block, mu: np.ndarray, sigma: np.ndarray,
           link_key: bytes) -> tuple:
    """The block's gains for (mu, sigma), computed only on a new link set."""
    if block.link_key != link_key:
        gains = tuple(_kernels.power_gains(block.z, mu, sigma))
        for g in gains:
            g.flags.writeable = False
        block.link_key, block.gains = link_key, gains
    return block.gains


def _blocks(plan: SimulationPlan, spans, links: LinkSet) -> list[tuple]:
    """The per-link gains of each span, drawing only the blocks not cached.

    Missing blocks are drawn, and gains for a link set other than the one a
    block last saw are computed, on the calling thread under the cache lock,
    so concurrent callers that miss the same block draw it once.
    """
    mu, sigma = _link_arrays(links)
    link_key = mu.tobytes() + sigma.tobytes()
    keys = [(plan.seed, index, length) for index, length in spans]
    with _cache_lock:
        for key in keys:
            if key in _cache:
                _cache.move_to_end(key)
        missing = [key for key in keys if key not in _cache]
        # evict the least recently used before drawing, so old and new
        # blocks never exceed the bound
        while _cache and len(_cache) + len(missing) > CACHE_BLOCKS:
            _cache.popitem(last=False)
        for key in missing:
            _cache[key] = _draw(key)
        return [_gains(_cache[key], mu, sigma, link_key) for key in keys]


def _collect(plan: SimulationPlan, links: LinkSet, per_block):
    """Run per_block(gains) on each block's gains, results in block order.

    Blocks are evaluated on the calling thread. Plans longer than the cache
    go in chunks of CACHE_BLOCKS, so no block is drawn twice per call and
    memory stays bounded.
    """
    spans = _spans(plan.frames)
    results = []
    for start in range(0, len(spans), CACHE_BLOCKS):
        chunk = spans[start:start + CACHE_BLOCKS]
        results += [per_block(gains) for gains in _blocks(plan, chunk, links)]
    return results


def _nonfinite(gamma: np.ndarray) -> int:
    """Frames whose SINR is NaN or infinite.

    SINRs are non-negative, so one sum settles the all-finite case; the
    elementwise count runs only when that sum is not finite.
    """
    if math.isfinite(np.sum(gamma)):
        return 0
    return int(np.count_nonzero(~np.isfinite(gamma)))


class NonFiniteSinrError(ValueError):
    """Frames whose SINR left double range: the powers or gains are too large."""


def _require_finite(plan: SimulationPlan, bad: int) -> None:
    if bad:
        raise NonFiniteSinrError(
            f"{bad} of {plan.frames} frames gave a non-finite SINR; the "
            "configured powers or gains leave double range"
        )


def _binomial_estimate(plan: SimulationPlan, results) -> Estimate:
    hits = sum(h for h, _ in results)
    _require_finite(plan, sum(b for _, b in results))
    mean = hits / plan.frames
    std_error = math.sqrt(mean * (1.0 - mean) / plan.frames)
    return Estimate(mean=mean, std_error=std_error, frames=plan.frames, seed=plan.seed)


def _moment_estimate(plan: SimulationPlan, total: float, total_sq: float) -> Estimate:
    n = plan.frames
    mean = total / n
    if n > 1:
        var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    else:
        var = 0.0
    return Estimate(mean=mean, std_error=math.sqrt(var / n), frames=n, seed=plan.seed)


def _moment_sums(results) -> tuple[float, float, int]:
    """Fold per-block (sum, sum of squares, non-finite count) in block order."""
    total = 0.0
    total_sq = 0.0
    bad = 0
    for s1, s2, b in results:
        total += s1
        total_sq += s2
        bad += b
    return total, total_sq, bad


def estimate_cp(cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan) -> Estimate:
    """Probability that the destination decodes: fraction of frames with
    main-link SINR above the transmission threshold."""
    require_noise(cfg)
    delta = cfg.delta_t

    def per_block(gains):
        gamma_m, _, _ = _kernels.frame_metrics(gains, cfg, links)
        return int(np.count_nonzero(gamma_m > delta)), _nonfinite(gamma_m)

    return _binomial_estimate(plan, _collect(plan, links, per_block))


def estimate_sop(cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan) -> Estimate:
    """Probability of a secrecy outage: fraction of frames where the better of
    the eavesdropper's two SINRs clears the secrecy threshold."""
    require_noise(cfg)
    delta = cfg.delta_e

    def per_block(gains):
        _, gamma_1, gamma_2 = _kernels.frame_metrics(gains, cfg, links)
        gamma_e = np.maximum(gamma_1, gamma_2)
        return int(np.count_nonzero(gamma_e > delta)), _nonfinite(gamma_e)

    return _binomial_estimate(plan, _collect(plan, links, per_block))


def _nonfinite_sinrs(gains, cfg: ProtocolConfig, links: LinkSet) -> int:
    """Frames whose main or eavesdropper SINR at cfg's powers is not finite,
    counted as estimate_asr counts them."""
    gamma_m, gamma_1, gamma_2 = _kernels.frame_metrics(gains, cfg, links)
    return _nonfinite(gamma_m + np.maximum(gamma_1, gamma_2))


def estimate_asr(cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan) -> Estimate:
    """Average secrecy rate: mean clamped capacity gap in bits/s/Hz."""
    require_noise(cfg)

    def per_block(gains):
        gamma_m, gamma_1, gamma_2 = _kernels.frame_metrics(gains, cfg, links)
        gamma_e = np.maximum(gamma_1, gamma_2)
        rate = secrecy_rate(gamma_m, gamma_e)
        return (float(np.sum(rate)), float(np.dot(rate, rate)),
                _nonfinite(gamma_m + gamma_e))

    total, total_sq, bad = _moment_sums(_collect(plan, links, per_block))
    _require_finite(plan, bad)
    return _moment_estimate(plan, total, total_sq)


def estimate_functional(
    cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan, functional
) -> Estimate:
    """Mean of an arbitrary frame functional over the same gain stream the
    metric estimators consume.

    The functional receives the five read-only length-n gain arrays in
    (au, ub, ue, ae, be) order, as one tuple, and must return n real values.
    Frames whose SINRs at cfg's powers leave double range are refused as
    estimate_asr refuses them, whatever the functional does with the gains.
    """
    require_noise(cfg)

    def per_block(gains):
        bad_sinr = _nonfinite_sinrs(gains, cfg, links)
        if bad_sinr:
            return 0.0, 0.0, 0, bad_sinr
        length = len(gains[0])
        values = np.asarray(functional(gains), dtype=float)
        if values.shape != (length,):
            raise ValueError(
                f"functional returned shape {values.shape}, expected ({length},)"
            )
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            return 0.0, 0.0, bad, 0
        return float(np.sum(values)), float(np.dot(values, values)), 0, 0

    results = _collect(plan, links, per_block)
    _require_finite(plan, sum(r[3] for r in results))
    total, total_sq, bad = _moment_sums(r[:3] for r in results)
    if bad:
        raise ValueError(
            f"functional produced {bad} non-finite values over {plan.frames} frames"
        )
    return _moment_estimate(plan, total, total_sq)
