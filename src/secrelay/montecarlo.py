"""Seedable Monte Carlo engine for frame-level metric estimation.

Frames are partitioned into fixed-size blocks and block i draws from its own
Philox stream keyed by (seed, i), so gains depend only on the seed and the
frame's block, never on call order or caching. Partial sums are folded in
block order, making every estimate bit-reproducible.

Sweeps evaluate many configurations on the same seed (common random
numbers), so each block's normals are drawn once per process and kept in a
small bounded cache; later calls on the same (seed, block) read them back.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel_models import LinkSet, amplitude_params, sample_power_gain
from .protocol import FrameRealization, ProtocolConfig, capacity, require_noise

BLOCK_FRAMES = 8192

# Blocks kept by the draw cache: 16 x 8192 frames x 10 normals x 8 bytes is
# about 10.5 MB, enough for the 13 blocks of the default 100k-frame plan.
CACHE_BLOCKS = 16

# (seed, block index, length) -> read-only normals of shape (length, 5, 2),
# least recently used first. The lock guards callers on different threads.
_cache: OrderedDict[tuple[int, int, int], np.ndarray] = OrderedDict()
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


def sample_frame(links: LinkSet, stream: np.random.Generator, size=None) -> FrameRealization:
    """Draw one frame (or a batch) of independent per-link gains."""
    draws = {
        f"s_{link.link_id}": sample_power_gain(link.k_factor, stream, size)
        for link in links.ordered()
    }
    return FrameRealization(**draws)


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
    """Drop every cached block; the next estimate draws its normals again."""
    with _cache_lock:
        _cache.clear()


def _draw(key: tuple[int, int, int]) -> np.ndarray:
    seed, index, length = key
    z = block_stream(seed, index).standard_normal((length, 5, 2))
    z.flags.writeable = False
    return z


def _blocks(plan: SimulationPlan, spans) -> list[np.ndarray]:
    """The normals of each span, drawing only the blocks not cached.

    Missing blocks are drawn on the calling thread under the cache lock, so
    concurrent callers that miss the same block draw it once.
    """
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
        return [_cache[key] for key in keys]


def _collect(plan: SimulationPlan, per_block):
    """Run per_block(z) on each block's normals, results in block order.

    Blocks are evaluated on the calling thread. Plans longer than the cache
    go in chunks of CACHE_BLOCKS, so no block is drawn twice per call and
    memory stays bounded.
    """
    spans = _spans(plan.frames)
    results = []
    for start in range(0, len(spans), CACHE_BLOCKS):
        chunk = spans[start:start + CACHE_BLOCKS]
        results += [per_block(z) for z in _blocks(plan, chunk)]
    return results


def _link_arrays(links: LinkSet):
    mu = np.empty(5)
    sigma = np.empty(5)
    for j, link in enumerate(links.ordered()):
        mu[j], sigma[j] = amplitude_params(link.k_factor)
    return mu, sigma


def _nonfinite(gamma: np.ndarray) -> int:
    """Frames whose SINR is NaN or infinite.

    SINRs are non-negative, so one sum settles the all-finite case; the
    elementwise count runs only when that sum is not finite.
    """
    if math.isfinite(np.sum(gamma)):
        return 0
    return int(np.count_nonzero(~np.isfinite(gamma)))


def _require_finite(plan: SimulationPlan, bad: int) -> None:
    if bad:
        raise ValueError(
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
    mu, sigma = _link_arrays(links)
    delta = cfg.delta_t

    def per_block(z):
        gamma_m, _, _ = _kernels.frame_metrics(z, mu, sigma, cfg, links)
        return int(np.count_nonzero(gamma_m > delta)), _nonfinite(gamma_m)

    return _binomial_estimate(plan, _collect(plan, per_block))


def estimate_sop(cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan) -> Estimate:
    """Probability of a secrecy outage: fraction of frames where the better of
    the eavesdropper's two SINRs clears the secrecy threshold."""
    require_noise(cfg)
    mu, sigma = _link_arrays(links)
    delta = cfg.delta_e

    def per_block(z):
        _, gamma_1, gamma_2 = _kernels.frame_metrics(z, mu, sigma, cfg, links)
        gamma_e = np.maximum(gamma_1, gamma_2)
        return int(np.count_nonzero(gamma_e > delta)), _nonfinite(gamma_e)

    return _binomial_estimate(plan, _collect(plan, per_block))


def estimate_asr(cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan) -> Estimate:
    """Average secrecy rate: mean clamped capacity gap in bits/s/Hz."""
    require_noise(cfg)
    mu, sigma = _link_arrays(links)

    def per_block(z):
        gamma_m, gamma_1, gamma_2 = _kernels.frame_metrics(z, mu, sigma, cfg, links)
        gamma_e = np.maximum(gamma_1, gamma_2)
        rate = np.maximum(capacity(gamma_m) - capacity(gamma_e), 0.0)
        return (float(np.sum(rate)), float(np.dot(rate, rate)),
                _nonfinite(gamma_m + gamma_e))

    total, total_sq, bad = _moment_sums(_collect(plan, per_block))
    _require_finite(plan, bad)
    return _moment_estimate(plan, total, total_sq)


def estimate_functional(
    cfg: ProtocolConfig, links: LinkSet, plan: SimulationPlan, functional
) -> Estimate:
    """Mean of an arbitrary frame functional over the same gain stream the
    metric estimators consume. The functional receives a FrameRealization
    whose fields are length-n arrays and must return n real values."""
    require_noise(cfg)
    mu, sigma = _link_arrays(links)

    def per_block(z):
        length = len(z)
        frame = FrameRealization(*_kernels.power_gains(z, mu, sigma))
        values = np.asarray(functional(frame), dtype=float)
        if values.shape != (length,):
            raise ValueError(
                f"functional returned shape {values.shape}, expected ({length},)"
            )
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            return 0.0, 0.0, bad
        return float(np.sum(values)), float(np.dot(values, values)), 0

    total, total_sq, bad = _moment_sums(_collect(plan, per_block))
    if bad:
        raise ValueError(
            f"functional produced {bad} non-finite values over {plan.frames} frames"
        )
    return _moment_estimate(plan, total, total_sq)
