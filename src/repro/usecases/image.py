"""Image-correction use case (paper §4, third configuration).

The paper "mimics image correction with the beliefs in each bit's value
in a 32-bit image's pixels": 32 beliefs per node.  We realize it as MRF
denoising over a lattice: each pixel holds a distribution over 32
intensity levels, priors come from the observed noisy pixel through a
Gaussian noise likelihood, and a smoothness potential couples
neighbouring pixels (closer levels are more compatible) — the "same
error rate for any pixel applies to all others" assumption of §2.2.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import BeliefGraph
from repro.graphs.grids import grid_edges

__all__ = ["image_use_case", "smoothness_potential", "noisy_image_graph", "decode_image"]

N_LEVELS = 32


def smoothness_potential(
    n_levels: int = N_LEVELS, *, sigma: float = 1.2, truncation: float = 2.0
) -> np.ndarray:
    """Truncated-quadratic compatibility:
    ψ(a, b) ∝ exp(−min(|a−b|, truncation)² / 2σ²).

    The truncation is the standard edge-preserving robustness trick
    (Boykov/Felzenszwalb stereo potentials): neighbouring pixels prefer
    close levels, but a genuine step edge costs no more than the
    truncation, so BP smooths noise without blurring boundaries.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if truncation <= 0:
        raise ValueError("truncation must be positive")
    levels = np.arange(n_levels)
    diff = np.minimum(np.abs(levels[:, None] - levels[None, :]), truncation)
    mat = np.exp(-(diff.astype(np.float64) ** 2) / (2.0 * sigma**2))
    return (mat / mat.sum(axis=1, keepdims=True)).astype(np.float32)


def _noise_likelihood(observed: np.ndarray, n_levels: int, noise_sigma: float) -> np.ndarray:
    levels = np.arange(n_levels, dtype=np.float64)
    diff = observed.reshape(-1, 1) - levels[None, :]
    logp = -(diff**2) / (2.0 * noise_sigma**2)
    logp -= logp.max(axis=1, keepdims=True)
    p = np.exp(logp)
    return (p / p.sum(axis=1, keepdims=True)).astype(np.float32)


def image_use_case(
    rng: np.random.Generator,
    n_nodes: int,
    *,
    n_levels: int = N_LEVELS,
    noise_sigma: float = 3.0,
    smooth_sigma: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Priors and shared potential for an arbitrary topology: random
    "observed" levels pushed through the noise likelihood (used when the
    benchmark overlays 32 beliefs on a non-grid graph)."""
    observed = rng.integers(0, n_levels, size=n_nodes).astype(np.float64)
    priors = _noise_likelihood(observed, n_levels, noise_sigma)
    return priors, smoothness_potential(n_levels, sigma=smooth_sigma)


def noisy_image_graph(
    clean: np.ndarray,
    *,
    noise_sigma: float = 3.0,
    smooth_sigma: float = 1.0,
    truncation: float = 2.0,
    n_levels: int = N_LEVELS,
    seed: int = 0,
) -> tuple[BeliefGraph, np.ndarray]:
    """Build the denoising MRF for a 2-D integer image.

    Gaussian noise (σ = ``noise_sigma``) corrupts ``clean``; pixel priors
    are the per-level likelihoods of the noisy observation.  Returns
    ``(graph, noisy_image)``; decode the posterior with
    :func:`decode_image`.
    """
    clean = np.asarray(clean)
    if clean.ndim != 2:
        raise ValueError("clean image must be 2-D")
    if clean.min() < 0 or clean.max() >= n_levels:
        raise ValueError(f"pixel levels must lie in [0, {n_levels})")
    rng = np.random.default_rng(seed)
    noisy = clean + rng.normal(0.0, noise_sigma, size=clean.shape)
    noisy = np.clip(np.rint(noisy), 0, n_levels - 1)
    priors = _noise_likelihood(noisy.reshape(-1), n_levels, noise_sigma)
    edges = grid_edges(*clean.shape)
    graph = BeliefGraph.from_undirected(
        priors,
        edges,
        smoothness_potential(n_levels, sigma=smooth_sigma, truncation=truncation),
        dedupe=False,
    )
    return graph, noisy.astype(np.int64)


def decode_image(beliefs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """MAP decode: most probable level per pixel, reshaped to the image."""
    return beliefs.argmax(axis=1).reshape(shape)
