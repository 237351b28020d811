"""Synthetic 2D point cloud generators.

All randomness flows from a single integer seed through numpy's PCG64
generator, so identical seeds reproduce identical clouds byte for byte.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

GENERATOR_NAME = "pcg64"


def _disks(seed: int, centers, counts, radius: float):
    """Uniform samples from equal disks, drawn disk by disk from one stream.
    Returns (points, disk index per point)."""
    rng = np.random.default_rng(seed)
    chunks = []
    for center, cnt in zip(centers, counts):
        r = radius * np.sqrt(rng.uniform(size=cnt))
        a = rng.uniform(0.0, 2.0 * np.pi, size=cnt)
        chunks.append(np.asarray(center)[None, :] + np.column_stack([r * np.cos(a), r * np.sin(a)]))
    return np.vstack(chunks), np.repeat(np.arange(len(counts)), counts)


def four_disks(n: int, seed: int, radius: float = 1.0):
    """Uniform samples from four disks of the given radius whose centers sit
    on the corners of a square with side four radii. Returns (points, disk
    index per point); n splits as evenly as possible across the disks."""
    if n < 4:
        raise InputError(f"four-disks needs at least 4 points, got {n}")
    half = 2.0 * radius
    centers = [(-half, -half), (half, -half), (half, half), (-half, half)]
    counts = [n // 4 + (1 if i < n % 4 else 0) for i in range(4)]
    return _disks(seed, centers, counts, radius)


def annulus(n: int, seed: int, r_inner: float = 1.0, r_outer: float = 2.0):
    """Uniform samples from a flat ring between the two radii."""
    if n < 1:
        raise InputError(f"annulus needs at least 1 point, got {n}")
    if not 0.0 < r_inner < r_outer:
        raise InputError(f"need 0 < r_inner < r_outer, got {r_inner}, {r_outer}")
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(r_inner**2, r_outer**2, size=n))
    a = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([r * np.cos(a), r * np.sin(a)])


def two_clusters(n: int, seed: int, radius: float = 1.0, separation: float = 4.0):
    """Uniform samples from two disks with centers the given distance apart.
    Returns (points, disk index per point)."""
    if n < 2:
        raise InputError(f"two-clusters needs at least 2 points, got {n}")
    centers = [(-separation / 2.0, 0.0), (separation / 2.0, 0.0)]
    return _disks(seed, centers, [n - n // 2, n // 2], radius)


def generate(preset: str, n: int, seed: int) -> np.ndarray:
    """Points for a named preset; ground-truth labels are dropped here."""
    if preset == "four-disks":
        return four_disks(n, seed)[0]
    if preset == "annulus":
        return annulus(n, seed)
    if preset == "two-clusters":
        return two_clusters(n, seed)[0]
    raise InputError(
        f"unknown preset {preset!r}; choose four-disks, annulus, or two-clusters"
    )
