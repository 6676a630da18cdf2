"""2D sinusoidal encoding of normalized patch coordinates.

Each half of the output vector encodes one axis as interleaved (sin, cos)
pairs over a geometric ladder of frequencies, the same construction used for
1D sequence positions but applied to x and y separately. Because sin and cos
of a pair share their argument, the raw vector always has norm
sqrt(dim / 2); the encoder divides it out so encodings live on the unit
sphere regardless of dim.

``encode_batch`` is the only entry point: a single point is a one-row
batch. Coordinates come from ``types.grid_coords``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BASE", "encode_batch"]

# Geometric base of the frequency ladder, the usual sinusoidal constant.
BASE = 10000.0


def encode_batch(dim: int, coords: np.ndarray) -> np.ndarray:
    """Encode ``(n, 2)`` coordinates into ``(n, dim)`` unit-norm vectors.

    For axis value t and pair index m in [0, dim/4), the raw components are
    ``sin(t / BASE^(2m/H))`` and ``cos(t / BASE^(2m/H))`` with ``H = dim/2``.
    The x pairs fill the first half of the vector, the y pairs the second.

    Args:
        dim: Encoding width, a positive multiple of 4 (two axes, paired
            slots); anything else raises ValueError.
        coords: Array of (x, y) pairs, each in [0, 1]; a value outside
            raises ValueError.

    Returns:
        Read-only float64 array of unit-norm encodings.
    """
    if dim < 4 or dim % 4 != 0:
        raise ValueError(f"dim must be a positive multiple of 4, got {dim}")
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"coords must have shape (n, 2), got {pts.shape}")
    # Written so that a NaN coordinate fails the check too.
    if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):
        raise ValueError("coordinates must lie in [0, 1]")
    half = dim // 2
    m = np.arange(half // 2, dtype=np.float64)
    inv_freq = BASE ** (-2.0 * m / half)
    out = np.empty((pts.shape[0], dim), dtype=np.float64)
    for axis, start in ((0, 0), (1, half)):
        args = pts[:, axis : axis + 1] * inv_freq
        out[:, start : start + half : 2] = np.sin(args)
        out[:, start + 1 : start + half : 2] = np.cos(args)
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    out.setflags(write=False)
    return out

