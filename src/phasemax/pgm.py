"""Minimal binary PGM (P5, 8-bit) reader/writer plus a raw float64 sidecar
format for bit-exact error reporting."""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["read_pgm", "write_pgm", "write_f64_sidecar", "read_f64_sidecar"]


def _read_token(stream) -> bytes:
    """Next whitespace-delimited header token, skipping '#' comment lines."""
    token = b""
    while True:
        ch = stream.read(1)
        if ch == b"":
            raise ValueError("unexpected end of PGM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = stream.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM (P5) file into a (height, width) uint8 array."""
    with open(path, "rb") as fh:
        magic = _read_token(fh)
        if magic != b"P5":
            raise ValueError(f"not a binary PGM (P5) file: magic {magic!r}")
        width = int(_read_token(fh))
        height = int(_read_token(fh))
        maxval = int(_read_token(fh))
        if width < 1 or height < 1:
            raise ValueError(f"invalid PGM dimensions {width}x{height}")
        if not 0 < maxval < 256:
            raise ValueError(f"only 8-bit PGM supported, got maxval {maxval}")
        # What the file holds, not what the header declares: a header that
        # declares more pixels than the file holds must not size the read.
        data = fh.read()
        if len(data) < width * height:
            raise ValueError("truncated PGM pixel data")
    return np.frombuffer(data, dtype=np.uint8, count=width * height).reshape(height, width).copy()


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D array as an 8-bit binary PGM, clipping to [0, 255] and
    rounding to the nearest integer."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("image must be two-dimensional")
    pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_f64_sidecar(path, values: np.ndarray) -> None:
    """Write raw little-endian float64 values (no header)."""
    arr = np.asarray(values, dtype="<f8")
    Path(path).write_bytes(arr.tobytes())


def read_f64_sidecar(path) -> np.ndarray:
    """Read raw little-endian float64 values written by write_f64_sidecar."""
    return np.frombuffer(Path(path).read_bytes(), dtype="<f8").copy()
