"""Flat binary container for torus fields.

Layout: magic b"TFLD", then u32 little-endian (version, d, n, rank), then the
payload as row-major little-endian float64.  Rank 0 holds one scalar array,
rank 1 holds d component arrays back to back.  Reports reference fields by
the sha256 of the whole file content.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from pathlib import Path

import numpy as np

from .torus import Field, ScalarField, TorusGrid, VectorField

MAGIC = b"TFLD"
VERSION = 1


def _header(grid: TorusGrid, rank: int) -> bytes:
    return MAGIC + struct.pack("<III I", VERSION, grid.dim, grid.n, rank)


def field_bytes(f: Field) -> bytes:
    if isinstance(f, ScalarField):
        payload = f.values.astype("<f8").tobytes(order="C")
        return _header(f.grid, 0) + payload
    chunks = [_header(f.grid, 1)]
    for c in f.components:
        chunks.append(c.values.astype("<f8").tobytes(order="C"))
    return b"".join(chunks)


def _payload(a: np.ndarray) -> memoryview:
    """The bytes of one array as the container stores them, without a copy
    unless a is not C-contiguous (a broadcast field) or not little-endian
    float64."""
    if not (a.flags.c_contiguous and a.dtype == np.dtype("<f8")):
        a = np.ascontiguousarray(a, dtype="<f8")
    return memoryview(a).cast("B")


def write_field(path: str | Path, f: Field) -> str:
    """Write a field; returns its content hash.  The header, then each
    component, is hashed and written straight from the field's arrays:
    the file holds `field_bytes(f)`, with no copy of it in memory."""
    scalar = isinstance(f, ScalarField)
    chunks = itertools.chain([_header(f.grid, 0 if scalar else 1)],
                             (_payload(c.values) for c in ([f] if scalar else f.components)))
    digest = hashlib.sha256()
    with open(path, "wb") as out:
        for chunk in chunks:
            digest.update(chunk)
            out.write(chunk)
    return digest.hexdigest()


def content_hash(f: Field) -> str:
    return hashlib.sha256(field_bytes(f)).hexdigest()


def read_field(path: str | Path) -> Field:
    """The field in a TFLD file; ValueError if the file is not one, or its
    length is not the header's 20 bytes plus the payload it announces."""
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: not a TFLD container")
    off = 4 + 16
    if len(data) < off:
        raise ValueError(f"{path}: {len(data)} bytes, expected a {off}-byte header")
    version, d, n, rank = struct.unpack_from("<III I", data, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported TFLD version {version}")
    if rank not in (0, 1):
        raise ValueError(f"{path}: unsupported rank {rank}")
    grid = TorusGrid(dim=d, n=n)
    count = n ** d
    expected = off + (d if rank else 1) * count * 8
    if len(data) != expected:
        raise ValueError(f"{path}: {len(data)} bytes, expected {expected}")
    if rank == 0:
        vals = np.frombuffer(data, dtype="<f8", count=count, offset=off)
        return ScalarField(grid, vals.reshape(grid.shape).copy())
    comps = []
    for _ in range(d):
        vals = np.frombuffer(data, dtype="<f8", count=count, offset=off)
        comps.append(ScalarField(grid, vals.reshape(grid.shape).copy()))
        off += count * 8
    return VectorField.from_components(comps)
