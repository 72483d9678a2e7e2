"""Deterministic hashing primitives.

Replaces the reference's non-reproducible sampling/partition hashes
(``xxHash32(lastname) % 100`` at
/root/reference/database/pubmed_inner_outer_feature.sql:679-681 and the
``xxHash64(concat(pm_ao, now64()))`` shuffles at :441,448) with fully
keyed, seed-stable hashes. Never uses Python's builtin ``hash()``
(PYTHONHASHSEED-dependent).
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

MASK64 = (1 << 64) - 1
# splitmix64 constants (public domain, Steele et al. 2014)
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB


def crc32_mod(s: str, mod: int = 100) -> int:
    """Deterministic split-group partitioner: ``crc32(s) % mod``
    (analog of ``xxHash32(lastname) % 100``)."""
    return zlib.crc32(s.encode("utf-8")) % mod


def stable_hash64(s: str, seed: int = 0) -> int:
    """64-bit stable string hash via blake2b (keyed by seed)."""
    h = hashlib.blake2b(
        s.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    )
    return int.from_bytes(h.digest(), "little")


def md5_u64(s: str) -> int:
    """First 8 md5 digest bytes as little-endian uint64 — the ONE hash
    with an exact DuckDB equivalent (``md5_number_upper(s)``), used
    wherever a derived value must be reproducible inside a SQL oracle
    (page-corpus structure, simhash token hashes, rolling fingerprints)."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "little")


def md5_u64_array(strings) -> np.ndarray:
    """Vectorized-ish md5_u64 over an iterable of strings -> uint64[n]."""
    out = np.empty(len(strings), dtype=np.uint64)
    for i, s in enumerate(strings):
        out[i] = int.from_bytes(
            hashlib.md5(s.encode("utf-8")).digest()[:8], "little"
        )
    return out


_U = np.uint64


def splitmix64(x: np.ndarray | int):
    """Vectorized splitmix64 finalizer — cheap avalanche for integer keys.
    uint64 addition and multiplication wrap mod 2^64 by design, so no
    mask is needed; every step runs in place on one fresh copy of the
    input. Inputs always go through ARRAY ops (scalars promoted to
    1-element arrays): numpy only emits overflow warnings for scalar uint
    ops, so no errstate context is needed — a per-call context manager
    costs more than the hash itself on small arrays."""
    arr = np.array(x, dtype=np.uint64)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    arr += _U(_SM_GAMMA)
    arr ^= arr >> _U(30)
    arr *= _U(_SM_M1)
    arr ^= arr >> _U(27)
    arr *= _U(_SM_M2)
    arr ^= arr >> _U(31)
    return arr[0] if scalar else arr


def hash64_array(strings, seed: int = 0) -> np.ndarray:
    """Stable 64-bit hashes for an iterable of strings -> uint64 ndarray:
    the little-endian keyed blake2b-64 digest of each string's utf-8
    bytes. The keyed state is set up once and copied per string."""
    base = hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little"))

    def digest(s: str) -> bytes:
        h = base.copy()
        h.update(s.encode("utf-8"))
        return h.digest()

    return np.frombuffer(b"".join(map(digest, strings)), dtype="<u8").astype(np.uint64)


_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv64(s: str | bytes, seed: int = 0) -> int:
    """Scalar reference for :func:`fnv64_arrow`: seed-mixed FNV-1a over
    the utf-8 bytes + splitmix64 finalizer."""
    b = s.encode("utf-8") if isinstance(s, str) else s
    h = _FNV_BASIS ^ int(splitmix64(np.uint64(seed)))
    for byte in b:
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return int(splitmix64(np.uint64(h)))


def fnv64_arrow(arr, seed: int = 0) -> np.ndarray:
    """Vectorized 64-bit string hash for a pyarrow string Array:
    seed-mixed FNV-1a over the raw utf-8 data buffer (zero-copy) with a
    splitmix64 finalizer, computed position-wise over LENGTH-SORTED rows
    so the active set is always a shrinking prefix — total work equals
    total bytes, with no per-string Python in the loop.

    For INTERNAL hash payloads only (token/shingle sets, host keys):
    nothing external pins these values — jaccard/minhash features are
    hash-function-invariant over collision-free sets, and the flagship
    oracle checks cluster structure, not hash bytes. The corpus
    generator, sampling and salting keep the keyed-blake2b
    ``stable_hash64`` (frozen fixtures depend on it); SQL-mirrored
    sketches keep ``md5_u64``. ~15x faster than the hashlib loop at
    bench dictionary sizes."""
    import pyarrow as pa

    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    n = len(arr)
    if n == 0:
        return np.empty(0, np.uint64)
    bufs = arr.buffers()
    large = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    width = np.int64 if large else np.int32
    offs = np.frombuffer(bufs[1], dtype=width)[
        arr.offset : arr.offset + n + 1
    ].astype(np.int64)
    lens = np.diff(offs)
    h = np.full(
        n, np.uint64(_FNV_BASIS) ^ splitmix64(np.uint64(seed)), np.uint64
    )
    maxlen = int(lens.max()) if n else 0
    if maxlen and bufs[2] is not None:
        data = np.frombuffer(bufs[2], dtype=np.uint8)
        order = np.argsort(-lens, kind="stable")
        starts = offs[:-1][order]
        ls = lens[order]
        hs = h[order]
        prime = np.uint64(_FNV_PRIME)
        k = n
        for p in range(maxlen):
            # rows with ls > p form a prefix of the length-sorted order
            while k > 0 and ls[k - 1] <= p:
                k -= 1
            if k == 0:
                break
            b = data[starts[:k] + p].astype(np.uint64)
            hs[:k] = (hs[:k] ^ b) * prime
        h[order] = hs
    return splitmix64(h)
