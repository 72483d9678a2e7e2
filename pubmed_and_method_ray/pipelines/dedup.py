"""Deduplication operators over the ``documents`` table.

The reference's dedup surface is exact-key only (SURVEY.md §2.7 D1-D4:
``arrayDistinct`` / ``groupUniqArray`` / canonical-pair dedup at
/root/reference/database/and_datasets.sql:62-68); the near-dup family
(MinHash-LSH, SimHash, n-gram Jaccard, embedding cosine) is the
training-data-pipeline extension this engine adds as first-class
operators.

Token semantics for the SQL-oracle-checked ops are deliberately simple
and *identical* on both sides: ``distinct(split(lower(text), ' '))`` —
jaccard is then a ratio of integer counts, so the float is bit-identical
between Ray and DuckDB.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..rayutil import (
    join_partitions,
    keyed_exchange,
    shuffle_partitions,
    sized_partitions,
)


def _read_documents(sf_dir: str, columns=None):
    """Documents read: bytes-aware block count (most dedup ops feed an
    exchange, whose split cost is blocks x partitions slices — see
    ``sources.io.sized_read_blocks``)."""
    from ..sources.io import read_parquet_sized

    return read_parquet_sized(f"{sf_dir}/documents.parquet", columns=columns)


# -- token and gram hashes (the oracles' ``str_split(lower(text), ' ')``) --

def _token_hashes(text) -> tuple[np.ndarray, np.ndarray]:
    """Text column -> (flat md5_u64 token hashes, per-doc offsets). A
    null text is ``""``, which splits to one empty token, so every doc
    has >= 1 token. Lowering is Arrow's ``utf8_lower``, which agrees
    with DuckDB's ``lower`` ('ΣΑΣ' -> 'σασ', where Python gives 'σας').
    md5 runs once per DISTINCT token of the batch; md5_u64 equals
    DuckDB's ``md5_number_upper``."""
    import pyarrow.compute as pc

    from ..functions.hashing import md5_u64_array

    text = text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text
    toks = pc.split_pattern(pc.utf8_lower(pc.fill_null(text, "")), pattern=" ")
    offs = np.asarray(toks.offsets, dtype=np.int64)
    enc = toks.values.slice(offs[0], offs[-1] - offs[0]).dictionary_encode()
    th = md5_u64_array(enc.dictionary.to_pylist())
    return th[np.asarray(enc.indices, dtype=np.int64)], offs - offs[0]


def _doc_grams(text, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Text column -> (per-doc sorted-distinct k-gram hashes, flat
    uint64; int64 doc offsets). A gram hash is the splitmix64 fold of
    its k token hashes (h_0 = seed; h_j = sm64(h ^ th_j),
    ``mention_prep._masked_gram_fold``); a doc with fewer than k tokens
    folds all of them into ONE gram, so every doc has >= 1 gram. The
    per-doc distinct step is one lexsort over the batch."""
    from ..stages.mention_prep import _masked_gram_fold

    th, offs = _token_hashes(text)
    h, doc_of = _masked_gram_fold(th, offs, k, seed)
    order = np.lexsort((h, doc_of))
    hs, ds = h[order], doc_of[order]
    keep = np.ones(len(hs), dtype=bool)
    keep[1:] = (hs[1:] != hs[:-1]) | (ds[1:] != ds[:-1])
    lens = np.bincount(ds[keep], minlength=len(offs) - 1)
    return hs[keep], np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)


# -- exact dedup (D2/D4 analog): hash-partition + per-group min ------------

def dedup_exact(sf_dir: str):
    """One surviving doc_id (the min) per distinct text.
    Ray shape: vectorized content-hash map_batches -> groupby(hash) ->
    per-group min. Oracle: GROUP BY md5(text)."""
    import pyarrow.compute as pc

    def add_hash(t: pa.Table) -> pa.Table:
        hashes = [hashlib.md5((x or "").encode("utf-8")).hexdigest() for x in t["text"].to_pylist()]
        return pa.Table.from_pydict(
            {"text_hash": pa.array(hashes, pa.string()), "doc_id": t["doc_id"]}
        )

    from ..rayutil import sized_groupby_agg
    from ..sources.io import _local_bytes

    ds = _read_documents(sf_dir, columns=["doc_id", "text"])
    return sized_groupby_agg(
        ds.map_batches(add_hash, batch_format="pyarrow"),
        ["text_hash"],
        [("doc_id", "min", "doc_id")],
        n_bytes=_local_bytes(f"{sf_dir}/documents.parquet"),
    )


# -- within-block pair jaccard (the oracle-checked near-dup kernel) --------

def pair_jaccard_docs(sf_dir: str, threshold: float | None = None, n_max: int = 1024):
    """All C(n,2) doc pairs within (lang, source) blocks with token-set
    jaccard — the reference's block pair-gen (and_datasets.sql:44-79)
    fused with its jaccard kernel (string_utils.py:99-109).

    Scale shape: token sets hash ONCE per doc (sorted-unique uint64
    arrays), pair intersections run on the searchsorted kernels from
    stages/features.py (no Python sets in the pair loop), and blocks
    larger than ``n_max`` are salted with the exact triangle-join
    replication from stages/blocking.py so one mega (lang, source)
    block fans out across the cluster instead of pinning one task."""
    import math

    import ray

    from ..functions.hashing import hash64_array

    ds = _read_documents(sf_dir, columns=["doc_id", "text", "lang", "source"])

    # block census: (lang, source) cardinality is bounded (langs x
    # sources), so the skew table is constant-sized driver state
    from ..rayutil import sized_groupby_agg
    from ..sources.io import _local_bytes

    census = sized_groupby_agg(
        _read_documents(sf_dir, columns=["lang", "source"]),
        ["lang", "source"],
        [("", "count", "n")],
        n_bytes=_local_bytes(f"{sf_dir}/documents.parquet"),
    ).to_pandas()
    sizes = {
        (r.lang, r.source): int(r.n) for r in census.itertuples(index=False)
    }
    sizes_ref = ray.put(sizes)

    def replicate(t: pa.Table) -> pa.Table:
        """Vectorized triangle-join salt replication: each doc goes to
        every salt-group pair containing its salt. Block identity rides
        as SEPARATE (lang, source, sa, sb) exchange-key columns — no
        delimiter-joined group string, so values containing '|' cannot
        collide distinct blocks."""
        from ..stages.features import gather_list_rows
        from ..stages.mention_prep import get_broadcast

        sz = get_broadcast(sizes_ref)
        ids = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        langs = t["lang"].to_pylist()
        srcs = t["source"].to_pylist()
        texts = t["text"].to_pylist()
        n = len(ids)
        toks = [
            np.unique(hash64_array((x or "").lower().split(" "), seed=0x7A))
            for x in texts
        ]
        S = np.fromiter(
            (max(1, math.ceil(sz[(l, s)] / n_max)) for l, s in zip(langs, srcs)),
            dtype=np.int64,
            count=n,
        )
        p = ids % S
        total = int(S.sum())
        out_idx = np.repeat(np.arange(n, dtype=np.int64), S)
        q = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(S) - S, S)
        pe = p[out_idx]
        lens = np.fromiter((len(x) for x in toks), dtype=np.int64, count=n)
        base_off = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        flat = np.concatenate(toks) if n else np.empty(0, np.uint64)
        rep_flat, rep_lens = gather_list_rows(base_off, flat, out_idx)
        offsets = np.concatenate([[0], np.cumsum(rep_lens)]).astype(np.int64)
        tl = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), pa.array(rep_flat, pa.uint64())
        ).cast(pa.list_(pa.uint64()))
        take = pa.array(out_idx, pa.int64())
        return pa.Table.from_pydict(
            {
                "sa": pa.array(np.minimum(pe, q).astype(np.int32), pa.int32()),
                "sb": pa.array(np.maximum(pe, q).astype(np.int32), pa.int32()),
                "part": pa.array(pe.astype(np.int32), pa.int32()),
                "doc_id": t["doc_id"].take(take),
                "lang": t["lang"].take(take),
                "source": t["source"].take(take),
                "th": tl,
            }
        )

    def group_pairs(t: pa.Table) -> pa.Table:
        """Segment by (lang-code, source-code, sa, sb) via lexsort, build
        ALL pair index arrays (triu within / repeat-tile cross), then one
        vectorized multi-pair jaccard — no per-pair Python."""
        from ..stages.features import pairwise_jaccard

        empty = pa.Table.from_pydict(
            {
                "doc_id1": pa.array([], pa.int64()),
                "doc_id2": pa.array([], pa.int64()),
                "lang": pa.array([], pa.string()),
                "source": pa.array([], pa.string()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        t = t.combine_chunks()
        lenc = t["lang"].combine_chunks().dictionary_encode()
        senc = t["source"].combine_chunks().dictionary_encode()
        cl = np.asarray(lenc.indices, dtype=np.int64)
        cs = np.asarray(senc.indices, dtype=np.int64)
        block_code = cl * (int(cs.max()) + 1 if len(cs) else 1) + cs
        sa = np.asarray(t["sa"].to_numpy(zero_copy_only=False))
        sb = np.asarray(t["sb"].to_numpy(zero_copy_only=False))
        part = np.asarray(t["part"].to_numpy(zero_copy_only=False))
        ids = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        arr = t["th"].combine_chunks() if isinstance(t["th"], pa.ChunkedArray) else t["th"]
        off = np.asarray(arr.offsets)
        vals = arr.values.to_numpy(zero_copy_only=False)

        order = np.lexsort((sb, sa, block_code))
        bc_s, a_s, b_s = block_code[order], sa[order], sb[order]
        change = np.nonzero(
            (bc_s[1:] != bc_s[:-1]) | (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
        )[0] + 1
        bounds = np.concatenate([[0], change, [len(order)]])

        gis, gjs = [], []
        for s0, s1 in zip(bounds[:-1], bounds[1:]):
            seg = order[s0:s1]
            a_id, b_id = int(a_s[s0]), int(b_s[s0])
            if a_id == b_id:
                rows = seg[part[seg] == a_id]
                rows = rows[np.argsort(ids[rows], kind="stable")]
                if len(rows) > 1:
                    iu, ju = np.triu_indices(len(rows), k=1)
                    gis.append(rows[iu])
                    gjs.append(rows[ju])
            else:
                ra = seg[part[seg] == a_id]
                rb = seg[part[seg] == b_id]
                if len(ra) and len(rb):
                    gis.append(np.repeat(ra, len(rb)))
                    gjs.append(np.tile(rb, len(ra)))
        if not gis:
            return empty
        gi = np.concatenate(gis)
        gj = np.concatenate(gjs)
        jac = pairwise_jaccard(off, vals, gi, off, vals, gj)
        if threshold is not None:
            keep = jac >= threshold
            gi, gj, jac = gi[keep], gj[keep], jac[keep]
        if not len(gi):
            return empty
        lo = np.minimum(ids[gi], ids[gj])
        hi = np.maximum(ids[gi], ids[gj])
        take = pa.array(gi, pa.int64())
        return pa.Table.from_pydict(
            {
                "doc_id1": pa.array(lo, pa.int64()),
                "doc_id2": pa.array(hi, pa.int64()),
                "lang": t["lang"].take(take),
                "source": t["source"].take(take),
                "jaccard": pa.array(jac, pa.float64()),
            }
        )

    return (
        ds.map_batches(replicate, batch_format="pyarrow")
        .repartition(
            num_blocks=shuffle_partitions(), keys=["lang", "source", "sa", "sb"]
        )
        .map_batches(group_pairs, batch_format="pyarrow", batch_size=None)
    )


def dedup_ngram_jaccard(sf_dir: str, threshold: float = 0.6):
    """Near-dup pairs: jaccard >= threshold within (lang, source) blocks."""
    return pair_jaccard_docs(sf_dir, threshold=threshold)


# -- MinHash + LSH near-dup (banding -> bucket groupby -> verify) ----------

class _SketchBander:
    """Task map (an instance holds three ints, so ``map_batches`` runs it
    as plain tasks): text -> ONE row per doc: (doc_id, sh, bands).

    ``sh``: the doc's sorted-distinct token 3-shingle hashes from
    ``_doc_grams`` (fold seed 0x53) as raw LE bytes (binary because
    Acero hash joins reject list-typed payloads). md5 token hashes and
    the splitmix64 fold keep the construction exactly reproducible in
    SQL (md5_number_upper + the splitmix64 CTEs of the DuckDB oracle).
    Shingles, not unigram tokens: corpora with a shared small vocabulary
    make every doc-pair's TOKEN jaccard high (bucket explosion), while
    shingle sets are order-sensitive and distinctive — the standard
    MMDS ch.3 construction.

    ``bands``: the doc's n_bands band keys, each a
    ``fixed_size_binary(8 * (rows + 1))`` value holding the band index
    and then the band's ``rows`` signature words as raw LE uint64. Two keys are
    equal exactly when the band index and every signature word are, so
    bucketing on them introduces no hash collision.

    Fused sketch+banding: no payload column crosses an exchange —
    downstream ops explode/select from the materialized parent, and the
    LSH exchange itself carries only (band_key, doc_id). Every step is
    batch-vectorized: the gram kernel, the (grams x num_perm) minhash
    via ``minimum.reduceat``, and the band keys as one reshape of the
    signature matrix."""

    SHINGLE_SEED = 0x53  # fold init; 83 in the SQL oracle
    MINHASH_SEED = 7  # seeds = sm64(arange(1..num_perm) * (seed+1))

    def __init__(self, num_perm: int = 64, n_bands: int = 16, shingle_k: int = 3):
        self.num_perm = num_perm
        self.n_bands = n_bands
        self.shingle_k = shingle_k

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..functions.hashing import splitmix64

        num_perm, n_bands = self.num_perm, self.n_bands
        rows = num_perm // n_bands
        key_type = pa.binary(8 * (rows + 1))  # band index + rows words
        n_docs = t.num_rows
        if n_docs == 0:
            return pa.Table.from_pydict(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "sh": pa.array([], pa.large_binary()),
                    "bands": pa.array([], pa.list_(key_type)),
                }
            )
        sh_flat, sh_off = _doc_grams(t["text"], self.shingle_k, self.SHINGLE_SEED)

        # minhash for the WHOLE batch, one permutation COLUMN at a time:
        # a (grams x num_perm) rehash matrix is memory-bandwidth-bound
        # (~3.5x slower measured), while per-column rehash + segment-min
        # keeps the working set cache-sized (every doc has >= 1 gram, so
        # reduceat is safe)
        seeds = splitmix64(
            np.arange(1, num_perm + 1, dtype=np.uint64)
            * np.uint64(self.MINHASH_SEED + 1)
        )
        sig = np.empty((n_docs, num_perm), dtype=np.uint64)
        for p in range(num_perm):
            sig[:, p] = np.minimum.reduceat(
                splitmix64(sh_flat ^ seeds[p]), sh_off[:-1]
            )

        # band keys: [band index, its rows signature words] per band
        keys = np.empty((n_docs, n_bands, rows + 1), dtype=np.uint64)
        keys[:, :, 0] = np.arange(n_bands, dtype=np.uint64)
        keys[:, :, 1:] = sig[:, : n_bands * rows].reshape(n_docs, n_bands, rows)
        bands_arr = pa.ListArray.from_arrays(
            pa.array(
                np.arange(0, (n_docs + 1) * n_bands, n_bands, dtype=np.int32),
                pa.int32(),
            ),
            pa.FixedSizeBinaryArray.from_buffers(
                key_type, n_docs * n_bands, [None, pa.py_buffer(keys.tobytes())]
            ),
        )
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "sh": _u64_rows_to_binary(sh_off, sh_flat),
                "bands": bands_arr,
            }
        )


def _band_key_hash(keys) -> np.ndarray:
    """Band keys -> uint64: a splitmix64 fold over each key's words, for
    exchange partition ids (bucketing itself compares whole keys)."""
    from ..functions.hashing import splitmix64

    keys = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
    n, nw = len(keys), keys.type.byte_width // 8
    if n == 0:
        return np.empty(0, np.uint64)
    words = np.frombuffer(
        keys.buffers()[1], dtype=np.uint64, count=(keys.offset + n) * nw
    )[keys.offset * nw :].reshape(n, nw)
    h = splitmix64(words[:, 0])
    for j in range(1, nw):
        h = splitmix64(h ^ words[:, j])
    return h


def _u64_rows_to_binary(off: np.ndarray, flat: np.ndarray) -> pa.Array:
    """(row offsets, flat uint64 values) -> large_binary column; row i's
    payload is flat[off[i]:off[i+1]] as raw LE bytes."""
    byte_off = (np.asarray(off, dtype=np.int64) * 8)
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        len(off) - 1,
        [None, pa.py_buffer(byte_off.tobytes()), pa.py_buffer(flat.tobytes())],
    )


def _binary_to_u64_rows(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """large_binary column of 8-byte-multiple payloads -> (element
    offsets, flat uint64 values) for the pairwise searchsorted kernels.
    Zero-copy over the Arrow buffers; honors array slicing offsets."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    bufs = arr.buffers()
    byte_off = np.frombuffer(bufs[1], dtype=np.int64)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    vals = np.frombuffer(bufs[2], dtype=np.uint64)
    return (byte_off // 8).astype(np.int64), vals


def _explode_bands(t: pa.Table) -> pa.Table:
    """(doc_id, sh, bands) -> n_bands (band_key, doc_id) rows per doc —
    the ONLY columns that enter the LSH exchange."""
    t = t.combine_chunks()
    arr = t["bands"]
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    off = np.asarray(arr.offsets, dtype=np.int64)
    counts = np.diff(off)
    take = pa.array(
        np.repeat(np.arange(t.num_rows, dtype=np.int64), counts), pa.int64()
    )
    flat = arr.values.slice(off[0], off[-1] - off[0]) if len(off) else arr.values
    return pa.Table.from_pydict(
        {"band_key": flat, "doc_id": t["doc_id"].take(take)}
    )


def _bucket_segments(t: pa.Table):
    """Lexsort a co-located (band_key, doc_id, ...) block into bucket
    segments; yields (segment row-index array, start, end) plus the
    sorted key codes for callers that need them. Returns (order, bounds,
    ids) with ids = doc_id numpy view."""
    kenc = t["band_key"].combine_chunks().dictionary_encode()
    kc = np.asarray(kenc.indices, dtype=np.int64)
    ids = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
    order = np.argsort(kc, kind="stable")
    kc_s = kc[order]
    change = np.nonzero(kc_s[1:] != kc_s[:-1])[0] + 1
    bounds = np.concatenate([[0], change, [len(order)]])
    return order, bounds, ids


_EMPTY_PAIRS = pa.Table.from_pydict(
    {"doc_id1": pa.array([], pa.int64()), "doc_id2": pa.array([], pa.int64())}
)


def _hash_part(h: np.ndarray, n_parts: int) -> pa.Array:
    """uint64 hashes -> ``keyed_exchange`` partition ids in [0, n_parts)."""
    return pa.array(
        (np.asarray(h, np.uint64) % np.uint64(n_parts)).astype(np.int64),
        pa.int64(),
    )


def _with_pair_part(t: pa.Table, n_parts: int) -> pa.Table:
    """Append ``part``: a splitmix64 hash of (doc_id1, doc_id2) mod
    ``n_parts``, so every copy of a pair lands in one partition."""
    from ..functions.hashing import splitmix64

    lo = np.asarray(t["doc_id1"].to_numpy(zero_copy_only=False), np.int64)
    hi = np.asarray(t["doc_id2"].to_numpy(zero_copy_only=False), np.int64)
    h = splitmix64(splitmix64(lo.view(np.uint64)) ^ hi.view(np.uint64))
    return t.append_column("part", _hash_part(h, n_parts))


def _count_pairs(pairs, n_parts: int, count_col: str):
    """(doc_id1, doc_id2) rows -> one row per distinct pair with its
    multiplicity as int64 ``count_col``: one ``keyed_exchange`` on the
    pair hash (``_with_pair_part``), then one pyarrow group_by per
    partition. Plain tasks, no aggregator actors."""

    def count(t: pa.Table) -> pa.Table:
        res = t.group_by(["doc_id1", "doc_id2"], use_threads=False).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "doc_id1": res["doc_id1"],
                "doc_id2": res["doc_id2"],
                count_col: res["count_all"],
            }
        )

    keyed = pairs.map_batches(
        _with_pair_part,
        fn_kwargs={"n_parts": n_parts},
        batch_format="pyarrow",
        batch_size=None,
    )
    return keyed_exchange(keyed, "part", n_parts).map_batches(
        count, batch_format="pyarrow", batch_size=None
    )


def _direct_bucket_pairs(t: pa.Table, n_max: int) -> pa.Table:
    """Candidate pairs for every bucket with 2..n_max members (whole
    buckets are co-located by the band_key exchange). Buckets larger
    than n_max are handled by the salted overflow exchange."""
    if t.num_rows == 0:
        return _EMPTY_PAIRS
    t = t.combine_chunks()
    order, bounds, ids = _bucket_segments(t)
    gis, gjs = [], []
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        n = s1 - s0
        if n < 2 or n > n_max:
            continue
        seg = order[s0:s1]
        iu, ju = np.triu_indices(n, k=1)
        gis.append(seg[iu])
        gjs.append(seg[ju])
    if not gis:
        return _EMPTY_PAIRS
    gi = np.concatenate(gis)
    gj = np.concatenate(gjs)
    lo = np.minimum(ids[gi], ids[gj])
    hi = np.maximum(ids[gi], ids[gj])
    keep = lo != hi
    return pa.Table.from_pydict(
        {
            "doc_id1": pa.array(lo[keep], pa.int64()),
            "doc_id2": pa.array(hi[keep], pa.int64()),
        }
    )


def _overflow_salt_rows(t: pa.Table, n_max: int) -> pa.Table:
    """Triangle-join salt replication for buckets LARGER than n_max (the
    degenerate boilerplate-corpus shape): each member goes to every
    salt-group pair containing its salt p = doc_id % S, S = ceil(n/n_max)
    — same construction as the mega-block salting in stages/blocking.py.
    Empty in the common (no mega-bucket) case, so the salted exchange
    never spins up."""
    empty = pa.Table.from_pydict(
        {
            "band_key": pa.array([], t.schema.field("band_key").type),
            "sa": pa.array([], pa.int32()),
            "sb": pa.array([], pa.int32()),
            "part": pa.array([], pa.int32()),
            "doc_id": pa.array([], pa.int64()),
        }
    )
    if t.num_rows == 0:
        return empty
    import math

    t = t.combine_chunks()
    order, bounds, ids = _bucket_segments(t)
    takes, sas, sbs, parts = [], [], [], []
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        n = s1 - s0
        if n <= n_max:
            continue
        seg = order[s0:s1]
        S = math.ceil(n / n_max)
        p = ids[seg] % S
        for q in range(S):
            takes.append(seg)
            sas.append(np.minimum(p, q))
            sbs.append(np.maximum(p, q))
            parts.append(p)
    if not takes:
        return empty
    take = pa.array(np.concatenate(takes), pa.int64())
    return pa.Table.from_pydict(
        {
            "band_key": t["band_key"].take(take),
            "sa": pa.array(np.concatenate(sas).astype(np.int32), pa.int32()),
            "sb": pa.array(np.concatenate(sbs).astype(np.int32), pa.int32()),
            "part": pa.array(np.concatenate(parts).astype(np.int32), pa.int32()),
            "doc_id": t["doc_id"].take(take),
        }
    )


def _salted_segment_pairs(t: pa.Table) -> pa.Table:
    """Pair-gen over salted overflow rows co-located by (band_key, sa,
    sb): within-group triu on the diagonal groups, repeat-tile cross
    otherwise — no per-pair Python."""
    if t.num_rows == 0:
        return _EMPTY_PAIRS
    t = t.combine_chunks()
    kenc = t["band_key"].combine_chunks().dictionary_encode()
    kc = np.asarray(kenc.indices, dtype=np.int64)
    sa = np.asarray(t["sa"].to_numpy(zero_copy_only=False))
    sb = np.asarray(t["sb"].to_numpy(zero_copy_only=False))
    part = np.asarray(t["part"].to_numpy(zero_copy_only=False))
    ids = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
    order = np.lexsort((sb, sa, kc))
    kc_s, a_s, b_s = kc[order], sa[order], sb[order]
    change = np.nonzero(
        (kc_s[1:] != kc_s[:-1]) | (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
    )[0] + 1
    bounds = np.concatenate([[0], change, [len(order)]])
    gis, gjs = [], []
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        seg = order[s0:s1]
        a_id, b_id = int(a_s[s0]), int(b_s[s0])
        if a_id == b_id:
            rows = seg[part[seg] == a_id]
            if len(rows) > 1:
                iu, ju = np.triu_indices(len(rows), k=1)
                gis.append(rows[iu])
                gjs.append(rows[ju])
        else:
            ra = seg[part[seg] == a_id]
            rb = seg[part[seg] == b_id]
            if len(ra) and len(rb):
                gis.append(np.repeat(ra, len(rb)))
                gjs.append(np.tile(rb, len(ra)))
    if not gis:
        return _EMPTY_PAIRS
    gi = np.concatenate(gis)
    gj = np.concatenate(gjs)
    lo = np.minimum(ids[gi], ids[gj])
    hi = np.maximum(ids[gi], ids[gj])
    keep = lo != hi
    return pa.Table.from_pydict(
        {
            "doc_id1": pa.array(lo[keep], pa.int64()),
            "doc_id2": pa.array(hi[keep], pa.int64()),
        }
    )


def _verify_pairs_driver(pairs: np.ndarray, sketches, threshold: float):
    """Verify a DRIVER-SIZED candidate set: broadcast the needed doc-id
    set, filter the sketch dataset down to those docs (no exchange),
    gather the (bounded) survivors, and run ONE vectorized multi-pair
    jaccard. ``pairs`` is an (n, 2) int64 array of deduped (lo, hi)."""
    import ray
    import ray.data as rd

    if not len(pairs):
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "doc_id1": pa.array([], pa.int64()),
                    "doc_id2": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )
    needed = np.unique(pairs)
    ref = ray.put(needed)

    def flt(t: pa.Table) -> pa.Table:
        from ..stages.mention_prep import get_broadcast

        nd = get_broadcast(ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(nd, ids)
        pos_c = np.minimum(pos, len(nd) - 1)
        return t.filter(pa.array(nd[pos_c] == ids))

    parts_off, parts_vals, parts_ids = [], [], []
    for b in sketches.map_batches(flt, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=65536
    ):
        o, v = _binary_to_u64_rows(b["sh"])
        parts_ids.append(b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64))
        parts_off.append(o)
        parts_vals.append(v[o[0] : o[-1]] if len(o) else v[:0])
    from ..stages.features import pairwise_jaccard

    all_ids = np.concatenate(parts_ids) if parts_ids else np.empty(0, np.int64)
    lens = [np.diff(o) for o in parts_off]
    flat = np.concatenate(parts_vals) if parts_vals else np.empty(0, np.uint64)
    off = np.concatenate(
        [[0], np.cumsum(np.concatenate(lens) if lens else np.empty(0, np.int64))]
    ).astype(np.int64)
    srt = np.argsort(all_ids)
    ids_s = all_ids[srt]
    gi = srt[np.searchsorted(ids_s, pairs[:, 0])]
    gj = srt[np.searchsorted(ids_s, pairs[:, 1])]
    jac = pairwise_jaccard(off, flat, gi, off, flat, gj)
    keep = jac >= threshold
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "doc_id1": pa.array(pairs[keep, 0], pa.int64()),
                "doc_id2": pa.array(pairs[keep, 1], pa.int64()),
                "jaccard": pa.array(jac[keep], pa.float64()),
            }
        )
    )


def _verify_pairs_join(pairs_ds, sketches, threshold: float):
    """Scale-path verify: two hash joins against the sketch dataset —
    each doc's sketch crosses the wire exactly twice (vs once per band
    in round 2). ``pairs_ds`` must already be deduped."""

    def rename(new_id: str, new_sh: str):
        def fn(t: pa.Table) -> pa.Table:
            return t.select(["doc_id", "sh"]).rename_columns([new_id, new_sh])

        return fn

    left = sketches.map_batches(rename("doc_id1", "sh1"), batch_format="pyarrow")
    right = sketches.map_batches(rename("doc_id2", "sh2"), batch_format="pyarrow")
    joined = pairs_ds.join(
        left, join_type="inner", on=("doc_id1",), num_partitions=join_partitions()
    ).join(
        right, join_type="inner", on=("doc_id2",), num_partitions=join_partitions()
    )

    def verify(t: pa.Table) -> pa.Table:
        from ..stages.features import pairwise_jaccard

        t = t.combine_chunks()
        n = t.num_rows
        if n == 0:
            return pa.Table.from_pydict(
                {
                    "doc_id1": pa.array([], pa.int64()),
                    "doc_id2": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        off1, vals1 = _binary_to_u64_rows(t["sh1"])
        off2, vals2 = _binary_to_u64_rows(t["sh2"])
        idx = np.arange(n, dtype=np.int64)
        jac = pairwise_jaccard(off1, vals1, idx, off2, vals2, idx)
        keep = jac >= threshold
        kt = pa.array(np.nonzero(keep)[0], pa.int64())
        return pa.Table.from_pydict(
            {
                "doc_id1": t["doc_id1"].take(kt),
                "doc_id2": t["doc_id2"].take(kt),
                "jaccard": pa.array(jac[keep], pa.float64()),
            }
        )

    return joined.map_batches(verify, batch_format="pyarrow")


def dedup_minhash_lsh(
    sf_dir: str,
    threshold: float = 0.8,
    num_perm: int = 64,
    n_bands: int = 16,
    n_max: int = 4096,
    driver_max_pairs: int = 250_000,
    band_driver_rows: int = 4_000_000,
):
    """MinHash-LSH near-dup over token 3-shingles ->
    (doc_id1, doc_id2, jaccard >= threshold), each verified pair once.

    Scale shape (one exchange in the common case; every exchange is a
    ``rayutil.keyed_exchange`` of plain tasks, so no actor starts before
    the verify joins):
    1. ONE fused task pass sketches + bands each doc (payloads stay in
       the materialized parent, never enter an exchange).
    2. ONE keyed exchange on a hash of ``band_key`` co-locates
       (band_key, doc_id) buckets: 8 * (rows + 1) + 8 bytes a row, 48 at
       the default 4 rows per band (candidates ≪ C(n,2)).
    3. Buckets ≤ n_max pair up locally (vectorized triu); larger buckets
       emit triangle-salted rows into a SECOND exchange, keyed on a hash
       of (band_key, sa, sb), that only runs when a mega-bucket exists.
    4. Verify is budget-guarded: ≤ driver_max_pairs dedupes + verifies
       via one broadcast-filtered gather and a single vectorized
       multi-pair jaccard; past the budget it dedupes candidates through
       the pair-keyed exchange of ``_count_pairs`` and verifies with two
       hash joins against the sketches.

    Small-input fast path (same contract as ``rayutil.sized_groupby_agg``
    — forced-path parity tested): when the band table is driver-sized
    (≤ ``band_driver_rows`` rows of (band_key, doc_id), 48 bytes each at
    the defaults) AND its estimated candidate count fits
    ``driver_max_pairs``, the bucket grouping runs as ONE driver sort
    instead of the keyed exchange — the exchange's fixed cost (one split
    task per block, one merge task per partition, a barrier) exceeds
    sorting a few MB.
    Web-scale inputs exceed the row budget and take the exchange path
    unchanged.
    """
    from ..functions.hashing import splitmix64

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    sketched = docs.map_batches(
        _SketchBander(num_perm=num_perm, n_bands=n_bands),
        batch_format="pyarrow",
    ).materialize()
    n_docs = sketched.count()

    if n_docs * n_bands <= band_driver_rows:
        bt = list(
            sketched.map_batches(_explode_bands, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow", batch_size=65536)
        )
        band_tab = (
            pa.concat_tables(bt, promote_options="default").combine_chunks()
            if bt
            else None
        )
        sketches = sketched.select_columns(["doc_id", "sh"])
        if band_tab is None or band_tab.num_rows == 0:
            return _verify_pairs_driver(
                np.empty((0, 2), np.int64), sketches, threshold
            )
        _, bounds, _ = _bucket_segments(band_tab)
        sizes = np.diff(bounds)
        est_pairs = int(np.sum(sizes * (sizes - 1) // 2))
        if est_pairs <= driver_max_pairs:
            ptab = _direct_bucket_pairs(band_tab, n_max=band_tab.num_rows)
            pairs = (
                np.unique(
                    np.stack(
                        [
                            ptab["doc_id1"].to_numpy(zero_copy_only=False),
                            ptab["doc_id2"].to_numpy(zero_copy_only=False),
                        ],
                        axis=1,
                    ),
                    axis=0,
                )
                if ptab.num_rows
                else np.empty((0, 2), np.int64)
            )
            return _verify_pairs_driver(pairs, sketches, threshold)
        # est_pairs over budget (mega-bucket in a small input): fall
        # through to the salted exchange construction below.

    nparts = sized_partitions(n_docs * n_bands)

    def band_rows(t: pa.Table) -> pa.Table:
        b = _explode_bands(t)
        return b.append_column(
            "part", _hash_part(_band_key_hash(b["band_key"]), nparts)
        )

    def salt_rows(t: pa.Table) -> pa.Table:
        # "part" is each member's salt; the exchange key is "dest"
        o = _overflow_salt_rows(t, n_max)
        sa = np.asarray(o["sa"].to_numpy(zero_copy_only=False), np.uint64)
        sb = np.asarray(o["sb"].to_numpy(zero_copy_only=False), np.uint64)
        h = splitmix64(
            _band_key_hash(o["band_key"]) ^ splitmix64((sa << np.uint64(32)) | sb)
        )
        return o.append_column("dest", _hash_part(h, nparts))

    repart = keyed_exchange(
        sketched.map_batches(band_rows, batch_format="pyarrow"), "part", nparts
    )
    direct = repart.map_batches(
        lambda t: _direct_bucket_pairs(t, n_max),
        batch_format="pyarrow",
        batch_size=None,
    )
    overflow = repart.map_batches(
        salt_rows, batch_format="pyarrow", batch_size=None
    ).materialize()
    if overflow.count():
        salted = keyed_exchange(overflow, "dest", nparts).map_batches(
            _salted_segment_pairs, batch_format="pyarrow", batch_size=None
        )
        cands = direct.union(salted)
    else:
        cands = direct

    sketches = sketched.select_columns(["doc_id", "sh"])

    # budget-guarded verify: stream candidates (cross-band dups included,
    # ≤ n_bands per pair) to the driver up to the budget
    collected: list | None = []
    n_cands = 0
    for b in cands.iter_batches(batch_format="pyarrow", batch_size=65536):
        collected.append(
            np.stack(
                [
                    b["doc_id1"].to_numpy(zero_copy_only=False).astype(np.int64),
                    b["doc_id2"].to_numpy(zero_copy_only=False).astype(np.int64),
                ],
                axis=1,
            )
        )
        n_cands += b.num_rows
        if n_cands > driver_max_pairs:
            collected = None
            break
    if collected is not None:
        pairs = (
            np.unique(np.concatenate(collected), axis=0)
            if collected
            else np.empty((0, 2), np.int64)
        )
        return _verify_pairs_driver(pairs, sketches, threshold)

    deduped = _count_pairs(cands, shuffle_partitions(), "_nb").drop_columns(["_nb"])
    return _verify_pairs_join(deduped, sketches, threshold)


def dedup_canonical_docs(
    sf_dir: str, threshold: float = 0.8, driver_max_edges: int = 2_000_000
):
    """The dedup family's END PRODUCT: one canonical doc per near-dup
    cluster. MinHash-LSH verified pairs (jaccard >= threshold) form
    edges; connected components pick min doc_id per cluster as the
    canonical survivor; every doc maps to its canonical
    (doc_id, canonical_id, is_canonical).

    Edge→cluster assignment uses the same budget-guarded auto switch as
    stages/cluster.assign_clusters: edges stream to the driver only up to
    ``driver_max_edges`` (vectorized union-find + broadcast searchsorted
    assign); past the budget it falls back to the fully distributed
    min-label propagation — at web scale verified near-dup pairs can
    exceed driver memory."""
    import ray

    import pyarrow.compute as pc

    from ..stages.cluster import (
        connected_components_distributed,
        min_label_components,
    )

    edges_ds = dedup_minhash_lsh(sf_dir, threshold=threshold).materialize()

    # stream edges to the driver UP TO the budget; overflow -> distributed
    collected: list | None = []
    n_edges = 0
    for b in edges_ds.iter_batches(batch_format="pyarrow", batch_size=65536):
        collected.append(
            (
                b["doc_id1"].to_numpy(zero_copy_only=False).astype(np.int64),
                b["doc_id2"].to_numpy(zero_copy_only=False).astype(np.int64),
            )
        )
        n_edges += b.num_rows
        if n_edges > driver_max_edges:
            collected = None
            break

    docs = _read_documents(sf_dir, ["doc_id"])

    if collected is None:
        # distributed path: CC labels for edge-nodes, then left-fill
        # singletons (canonical = own doc_id)
        labels = connected_components_distributed(
            edges_ds,
            edge_cols=("doc_id1", "doc_id2"),
            node_col="doc_id",
            label_col="canonical_id",
        )
        joined = docs.join(
            labels,
            join_type="left_outer",
            on=("doc_id",),
            num_partitions=join_partitions(),
        )

        def fill(t: pa.Table) -> pa.Table:
            canon = pc.coalesce(t["canonical_id"], t["doc_id"])
            return pa.Table.from_pydict(
                {
                    "doc_id": t["doc_id"],
                    "canonical_id": pc.cast(canon, pa.int64()),
                    "is_canonical": pc.cast(
                        pc.equal(canon, t["doc_id"]), pa.int8()
                    ),
                }
            )

        return joined.map_batches(fill, batch_format="pyarrow")

    u1 = (
        np.concatenate([c[0] for c in collected])
        if collected
        else np.empty(0, np.int64)
    )
    u2 = (
        np.concatenate([c[1] for c in collected])
        if collected
        else np.empty(0, np.int64)
    )
    nodes_a, labels_a = min_label_components(
        pa.array(u1, pa.int64()), pa.array(u2, pa.int64())
    )
    ref = ray.put(
        (
            np.asarray(nodes_a, dtype=np.int64),
            np.asarray(labels_a, dtype=np.int64),
        )
    )

    def assign(t: pa.Table) -> pa.Table:
        from ..stages.mention_prep import get_broadcast

        nodes_, labels_ = get_broadcast(ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        if len(nodes_):
            pos = np.searchsorted(nodes_, ids)
            pos_c = np.minimum(pos, len(nodes_) - 1)
            hit = nodes_[pos_c] == ids
            canon = np.where(hit, labels_[pos_c], ids)
        else:
            canon = ids
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "canonical_id": pa.array(canon, pa.int64()),
                "is_canonical": pa.array(
                    (canon == ids).astype(np.int8), pa.int8()
                ),
            }
        )

    return docs.map_batches(assign, batch_format="pyarrow")


# -- SimHash near-dup ------------------------------------------------------

def dedup_simhash(sf_dir: str):
    """Exact-simhash duplicate groups: docs whose token simhash collides.
    Output: (simhash_hex, n_docs, doc_ids csv sorted). Token hashes are
    md5_u64 (== DuckDB md5_number_upper) so the SQL oracle recomputes the
    same 64-bit sketch bit-for-bit."""
    from ..functions.simhash import simhash_from_hashes_segmented

    def add_simhash(t: pa.Table) -> pa.Table:
        # every token occurrence votes (the oracle contract), with md5 run
        # once per distinct token; the bit-vote itself is one segmented
        # kernel over the whole batch.
        sims = simhash_from_hashes_segmented(*_token_hashes(t["text"]))
        hs = [f"{int(v):016x}" for v in sims]
        return pa.Table.from_pydict(
            {"simhash": pa.array(hs, pa.string()), "doc_id": t["doc_id"]}
        )

    def collect(g: pa.Table) -> pa.Table:
        ids = sorted(g["doc_id"].to_pylist())
        return pa.Table.from_pydict(
            {
                "simhash": pa.array([g["simhash"][0].as_py()], pa.string()),
                "n_docs": pa.array([len(ids)], pa.int64()),
                "doc_ids": pa.array([",".join(map(str, ids))], pa.string()),
            }
        )

    ds = _read_documents(sf_dir, columns=["doc_id", "text"])
    return (
        ds.map_batches(add_simhash, batch_format="pyarrow")
        .groupby("simhash", num_partitions=shuffle_partitions())
        .map_groups(collect, batch_format="pyarrow")
    )


# -- embedding cosine near-dup --------------------------------------------

def dedup_embedding_cosine(sf_dir: str, threshold: float = 0.3, n_parts: int = 8):
    """EXACT all-pairs cosine >= threshold, fully distributed: the
    triangle-join replication (same construction as the mega-block
    salting in stages/blocking.py) — each vector lands in partition
    p = vec_id % P and is replicated to every partition-pair group
    (min(p,q), max(p,q)); each group holds two partitions and runs ONE
    vectorized matmul between them. No driver materialization, no full
    broadcast; shuffle volume is P x input, work is the inherent O(n^2)
    of the exact operator (use dedup_minhash_lsh / ann_topk_lsh for the
    approximate web-scale path)."""
    from ..rayutil import keyed_exchange, lpt_buckets
    from ..sources.io import read_parquet_sized

    dsz = read_parquet_sized(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    # exchange-placement plan (driver, deterministic): LPT-pack the
    # C(P,2)+P triangle groups into the output blocks by matmul work
    # (diagonal groups pair a partition with itself — half the work);
    # the keyed exchange lands each group in exactly its bucket's block
    nblocks = shuffle_partitions()
    used = [(a, b) for a in range(n_parts) for b in range(a, n_parts)]
    wts = [0.5 if a == b else 1.0 for a, b in used]
    gbuckets = lpt_buckets(wts, nblocks)
    bucket_of_grp = np.zeros(n_parts * n_parts, dtype=np.int64)
    for (a, b), v in zip(used, gbuckets):
        bucket_of_grp[a * n_parts + b] = v

    def replicate(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["vec_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        emb = t["embedding"]
        emb = emb.combine_chunks() if isinstance(emb, pa.ChunkedArray) else emb
        eoff = np.asarray(emb.offsets)
        evals = emb.values.to_numpy(zero_copy_only=False)
        edim = int(eoff[1] - eoff[0]) if len(eoff) > 1 else 0
        # rows are fixed-width and contiguous; slice from the FIRST row's
        # offset (a sliced chunk has eoff[0] != 0)
        V = evals[eoff[0] : eoff[-1]].reshape(len(ids), edim).astype(np.float64)
        V = V / np.linalg.norm(V, axis=1, keepdims=True)
        p = (ids % n_parts).astype(np.int64)
        out_ids, out_part, out_grp, out_vecs = [], [], [], []
        for q in range(n_parts):
            a = np.minimum(p, q)
            b = np.maximum(p, q)
            out_ids.append(ids)
            out_part.append(p)
            out_grp.append(a * n_parts + b)
            out_vecs.append(V)
        V2 = np.concatenate(out_vecs, axis=0)
        n, dim = V2.shape
        vlist = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32)),
            pa.array(V2.ravel(), pa.float64()),
        )
        grp_all = np.concatenate(out_grp)
        return pa.Table.from_pydict(
            {
                "grp": pa.array(grp_all, pa.int32()),
                "bucket": pa.array(bucket_of_grp[grp_all], pa.int32()),
                "part": pa.array(np.concatenate(out_part), pa.int32()),
                "vec_id": pa.array(np.concatenate(out_ids), pa.int64()),
                "v": vlist,
            }
        )

    def group_pairs(t: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {
                "vec_id1": pa.array([], pa.int64()),
                "vec_id2": pa.array([], pa.int64()),
                "cos_sim": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        t = t.combine_chunks()
        grp = np.asarray(t["grp"].to_numpy(zero_copy_only=False))
        part = np.asarray(t["part"].to_numpy(zero_copy_only=False))
        ids = np.asarray(t["vec_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        arr = t["v"].combine_chunks() if isinstance(t["v"], pa.ChunkedArray) else t["v"]
        off = np.asarray(arr.offsets)
        dim = off[1] - off[0] if len(off) > 1 else 0
        # slice from off[0] (not 0): a sliced chunk's values buffer keeps
        # the full child, so reshaping from 0 would misalign every vector
        V = arr.values.to_numpy(zero_copy_only=False)[off[0] : off[-1]].reshape(
            len(ids), dim
        )
        o1, o2, cs = [], [], []
        for g in np.unique(grp):
            m = grp == g
            a_id, b_id = int(g) // n_parts, int(g) % n_parts
            # dedup within the group: a vector assigned to partition p
            # appears in group (p,q) once per distinct q — same (grp,
            # part) slice dedups by vec_id
            if a_id == b_id:
                sel = m & (part == a_id)
                sids, su = np.unique(ids[sel], return_index=True)
                SV = V[np.nonzero(sel)[0][su]]
                sims = SV @ SV.T
                iu, ju = np.triu_indices(len(sids), k=1)
                keep = sims[iu, ju] >= threshold
                o1.append(sids[iu[keep]])
                o2.append(sids[ju[keep]])
                cs.append(np.round(sims[iu[keep], ju[keep]], 9))
            else:
                sa = m & (part == a_id)
                sb = m & (part == b_id)
                aids, au = np.unique(ids[sa], return_index=True)
                bids, bu = np.unique(ids[sb], return_index=True)
                if not len(aids) or not len(bids):
                    continue
                A = V[np.nonzero(sa)[0][au]]
                B = V[np.nonzero(sb)[0][bu]]
                sims = A @ B.T
                ii, jj = np.nonzero(sims >= threshold)
                lo = np.minimum(aids[ii], bids[jj])
                hi = np.maximum(aids[ii], bids[jj])
                o1.append(lo)
                o2.append(hi)
                cs.append(np.round(sims[ii, jj], 9))
        if not o1:
            return empty
        return pa.Table.from_pydict(
            {
                "vec_id1": pa.array(np.concatenate(o1), pa.int64()),
                "vec_id2": pa.array(np.concatenate(o2), pa.int64()),
                "cos_sim": pa.array(np.concatenate(cs), pa.float64()),
            }
        )

    return keyed_exchange(
        dsz.map_batches(replicate, batch_format="pyarrow"), "bucket", nblocks
    ).map_batches(group_pairs, batch_format="pyarrow", batch_size=None)


# fold init of the shared-window and decontamination grams
_WINDOW_SEED = 0x57


def dedup_shared_window(sf_dir: str, window: int = 8, n_max: int = 1000):
    """Exact shared-window near-dup pairs (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better": two docs
    sharing ANY exact ``window``-token span are near-duplicates): per
    doc, the DISTINCT hashes of its token windows (``_doc_grams``: a
    splitmix64 fold of the window's md5_u64 token hashes), one
    (gram, doc_id) exchange row per distinct window, pairs formed within
    gram groups capped at ``n_max`` docs (stop-phrase groups are
    DROPPED — the frequent-span guard; the oracle applies the same
    HAVING bound), then one pair-keyed count to (doc_id1, doc_id2,
    shared_windows). Only window identity matters, so barring a 64-bit
    hash collision the counts equal those of the DuckDB oracle, which
    hashes the window strings.

    Scale shape: two ``rayutil.keyed_exchange`` calls of plain tasks (no
    actors): the first keys on ``gram % n``, so every gram group meets
    in one partition; the second keys on a hash of the pair, and each
    partition counts its pairs with one pyarrow group_by (both exchanges
    run when this is called; the returned count map is lazy). Exchange
    rows ~ one per distinct window per doc (bounded by tokens/doc);
    per-gram pair blowup bounded by n_max^2; a mega-pair costs one count
    row. Docs shorter than ``window`` contribute their whole text as a
    single gram."""
    nparts = shuffle_partitions()

    def emit_grams(t: pa.Table) -> pa.Table:
        grams, off = _doc_grams(t["text"], window, _WINDOW_SEED)
        ids = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False), np.int64)
        return pa.Table.from_pydict(
            {
                "gram": pa.array(grams, pa.uint64()),
                "doc_id": pa.array(np.repeat(ids, np.diff(off)), pa.int64()),
                "part": _hash_part(grams, nparts),
            }
        )

    def gram_group_pairs(t: pa.Table) -> pa.Table:
        tt = t.combine_chunks()
        g = np.asarray(tt["gram"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(tt["doc_id"].to_numpy(zero_copy_only=False), np.int64)
        order = np.lexsort((d, g))
        g, d = g[order], d[order]
        bound = np.empty(len(g), dtype=bool)
        o1, o2 = [], []
        if len(g):
            bound[0] = True
            bound[1:] = g[1:] != g[:-1]
            starts = np.flatnonzero(bound)
            sizes = np.diff(np.append(starts, len(g)))
            for s, n in zip(starts, sizes):
                if 2 <= n <= n_max:
                    seg = d[s : s + n]  # ascending within the gram run
                    ii, jj = np.triu_indices(n, k=1)
                    o1.append(seg[ii])
                    o2.append(seg[jj])
        if not o1:
            return _EMPTY_PAIRS
        return pa.Table.from_pydict(
            {
                "doc_id1": pa.array(np.concatenate(o1), pa.int64()),
                "doc_id2": pa.array(np.concatenate(o2), pa.int64()),
            }
        )

    grams = keyed_exchange(
        _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
            emit_grams, batch_format="pyarrow"
        ),
        "part",
        nparts,
    )
    pairs = grams.map_batches(
        gram_group_pairs, batch_format="pyarrow", batch_size=None
    )
    return _count_pairs(pairs, nparts, "shared_windows")


def decontaminate(sf_dir: str, benchmark_texts, window: int = 8):
    """Benchmark decontamination (the standard LLM-training-data step:
    drop corpus docs that contain any exact ``window``-token span of an
    evaluation benchmark — e.g. GPT-3 appendix C / Lee et al. 2021):
    the benchmark's window grams are built ONCE with dedup_shared_window's
    gram kernel (``_doc_grams``) and broadcast as one sorted uint64
    array; each batch of docs gets its per-doc distinct grams from the
    same kernel and one vectorized ``isin`` — no shuffle at all; the
    benchmark side is small by definition. Emits (doc_id, n_hits,
    contaminated) where n_hits counts DISTINCT contaminated windows (set
    semantics, matching the oracle's list_intersect)."""
    import ray

    bench, _ = _doc_grams(
        pa.array(list(benchmark_texts), pa.string()), window, _WINDOW_SEED
    )
    # one object-store copy, fetched once per worker — a closure capture
    # would re-pickle the array into every task
    bench_ref = ray.put(np.unique(bench))

    def flag(t: pa.Table) -> pa.Table:
        from ..stages.mention_prep import get_broadcast

        grams, off = _doc_grams(t["text"], window, _WINDOW_SEED)
        doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), np.diff(off))
        n_hits = np.bincount(
            doc_of[np.isin(grams, get_broadcast(bench_ref))], minlength=t.num_rows
        ).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_hits": pa.array(n_hits, pa.int64()),
                "contaminated": pa.array(n_hits > 0, pa.bool_()),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        flag, batch_format="pyarrow"
    )
