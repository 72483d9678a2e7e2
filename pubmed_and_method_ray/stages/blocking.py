"""Blocking, mega-block salting, and within-block pair generation.

The reference blocks mentions by the exact ``lastname_firstinitial`` key
and emits all C(n,2) pairs per block via a grouped self-cross
(/root/reference/database/and_datasets.sql:44-79, Python oracle at
resources/gold_standard_dataset/song/author_pair_transformation.py:21-35).
The web graft's key is ``(normalized_host, simhash_band)`` with N_BANDS
band keys per mention (LSH-style multi-probe: a near-dup pair is blocked
together if ANY band agrees), and explicit salting of skewed mega-blocks
(north_rule; skew acknowledged in reference README.md:3).

Design notes (scale):
- ONE all-to-all exchange, partitioned by HOST, one row per mention: all
  band keys of a mention share its host, so banding runs LOCALLY inside
  each exchanged partition instead of replicating every mention's
  payload once per band (6x less exchange volume than band-keyed
  shuffling — the exchange, not the pair kernels, is the wall-clock
  bound at bench scale).
- Mega-HOST salting with EXACT coverage: a host with n > n_max mentions
  is split into S = ceil(n/n_max) salt groups by a stable url hash;
  each mention is re-emitted to every group pair (i,j) containing its
  salt — the classic triangle-join replication. Group (i,i) emits
  within-pairs, (i,j) cross-pairs only, so every band-agreeing pair is
  generated exactly once.
- A bucket forms its candidates with one ``features.salted_group_pairs``
  call per band over all its hosts at once: rows group by (host, band
  value, sa, sb), and that kernel applies the triangle rule above.
  Cross-band dedup: a pair is emitted only at the SMALLEST band index on
  which the two mentions agree (both band vectors are local). Canonical
  (url1 < url2) ordering mirrors the reference's ``arraySort([id1,id2])``
  rule (database/and_datasets.sql:62-68).
- The ambiguity feature uses the HOST block size (the commonness analog
  of database/pubmed_inner_outer_feature.sql:201-203 — host commonness
  == the reference's ns commonness), carried as ``n_true`` for salted
  hosts and the host's row count in the bucket otherwise — no extra
  join.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..functions.hashing import fnv64_arrow, splitmix64, stable_hash64
from ..rayutil import heavy_key_census, lpt_buckets
from ..functions.simhash import DEFAULT_BANDS as N_BANDS
from .features import salted_group_pairs, triangle_salt



def _host_hashes(batch: pa.Table) -> np.ndarray:
    """uint64 host hash per row — host strings are dictionary-encoded so
    the hash runs once per DISTINCT host per batch (vectorized
    FNV+splitmix over the dictionary buffer, functions/hashing
    fnv64_arrow — internal key, nothing external pins the values).
    64-bit collisions across hosts are ~2^-64 per pair — a collision
    merges two candidate hosts (extra pairs the scorer rejects); it
    cannot drop pairs."""
    hcol = batch["host"]
    hcol = hcol.combine_chunks() if isinstance(hcol, pa.ChunkedArray) else hcol
    henc = hcol.dictionary_encode()
    if isinstance(henc, pa.ChunkedArray):
        henc = henc.combine_chunks()
    dict_hashes = fnv64_arrow(henc.dictionary, seed=0x42)
    return dict_hashes[np.asarray(henc.indices)].astype(np.uint64)


def _bands_matrix(group: pa.Table) -> np.ndarray:
    """(R, NB) uint64 band-value matrix, recomputed from the 8-byte
    ``simhash`` column (vectorized shift+mask per band). Bands are a
    pure function of the simhash, so shipping them through the pair
    exchange would be redundant payload — the bucket task re-derives
    them locally instead."""
    from ..functions.simhash import _BAND_WIDTHS, SIMHASH_BITS

    sh = np.asarray(group["simhash"].to_numpy(zero_copy_only=False), dtype=np.uint64)
    widths = _BAND_WIDTHS.get(N_BANDS, [SIMHASH_BITS // N_BANDS] * N_BANDS)
    out = np.empty((len(sh), len(widths)), dtype=np.uint64)
    off = 0
    for b_i, w in enumerate(widths):
        out[:, b_i] = (sh >> np.uint64(off)) & np.uint64((1 << w) - 1)
        off += w
    return out

# memory bound per pair bucket: a bucket task holds its
# whole bucket block (mention payloads) plus the pair expansion, so
# blocks are sized to ~128 MiB of exchanged payload regardless of input
# scale — the count GROWS with data volume instead of capping at a
# constant (a 64-way cap would mean ~1.6 TB/partition at 100 TB).
PAIR_BUCKET_BYTES = 128 << 20

# rows-aware refinement between the [cpus, 2*cpus] clamp: interleaved
# paired rounds measured 64 buckets best at ~400k mentions and 32 best
# at ~200k on 32 cpus — finer buckets pack the skewed score wave
# better, but only once each bucket carries enough work to amortize its
# fixed banding/dedup cost. ~6k mentions/bucket splits those measured
# operating points.
PAIR_ROWS_PER_BUCKET = 6_000


def n_pair_buckets(
    n_rows: int | None = None,
    n_bytes: int | None = None,
    cpus: int | None = None,
) -> int:
    """Bucket count for pair generation (one exchange partition and one
    score task per bucket): TWO per CPU, grown past that when the
    (known) input volume would otherwise overfill a bucket block.

    Measured at 32 cpus on 399,714 pages, interleaved paired rounds put
    64 buckets at-or-faster than 32 in every round (median 1.27x) and 16
    at-or-faster than 8 at 8 cpus: finer buckets pack the score wave's
    skewed tasks better. At HALF that input (199,826 pages) the A/B
    flips (0.88x — each bucket no longer carries enough work to amortize
    its fixed banding/dedup cost), so when the row count is knowable the
    count interpolates at ~PAIR_ROWS_PER_BUCKET mentions/bucket inside
    the [cpus, 2*cpus] clamp; unknown (lazy) inputs default to the
    fine-grained end, which is also the memory-safer choice at scale.
    Those rounds ran on Ray's actor hash shuffle, which the engine no
    longer uses; the task exchange (``rayutil.keyed_exchange``) does not
    pay its per-partition actor startup, and the constants have not been
    re-measured at 32 cpus since."""
    from ..rayutil import tune_data_context, cluster_cpus

    cpus = cluster_cpus() if cpus is None else cpus
    tune_data_context(cpus)
    n = max(4, 2 * cpus)
    if n_rows is not None:
        n = min(n, max(4, cpus, math.ceil(n_rows / PAIR_ROWS_PER_BUCKET)))
    if n_bytes is not None:
        n = max(n, math.ceil(n_bytes / PAIR_BUCKET_BYTES))
    elif n_rows is not None:
        # fallback when only rows are known: ~1 KiB/mention payload
        n = max(n, math.ceil(n_rows / (PAIR_BUCKET_BYTES // 1024)))
    return n

PAYLOAD_COLS = [
    "url",
    "title",
    "path",
    "lang",
    "ts_us",
    "simhash",
    "tok_hashes",
    "sh_hashes",
    "tfidf_pk",
    "tfidf_norm",
]


def _census_partials(batch: pa.Table, sample_mod: int = 1) -> pa.Table:
    """Per-batch partial HOST counts (pre-aggregation, SURVEY.md §4),
    fully vectorized. ``sample_mod`` > 1 counts a deterministic 1/mod
    mention sample."""
    hh = _host_hashes(batch)
    if sample_mod > 1:
        urls = batch["url"].to_pylist()
        keep = np.fromiter(
            (stable_hash64(u, seed=0xCE) % sample_mod == 0 for u in urls),
            dtype=bool,
            count=len(urls),
        )
        hh = hh[keep]
    keys, counts = np.unique(hh, return_counts=True)
    return pa.Table.from_pydict(
        {
            "key": pa.array(keys, pa.uint64()),
            "n": pa.array(counts, pa.int64()),
        }
    )


def skew_table_fast(mentions_ds, n_max: int, sample_mod: int = 8):
    """HOST skew census on a deterministic 1/sample_mod mention sample,
    scaled back up. SAFE approximation: salting is a load-balancing
    device — pair coverage is exact with or without it — and a host big
    enough to need salting (n > n_max >= 128) puts ~n/mod >= 16 mentions
    in the sample, so the heavy tail is detected reliably.

    The per-batch partial host counts merge in ``rayutil.heavy_key_census``
    (on the driver up to its budget, else in a keyed exchange that hands
    only the over-threshold hosts to the driver). Returns (sorted uint64
    host hashes, int64 counts) for vectorized searchsorted lookup in the
    emit stage."""
    keys, counts = heavy_key_census(
        mentions_ds.map_batches(
            _census_partials, fn_kwargs={"sample_mod": sample_mod}, batch_format="pyarrow"
        ),
        n_max,
        sample_mod,
    )
    return np.asarray(keys.to_numpy(zero_copy_only=False), np.uint64), counts


def _pair_bucket(gk: np.ndarray, sa: np.ndarray, sb: np.ndarray, n_buckets: int) -> np.ndarray:
    """Deterministic exchange bucket per pair-group row — a pure function
    of the group identity so every row of a group lands together."""
    mix = gk ^ (
        sa.astype(np.uint64) * np.uint64(0x1F1F1F1F) + sb.astype(np.uint64)
    )
    return (splitmix64(mix) % np.uint64(n_buckets)).astype(np.int32)


def emit_pair_keys(
    batch: pa.Table, skew_ref, n_max: int, keep_gold: bool, n_buckets: int
) -> pa.Table:
    """ONE exchange row per mention (host-partitioned banding): numeric
    host key, skew membership via searchsorted against the broadcast
    host-skew arrays; only rare mega-HOST rows replicate
    (``features.triangle_salt``). Emits (host_h, n_true, salt, sa, sb,
    bucket) — banding happens locally in the bucket task. The broadcast
    carries (salt keys, salt counts, packed-host keys, packed buckets):
    heavy-but-unsalted hosts take their pre-packed work-balanced bucket,
    everything else hashes."""
    from .mention_prep import get_broadcast

    bc = get_broadcast(skew_ref)
    skew_keys, skew_counts = bc[0], bc[1]
    pack_keys, pack_buckets = (
        (bc[2], bc[3]) if len(bc) > 2 else
        (np.empty(0, np.uint64), np.empty(0, np.int32))
    )
    n = batch.num_rows
    hh = _host_hashes(batch)

    if len(skew_keys):
        pos = np.searchsorted(skew_keys, hh)
        pos_c = np.minimum(pos, len(skew_keys) - 1)
        hit = skew_keys[pos_c] == hh
    else:
        hit = np.zeros(n, dtype=bool)

    ns = ~hit
    out_row = [np.nonzero(ns)[0].astype(np.int64)]
    out_hh = [hh[ns]]
    k = int(ns.sum())
    out_n = [np.zeros(k, dtype=np.int64)]
    out_salt = [np.zeros(k, dtype=np.int32)]
    out_sa = [np.zeros(k, dtype=np.int32)]
    out_sb = [np.zeros(k, dtype=np.int32)]

    # mega-host rows (rare by construction): salt = a url hash mod S,
    # then the triangle-salt replication
    if hit.any():
        hit_rows = np.nonzero(hit)[0]
        ntrue = skew_counts[pos_c[hit_rows]].astype(np.int64)
        S = -(-ntrue // n_max)
        urls = batch["url"].take(hit_rows).to_pylist()
        h = np.fromiter(
            (stable_hash64(u, seed=0x5A) for u in urls), np.uint64, len(urls)
        )
        rep, salt, sa, sb = triangle_salt(S, h % S.astype(np.uint64))
        out_row.append(hit_rows[rep].astype(np.int64))
        out_hh.append(hh[out_row[-1]])
        out_n.append(ntrue[rep])
        out_salt.append(salt.astype(np.int32))
        out_sa.append(sa.astype(np.int32))
        out_sb.append(sb.astype(np.int32))

    rows = np.concatenate(out_row)
    hhs = np.concatenate(out_hh)
    ntrues = np.concatenate(out_n)
    salts = np.concatenate(out_salt)
    sas = np.concatenate(out_sa)
    sbs = np.concatenate(out_sb)

    cols = [c for c in PAYLOAD_COLS if c in batch.column_names]
    if keep_gold and "entity_id" in batch.column_names:
        cols.append("entity_id")
    out = batch.select(cols).take(pa.array(rows, pa.int64()))
    out = out.append_column("host_h", pa.array(hhs, pa.uint64()))
    out = out.append_column("n_true", pa.array(ntrues, pa.int64()))
    out = out.append_column("salt", pa.array(salts, pa.int32()))
    out = out.append_column("sa", pa.array(sas, pa.int32()))
    out = out.append_column("sb", pa.array(sbs, pa.int32()))
    # group-bucketing: the pair exchange delivers each row to block
    # ``bucket`` (0..n_buckets-1) and each downstream task then
    # processes MANY hosts in one Python call (per-group map_groups
    # overhead dominates otherwise). Heavy unsalted hosts take their
    # LPT-packed bucket (work balance); the light tail and salted
    # segments hash.
    buckets = _pair_bucket(hhs, sas, sbs, n_buckets)
    if len(pack_keys):
        ppos = np.searchsorted(pack_keys, hhs)
        ppos_c = np.minimum(ppos, len(pack_keys) - 1)
        packed = pack_keys[ppos_c] == hhs
        if packed.any():
            buckets = np.where(packed, pack_buckets[ppos_c], buckets)
    return out.append_column("bucket", pa.array(buckets, pa.int32()))


def _dedup_earlier_bands(x: np.ndarray, y: np.ndarray, bands: np.ndarray, b_i: int):
    """Keep only pairs whose FIRST agreeing band is b_i (cross-band
    dedup without a second shuffle)."""
    if b_i == 0 or not len(x):
        return x, y
    keep = ~(bands[x, :b_i] == bands[y, :b_i]).any(axis=1)
    return x[keep], y[keep]


def _bucket_pair_indices(group: pa.Table):
    """(left_idx, right_idx, block_sizes) for every band-agreeing pair of
    one bucket table (already combined into contiguous chunks), each
    pair once: per band, one ``features.salted_group_pairs`` call groups
    the rows by (host rank, band value) with the (sa, sb, salt) triangle
    columns, and ``_dedup_earlier_bands`` keeps a pair only at its first
    agreeing band. block_size = HOST size (the commonness/ambiguity
    analog): ``n_true`` for a salted host, else the host's row count in
    the bucket (an unsalted host is one sa = sb = 0 segment)."""
    host_h = np.asarray(group["host_h"].to_numpy(zero_copy_only=False), dtype=np.uint64)
    sa = np.asarray(group["sa"].to_numpy(zero_copy_only=False))
    sb = np.asarray(group["sb"].to_numpy(zero_copy_only=False))
    salt = np.asarray(group["salt"].to_numpy(zero_copy_only=False))
    n_true = np.asarray(group["n_true"].to_numpy(zero_copy_only=False))
    urls = np.asarray(group["url"].to_pylist(), dtype=object)
    bands = _bands_matrix(group)
    _, host_rank = np.unique(host_h, return_inverse=True)

    lefts, rights = [], []
    for b_i in range(bands.shape[1]):
        v = bands[:, b_i].astype(np.int64)
        code = host_rank * (int(v.max(initial=0)) + 1) + v
        x, y = salted_group_pairs(code, sa, sb, salt)
        x, y = _dedup_earlier_bands(x, y, bands, b_i)
        lefts.append(x)
        rights.append(y)
    li = np.concatenate(lefts)
    ri = np.concatenate(rights)
    sizes = np.where(n_true > 0, n_true, np.bincount(host_rank)[host_rank])[li]
    # canonical (url1 < url2) ordering
    flip = urls[li] > urls[ri]
    return np.where(flip, ri, li), np.where(flip, li, ri), sizes


def make_pairs_bucket(group: pa.Table, n_max: int = 512, keep_gold: bool = True) -> pa.Table:
    """Wide-pair variant: one row per pair with both sides' payloads.
    The pair-set oracle of the tests; it shares ``_bucket_pair_indices``
    with make_features_bucket, which the pipeline runs instead, so
    these wide rows never materialize there."""
    # a caller's table may arrive in many chunks; contiguous memory
    # first, or every take() below pays per-chunk overhead
    group = group.combine_chunks()
    left_idx, right_idx, sizes = _bucket_pair_indices(group)

    with_label = keep_gold and "entity_id" in group.column_names
    if not len(left_idx):
        return _empty_pairs(with_label, group)
    li = pa.array(left_idx, pa.int64())
    ri = pa.array(right_idx, pa.int64())
    cols: dict[str, pa.Array] = {}
    present = [c for c in PAYLOAD_COLS if c != "bands" and c in group.column_names]
    for side, idx in (("1", li), ("2", ri)):
        for c in present:
            cols[f"{c}_{side}"] = group[c].take(idx)
    cols["block_size"] = pa.array(sizes, pa.int64())
    if with_label:
        ents = np.asarray(group["entity_id"].to_pylist(), dtype=object)
        cols["label"] = pa.array(
            (ents[left_idx] == ents[right_idx]).astype(np.int8), pa.int8()
        )
    return pa.Table.from_pydict(cols)


def make_features_bucket(
    group: pa.Table,
    n_max: int = 512,
    keep_gold: bool = True,
    model_ref=None,
    prune_hamming: int | None = None,
    idf_ref=None,
) -> pa.Table:
    """Fused pair-gen + featurization (+ optional scoring): emits
    (url_1, url_2, label?, feature columns) directly from the bucket's
    mention rows — the 16KB-per-pair payload rows of make_pairs_bucket
    never exist (SURVEY.md §7.4 'wide pair rows'). With a broadcast
    ``model_ref`` the GBT scores in the same task (production path: one
    exchange, one pass, pairs -> scored edges) and the rows are
    (url_1, url_2, label?, score), as the trained path's scored stage.

    ``prune_hamming``: the classic ER cascade's cheap filter — candidate
    pairs whose full-64-bit simhash Hamming distance exceeds it are
    dropped BEFORE the expensive string/set kernels (one vectorized
    popcount pass). Near-dup positives sit at d<=12 on the synthetic
    corpus while band-collision negatives centre at d~19, so 16 trades
    ~70% of junk featurization for zero positive loss THERE — but the
    zero-loss claim is corpus-tuned, so the generic API defaults to
    None (no silent recall loss); the ER entrypoint opts in
    (run_er_pipeline(prune_hamming=16))."""
    from ..functions.simhash import hamming64_arrays
    from .features import append_scores, empty_features, features_from_indices, model_from_ref

    group = group.combine_chunks()
    left_idx, right_idx, sizes = _bucket_pair_indices(group)
    if prune_hamming is not None and len(left_idx):
        sh = np.asarray(
            group["simhash"].to_numpy(zero_copy_only=False), dtype=np.uint64
        )
        keep = hamming64_arrays(sh[left_idx], sh[right_idx]) <= prune_hamming
        left_idx, right_idx, sizes = left_idx[keep], right_idx[keep], sizes[keep]
    with_label = keep_gold and "entity_id" in group.column_names
    if not len(left_idx):
        out = empty_features(with_label)
    else:
        labels = None
        if with_label:
            ents = np.asarray(group["entity_id"].to_pylist(), dtype=object)
            labels = (ents[left_idx] == ents[right_idx]).astype(np.int8)
        idf = None
        if idf_ref is not None and "tfidf_pk" in group.column_names:
            from .mention_prep import get_broadcast

            idf = get_broadcast(idf_ref)  # ndarray passes through
        out = features_from_indices(
            group, left_idx, right_idx, sizes, labels, idf=idf
        )
    if model_ref is not None:
        out = append_scores(out, model_from_ref(model_ref)).select(
            ["url_1", "url_2", *(["label"] if with_label else []), "score"]
        )
    return out


def _empty_pairs(with_label: bool, group: pa.Table) -> pa.Table:
    fields = []
    present = [c for c in PAYLOAD_COLS if c != "bands" and c in group.column_names]
    for side in ("1", "2"):
        for c in present:
            fields.append(pa.field(f"{c}_{side}", group.schema.field(c).type))
    fields.append(pa.field("block_size", pa.int64()))
    if with_label:
        fields.append(pa.field("label", pa.int8()))
    return pa.Table.from_pydict({f.name: pa.array([], f.type) for f in fields})


def _keyed_buckets(mentions_ds, n_max: int, keep_gold: bool):
    """mentions -> salted/banded pair_key rows, exchanged so that output
    block i holds exactly bucket i: WHOLE blocks hold complete pair_key
    groups (a plain map_batches over full blocks replaces
    groupby().map_groups and its per-group call overhead)."""
    import ray

    from ..rayutil import keyed_exchange, known_size

    # sized alike for a materialized input (no workdir, or a cold
    # checkpoint) and a checkpoint's parquet read-back (a resume): both
    # bucket counts and the census merge path come from metadata,
    # without executing
    n_rows, n_bytes = known_size(mentions_ds)
    n_buckets = n_pair_buckets(n_rows=n_rows, n_bytes=n_bytes)

    # ONE census pass at the balance threshold serves two consumers:
    # hosts > n_max get triangle-salted (memory/coverage), hosts in
    # (balance_min, n_max] get LPT work-packing across buckets (their
    # count^2 pair work is what skews a hash assignment)
    balance_min = min(n_max, max(64, n_max // 8))  # never above n_max:
    # the census must still surface every host that needs salting
    keys, counts = skew_table_fast(mentions_ds, balance_min)
    salt = counts > n_max
    pack_keys, pack_counts = keys[~salt], counts[~salt]
    skew = (
        keys[salt],
        counts[salt],
        pack_keys,
        lpt_buckets(pack_counts**2, n_buckets).astype(np.int32),
    )
    skew_ref = ray.put(skew)
    keyed = mentions_ds.map_batches(
        emit_pair_keys,
        fn_kwargs={
            "skew_ref": skew_ref,
            "n_max": n_max,
            "keep_gold": keep_gold,
            "n_buckets": n_buckets,
        },
        batch_format="pyarrow",
    )
    return keyed_exchange(keyed, "bucket", n_buckets)


def generate_pairs(mentions_ds, n_max: int = 512, keep_gold: bool = True):
    """mentions -> canonical labeled candidate pairs WITH payloads (one
    keyed exchange): the pair sets the tests check. The pipeline runs
    generate_pair_features, which shares its buckets and pair indices."""
    return _keyed_buckets(mentions_ds, n_max, keep_gold).map_batches(
        lambda g: make_pairs_bucket(g, n_max=n_max, keep_gold=keep_gold),
        batch_format="pyarrow",
        batch_size=None,  # one batch == one whole bucket block
    )


def generate_pair_features(
    mentions_ds,
    n_max: int = 512,
    keep_gold: bool = True,
    model_ref=None,
    prune_hamming: int | None = None,
    idf_ref=None,
):
    """mentions -> per-pair FEATURE rows directly (fused pair-gen +
    featurize; wide pair payloads never materialize). With ``model_ref``
    the rows come back scored instead: (url_1, url_2, label?, score).
    ``prune_hamming``: see make_features_bucket (cheap cascade filter;
    default off — opt in from corpus-tuned entrypoints)."""
    return _keyed_buckets(mentions_ds, n_max, keep_gold).map_batches(
        lambda g: make_features_bucket(
            g,
            n_max=n_max,
            keep_gold=keep_gold,
            model_ref=model_ref,
            prune_hamming=prune_hamming,
            idf_ref=idf_ref,
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
