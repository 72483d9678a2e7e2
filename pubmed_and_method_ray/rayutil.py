"""Small Ray helpers shared by stages/pipelines, and the engine's one
exchange: ``split_blocks``/``keyed_exchange`` and the keyed primitives
built on them (``keyed_repartition``, ``keyed_map_groups``,
``keyed_join`` and ``sized_groupby_agg``'s exchange path), all keyed by
one hash (``key_hash``)."""

from __future__ import annotations

import math
from functools import partial

# The driver budgets: the one table of "gather to the driver or run the
# task exchange" limits. Every guard reads its limit here, as
# ``rayutil.X`` at call time on the driver (a test or a soak forces a
# path by setting the constant), and decides with ``on_driver``. Each
# value's A/B is in BASELINE.md (round 5 "Measured results").
#
# compressed source bytes (or partial-block bytes): sized_groupby_agg,
# sized_broadcast_join, doc_keywords' DF broadcast, external_id_baseline
# and the ER checkpoint's distinct counters (pipelines/er._stage_counters)
DRIVER_BYTES = 32 << 20
# rows: the heavy-key census merge (heavy_key_census), and the customer
# broadcasts of relational.revenue_by_nation and semi_join_orders
DRIVER_ROWS = 5_000_000
# match edges: stages/cluster.assign_clusters(method="auto")
DRIVER_EDGES = 2_000_000
# dedup_minhash_lsh: candidate pairs verified on the driver, and
# (band_key, doc_id) rows grouped by one driver sort
LSH_DRIVER_PAIRS = 250_000
LSH_BAND_DRIVER_ROWS = 4_000_000


def on_driver(size: "int | None", limit: int) -> bool:
    """The one driver-or-exchange decision: a size is on the driver
    when it is known and at most ``limit``."""
    return size is not None and size <= limit


def cluster_cpus(default: int = 8) -> int:
    """Total cluster CPUs (falls back to ``default`` pre-init)."""
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


def tune_data_context(cpus: int | None = None) -> None:
    """Read-op block floor (idempotent). Ray's static 200-block read
    floor is wrong in both directions: on a 32-cpu node it shreds a ~1 GB
    input into 256 tiny blocks, and an exchange's split cost is blocks x
    partitions slices (``keyed_exchange``); measured when the ER pair
    exchange was still a keyed repartition, it ran 2-3x faster from
    2-per-CPU blocks than from 200-floor blocks at identical bytes
    (5.1-5.8 s vs 10.9-18.5 s, 400k pages / 1.2 GB / 32 partitions).
    On a 256-node cluster the same floor is too LOW —
    200 blocks cannot feed 8192 cores. Floor = 2 blocks/CPU, which is
    Ray's own `avail_cpus * 2` baseline; the bytes-driven
    min_safe_parallelism (mem_size / target_max_block_size) still grows
    block counts for big inputs, so the anti-OOM path is untouched."""
    cpus = cluster_cpus() if cpus is None else cpus
    try:
        from ray.data.context import DataContext

        DataContext.get_current().read_op_min_num_blocks = max(2, 2 * cpus)
    except Exception:  # pragma: no cover — older ray
        pass


def partition_ceiling(cpus: int) -> int:
    """Upper bound on exchange partition counts: scales with the CLUSTER,
    never a fixed constant. A hard 64-way cap (rounds 1-3) was tuned for
    this 32-cpu box but means per-partition data grows linearly with
    input on a big cluster — at 100 TB a single pair-gen partition would
    hold ~1.6 TB and OOM its task. 2 partitions/CPU keeps the measured
    small-box behavior identical (64 at 32 cpus) while a 256-node x 32
    cpu cluster gets 16384."""
    return max(64, 2 * cpus)


def shuffle_partitions(
    factor: int = 1, lo: int = 2, hi: int | None = None, cpus: int | None = None
) -> int:
    """Partition count for the engine's keyed exchanges: ~`factor` per
    CPU, clamped to [lo, partition_ceiling]. Every exchange sizes its
    partition count explicitly. As a side effect (deliberate: this runs
    after ray.init, when cluster CPUs are knowable) the read-op block
    floor is tuned to the cluster size (``tune_data_context``)."""
    cpus = cluster_cpus() if cpus is None else cpus
    tune_data_context(cpus)
    if hi is None:
        hi = partition_ceiling(cpus)
    return max(lo, min(hi, factor * cpus))


def sized_partitions(
    n_rows: int,
    rows_per_part: int = 200_000,
    lo: int = 2,
    hi: int | None = None,
    n_bytes: int | None = None,
    bytes_per_part: int = 256 << 20,
) -> int:
    """Data-aware partition count for keyed exchanges whose input size
    is already known (e.g. from a materialized upstream). Two forces:

    - small exchanges SHRINK below one-per-CPU (each partition costs a
      merge task and blocks x 1 slice objects): ~``rows_per_part`` rows
      per partition;
    - big exchanges GROW past the CPU count so a partition block stays
      bounded (~``bytes_per_part``) regardless of input scale — the
      anti-OOM guarantee a fixed cap cannot give.
    """
    cap = shuffle_partitions() if hi is None else hi
    n = max(lo, min(cap, math.ceil(max(1, n_rows) / rows_per_part)))
    if n_bytes is not None:
        n = max(n, math.ceil(n_bytes / bytes_per_part))
    return n


def known_size(ds) -> tuple[int | None, int | None]:
    """(row count, bytes) of a Dataset IF knowable without executing it;
    (None, None) otherwise. Never triggers execution — lazy pipelines
    stay lazy.

    Knowable means materialized, or a lazy plan whose size Ray infers
    from metadata alone: a pure parquet read (e.g. a checkpoint's
    read-back) reports rows and bytes from its footers, while a read
    followed by ``map_batches`` does not. The plan probe uses Ray's
    private ``_logical_plan.dag.infer_metadata()`` (Ray 2.49); if it is
    missing or partial the answer is (None, None), which changes only
    which path a sizing guard takes, never a result."""
    try:
        from ray.data.dataset import MaterializedDataset

        if isinstance(ds, MaterializedDataset):
            return ds.count(), ds.size_bytes()
        meta = ds._logical_plan.dag.infer_metadata()
        if meta.num_rows is not None and meta.size_bytes is not None:
            return int(meta.num_rows), int(meta.size_bytes)
    except Exception:
        pass
    return None, None


def _split_by_part(t, part_col: str, n_parts: int):
    """Split task of ``keyed_exchange``: one block -> ``n_parts`` slices,
    slice i holding exactly the rows whose ``part_col`` is i, in input
    order (stable sort, then zero-copy slices of the sorted table).

    Ray skips a ``map_batches`` UDF on a 0-row block and hands on a
    0-row block without columns, so an empty partition of an upstream
    exchange reaches the next exchange without ``part_col``: such a
    block splits into ``n_parts`` empty slices."""
    import numpy as np
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(t).to_arrow()
    if t.num_rows == 0 and part_col not in t.column_names:
        return [t] * n_parts if n_parts > 1 else t
    col = t[part_col]
    p = np.asarray(col.to_numpy(zero_copy_only=False))
    if col.null_count or (len(p) and (p.min() < 0 or p.max() >= n_parts)):
        raise ValueError(f"{part_col} must hold ints in [0, {n_parts})")
    order = np.argsort(p, kind="stable")
    t = t.take(order)
    bounds = np.searchsorted(p[order], np.arange(n_parts + 1))
    slices = [t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return slices if n_parts > 1 else slices[0]


def _merge_part(*slices):
    """Merge task of ``keyed_exchange``: one partition's slices from
    every split task -> one contiguous block (a column-less empty slice
    adds no rows and takes the other slices' schema)."""
    import pyarrow as pa

    return pa.concat_tables(slices, promote_options="default").combine_chunks()


def _prep_and_split(block, part_col: str, n_parts: int, prep):
    """Split task of ``split_blocks``: ``prep`` (if any) maps the block
    to the rows to exchange, then ``_split_by_part`` slices them. A 0-row
    block skips ``prep`` and splits as a column-less table."""
    import pyarrow as pa
    from ray.data.block import BlockAccessor

    if prep is not None:
        t = BlockAccessor.for_block(block).to_arrow()
        block = prep(t) if t.num_rows else pa.table({})
    return _split_by_part(block, part_col, n_parts)


def run_blocks(ds) -> "tuple[list, int]":
    """Run ``ds`` once: its block refs and its row total (from the block
    metadata; no block reaches the driver). A size guard decides on the
    total and hands these same refs on (``rd.from_arrow_refs``), so the
    upstream plan does not run a second time."""
    refs, n_rows = [], 0
    for bundle in ds.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
        n_rows += bundle.num_rows()
    return refs, n_rows


def _arrow_blocks(refs) -> list:
    """The blocks behind ``refs``, fetched to the driver as Arrow
    tables."""
    import ray
    from ray.data.block import BlockAccessor

    return [BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs)]


def split_blocks(ds, part_col: str, n_parts: int, prep=None):
    """The split half of ``keyed_exchange``, at the object-ref level: one
    split task per block of ``ds`` (submitted as blocks arrive; ``ds``
    runs once, here). Returns, for each partition i, the refs of its
    slices, one per input block (no block: ``n_parts`` empty lists).
    ``prep(table) -> table`` runs inside the split task and must add
    ``part_col``; a caller merges a partition's slices with
    ``_merge_part`` inside whatever task consumes them."""
    import ray

    split = ray.remote(_prep_and_split).options(num_returns=n_parts)
    shards = [
        split.remote(ref, part_col, n_parts, prep)
        for bundle in ds.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    if n_parts == 1:
        shards = [[s] for s in shards]
    return [list(col) for col in zip(*shards)] or [[] for _ in range(n_parts)]


def keyed_exchange(ds, part_col: str, n_parts: int):
    """Deliver every row to the partition its ``part_col`` names: output
    block i holds exactly the rows whose ``part_col`` is i (an int in
    [0, n_parts)), as one contiguous block with the input schema — empty
    blocks included.

    The caller plans the partition of every row (e.g. LPT-packed pair
    buckets), so the exchange only moves rows: one split task per input
    block sorts by ``part_col`` and returns ``n_parts`` slices, one merge
    task per partition concatenates its slices. Plain tasks, no actors
    (the map/reduce shuffle of Exoshuffle, SIGCOMM 2023): nothing holds
    CPUs across the exchange, so it also runs on a 1-CPU cluster. M
    input blocks put M x n_parts slice objects, as many as a hash
    shuffle's push tasks put.

    The input runs and the tasks are submitted when this is called (an
    exchange is a barrier; split tasks start as input blocks arrive);
    consumers of the returned Dataset stay lazy."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    parts = split_blocks(ds, part_col, n_parts)
    if not parts[0]:
        schema = ds.schema()
        schema = getattr(schema, "base_schema", schema) or pa.schema([])
        return rd.from_arrow_refs(
            [ray.put(schema.empty_table()) for _ in range(n_parts)]
        )
    merge = ray.remote(_merge_part)
    return rd.from_arrow_refs([merge.remote(*col) for col in parts])


# a null key value's hash: every null of a key column meets in one
# partition (pyarrow's group_by groups nulls together; joins drop them)
_NULL_HASH = 0x6E756C6C6B6579  # b"nullkey"

# the exchange column the keyed primitives add and drop again (a name no
# caller's table uses: some carry a "part" column of their own)
_PART = "__part"


def _column_hash(a) -> "np.ndarray":
    """uint64 hash of each value of one key column: splitmix64 of the
    int64 bits for integers (uint64 keys >= 2^63 included) and temporal
    or boolean values, a splitmix64 fold over the 8-byte words of a
    fixed-size binary (the LSH band keys), ``fnv64_arrow`` for strings
    and binary (once per distinct value), ``_NULL_HASH`` for a null."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from .functions.hashing import fnv64_arrow, splitmix64

    a = a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
    typ = a.type
    if not len(a):
        return np.empty(0, np.uint64)
    if pa.types.is_fixed_size_binary(typ):
        nw = typ.byte_width // 8
        words = np.frombuffer(
            a.buffers()[1], dtype=np.uint64, count=(a.offset + len(a)) * nw
        )[a.offset * nw :].reshape(len(a), nw)
        h = splitmix64(words[:, 0])
        for j in range(1, nw):
            h = splitmix64(h ^ words[:, j])
    elif any(
        is_t(typ)
        for is_t in (
            pa.types.is_string,
            pa.types.is_large_string,
            pa.types.is_binary,
            pa.types.is_large_binary,
        )
    ):
        enc = a.dictionary_encode()
        h = np.zeros(len(a), np.uint64)
        if len(enc.dictionary):
            h = fnv64_arrow(enc.dictionary)[np.asarray(enc.indices.fill_null(0), np.int64)]
    else:
        if not pa.types.is_integer(typ):
            a = a.cast(pa.int64())
        v = np.asarray(pc.fill_null(a, 0).to_numpy(zero_copy_only=False))
        h = splitmix64(v.astype(np.int64).view(np.uint64))
    if a.null_count:
        h[np.asarray(a.is_null())] = np.uint64(_NULL_HASH)
    return h


def key_hash(t, keys) -> "np.ndarray":
    """The engine's one key hash: uint64 per row of ``t`` over its
    ``keys`` columns (``_column_hash`` of the first, each further
    column folded in as h = splitmix64(h ^ column hash))."""
    from .functions.hashing import splitmix64

    h = _column_hash(t[keys[0]])
    for k in keys[1:]:
        h = splitmix64(h ^ _column_hash(t[k]))
    return h


def key_parts(t, keys, n_parts: int) -> "np.ndarray":
    """Each row's exchange partition: its ``key_hash`` mod ``n_parts``
    (int64)."""
    import numpy as np

    return (key_hash(t, list(keys)) % np.uint64(n_parts)).astype(np.int64)


def with_key_part(t, keys, n_parts: int, part_col: str = "part"):
    """``t`` plus its ``key_parts`` as an int64 ``part_col``."""
    import pyarrow as pa

    return t.append_column(part_col, pa.array(key_parts(t, keys, n_parts), pa.int64()))


def _merge_keyed(*slices):
    """Merge task of ``keyed_repartition`` (and each side of a
    ``keyed_join`` partition): the slices merged, the exchange column
    dropped; no slice at all merges to a column-less empty table."""
    import pyarrow as pa

    t = _merge_part(pa.table({}), *slices)
    return t.drop_columns([_PART]) if _PART in t.column_names else t


def _key_split(ds, keys, n_parts: int):
    return split_blocks(
        ds,
        _PART,
        n_parts,
        partial(with_key_part, keys=list(keys), n_parts=n_parts, part_col=_PART),
    )


def keyed_repartition(ds, keys, n_parts: int):
    """``keyed_exchange`` on the ``key_hash`` of the ``keys`` columns:
    output block i holds exactly the rows whose key hashes to partition
    i (empty blocks included), with the input's columns. The hash is
    computed inside the split tasks, one per block of ``ds``; every row
    of a key meets in one block, so a ``map_batches(...,
    batch_size=None)`` after it sees whole groups."""
    import ray
    import ray.data as rd

    merge = ray.remote(_merge_keyed)
    return rd.from_arrow_refs(
        [merge.remote(*col) for col in _key_split(ds, keys, n_parts)]
    )


def _group_ids(t, keys) -> "np.ndarray":
    """Dense int64 group id per row of ``t`` over its ``keys`` columns
    (a null is a value of its own)."""
    import numpy as np
    import pyarrow.compute as pc

    gid = np.zeros(t.num_rows, np.int64)
    for k in keys:
        enc = pc.dictionary_encode(t[k].combine_chunks(), null_encoding="encode")
        code = np.asarray(enc.indices, np.int64)
        _, gid = np.unique(gid * len(enc.dictionary) + code, return_inverse=True)
    return gid


def _map_groups_part(t, keys, fn):
    """One partition of ``keyed_map_groups``: sort by group, one ``fn``
    call per group slice, the outputs concatenated."""
    import numpy as np
    import pyarrow as pa

    gid = _group_ids(t, keys)
    order = np.argsort(gid, kind="stable")
    t = t.take(pa.array(order, pa.int64()))
    bounds = np.flatnonzero(np.r_[True, np.diff(gid[order]) != 0, True])
    return pa.concat_tables(
        [fn(t.slice(s, e - s)) for s, e in zip(bounds[:-1], bounds[1:])],
        promote_options="default",
    )


def keyed_map_groups(ds, keys, fn, n_parts: int):
    """``Dataset.groupby(keys).map_groups(fn)`` on ``keyed_repartition``:
    ``fn(group table) -> table`` runs once per distinct key."""
    return keyed_repartition(ds, keys, n_parts).map_batches(
        _map_groups_part,
        fn_kwargs={"keys": list(keys), "fn": fn},
        batch_format="pyarrow",
        batch_size=None,
    )


def _group_agg(t, keys, specs):
    """The grouped-aggregate kernel of both ``sized_groupby_agg`` paths:
    one pyarrow group_by, its outputs renamed to the spec aliases."""
    res = t.group_by(keys, use_threads=False).aggregate(
        [([], "count_all") if fn == "count" else (c, fn) for c, fn, _ in specs]
    )
    # pyarrow emits keys first, then "<col>_<fn>" / "count_all" in spec
    # order
    return res.rename_columns(list(keys) + [alias for _, _, alias in specs])


def _inner_join(lt, rt, on: str):
    """Inner join of two tables on ``on``: only the key and a row index
    go through pyarrow's join (pyarrow 16.1 rejects list-typed non-key
    columns), every other column is attached with ``take``. Left
    columns first, then the right's non-key columns; null keys never
    match."""
    import numpy as np
    import pyarrow as pa

    if not lt.num_columns or not rt.num_columns:
        return pa.table({})
    li = pa.table({on: lt[on], "__l": pa.array(np.arange(lt.num_rows), pa.int64())})
    ri = pa.table({on: rt[on], "__r": pa.array(np.arange(rt.num_rows), pa.int64())})
    j = li.join(ri, on, join_type="inner", use_threads=False)
    lidx, ridx = j["__l"], j["__r"]
    cols = {c: lt[c].take(lidx) for c in lt.column_names}
    cols.update({c: rt[c].take(ridx) for c in rt.column_names if c != on})
    return pa.table(cols)


def _join_part(on: str, n_left: int, *slices):
    """Per-partition task of ``keyed_join``."""
    return _inner_join(_merge_keyed(*slices[:n_left]), _merge_keyed(*slices[n_left:]), on)


def keyed_join(left, right, on: str, n_parts: int):
    """Inner join of two Datasets on column ``on``: both sides split by
    the same ``key_hash``, and one task per partition merges its slices
    of both sides and joins them (``_inner_join``). A right key that
    repeats multiplies its left rows, as in SQL."""
    import ray
    import ray.data as rd

    task = ray.remote(_join_part)
    lp, rp = _key_split(left, [on], n_parts), _key_split(right, [on], n_parts)
    return rd.from_arrow_refs(
        [task.remote(on, len(a), *a, *b) for a, b in zip(lp, rp)]
    )


def lpt_buckets(weights, n_buckets: int):
    """Longest-processing-time assignment of weighted items to
    ``n_buckets`` bins (returns one bucket id per item, same order as
    ``weights``): sort by weight descending, give each item to the
    currently-lightest bin via a heap — O(G log B), max-load within 4/3
    of optimal. Shared helper for work-packing small fixed group sets
    (e.g. the embedding-cosine triangle groups) before a keyed
    exchange."""
    import heapq

    import numpy as np

    w = np.asarray(weights, dtype=np.float64)
    out = np.zeros(len(w), dtype=np.int64)
    heap = [(0.0, b) for b in range(n_buckets)]
    heapq.heapify(heap)
    for i in np.argsort(-w, kind="stable"):
        load, b = heapq.heappop(heap)
        out[i] = b
        heapq.heappush(heap, (load + w[i], b))
    return out


def sized_groupby_agg(
    ds,
    keys: "list[str]",
    specs: "list[tuple[str, str]]",
    *,
    n_bytes: "int | None" = None,
    num_partitions: "int | None" = None,
    driver: "bool | None" = None,
):
    """Budget-guarded grouped aggregate: one driver-side pyarrow
    group_by for small knowable inputs, the keyed exchange otherwise
    (same auto/forced contract as the skew census and canonical-CC
    driver paths). Both paths run the same kernel (``_group_agg``).

    When the query's source bytes are knowable (parquet footers) and
    at most ``DRIVER_BYTES`` (compressed), gather the per-batch PARTIALS
    (already pre-aggregated upstream) and group them once on the driver;
    otherwise ``keyed_repartition`` exchanges the rows on the keys into
    ``num_partitions`` partitions (default ``shuffle_partitions()``) and
    a map task groups each partition. Only associative integer
    aggregates ride through here (the engine's fixed-point convention),
    so both paths are bit-identical — asserted by forced-path parity
    tests.

    ``specs`` is ``[(col, fn, alias), ...]`` with fn in {sum, min, max,
    count} (``count`` ignores ``col`` and counts rows). Empty ``specs``
    = DISTINCT over the keys. ``driver`` forces a path (tests/soaks).
    """
    import pyarrow as pa
    import ray.data as rd

    if driver is None:
        driver = on_driver(n_bytes, DRIVER_BYTES)
    if driver:
        tables = _arrow_blocks(run_blocks(ds)[0])
        if tables:
            tbl = pa.concat_tables(tables, promote_options="default")
            return rd.from_arrow(_group_agg(tbl, keys, specs))
    return keyed_repartition(ds, keys, num_partitions or shuffle_partitions()).map_batches(
        _group_agg,
        fn_kwargs={"keys": list(keys), "specs": specs},
        batch_format="pyarrow",
        batch_size=None,
    )


def _keep_heavy(t, threshold: int, scale: int):
    """The census rows whose ``n`` x ``scale`` exceeds ``threshold``,
    with ``n`` scaled."""
    import pyarrow as pa
    import pyarrow.compute as pc

    n = pc.multiply(t["n"], pa.scalar(scale, pa.int64()))
    out = pa.table({"key": t["key"], "n": n})
    return out.filter(pc.greater(n, pa.scalar(threshold, pa.int64())))


def heavy_key_census(partials, threshold: int, scale: int = 1):
    """The skew guards' heavy-key census (pair-gen host salting, asof
    and range-join key salting). ``partials`` holds per-batch partial
    counts ``(key, n)``, ``scale`` is the caller's sample modulus.
    Returns (keys Array, int64 counts) of the keys whose summed ``n`` x
    ``scale`` exceeds ``threshold``, counts scaled, sorted by key.

    ``partials`` runs once (``run_blocks``). Up to ``DRIVER_ROWS``
    partial rows its blocks merge on the driver; past it the same
    blocks merge in ``sized_groupby_agg``'s keyed exchange and only the
    heavy tail reaches the driver. Both paths run ``_group_agg``."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    refs, n_rows = run_blocks(partials)
    spec = [("n", "sum", "n")]
    if on_driver(n_rows, DRIVER_ROWS):
        tables = [t for t in _arrow_blocks(refs) if t.num_rows]
        if tables:
            tbl = pa.concat_tables(tables, promote_options="default")
            merged = _group_agg(tbl, ["key"], spec)
            tables = [_keep_heavy(merged, threshold, scale)]
    else:
        heavy = sized_groupby_agg(
            rd.from_arrow_refs(refs), ["key"], spec, driver=False
        ).map_batches(
            _keep_heavy,
            fn_kwargs={"threshold": threshold, "scale": scale},
            batch_format="pyarrow",
        )
        tables = [t for t in _arrow_blocks(run_blocks(heavy)[0]) if t.num_rows]
    if not tables:
        return pa.array([]), np.empty(0, np.int64)
    out = pa.concat_tables(tables, promote_options="default").sort_by("key")
    return out["key"].combine_chunks(), np.asarray(out["n"], np.int64)


def sized_broadcast_join(
    left,
    right,
    on: str,
    *,
    n_bytes: "int | None" = None,
    num_partitions: "int | None" = None,
    driver: "bool | None" = None,
):
    """Budget-guarded INNER join: broadcast-map when the right side is
    small and unique-keyed, ``keyed_join`` otherwise.

    A keyed join exchanges both sides; for an N:1 join against a
    reference table of knowable small size (compressed parquet bytes <=
    ``DRIVER_BYTES``) the engine instead gathers the RIGHT side once,
    ``ray.put``s sorted key/value arrays, and attaches the right columns
    with one vectorized searchsorted per left batch — no exchange at
    all, and the left side keeps streaming. Falls back to ``keyed_join``
    (``num_partitions``, default ``shuffle_partitions()``) when the size
    is unknowable, over budget, or the right keys are not unique (the
    broadcast lookup is single-match by construction); a gathered right
    side goes to ``keyed_join`` as its blocks, so it runs once.
    """
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    if driver is None:
        driver = on_driver(n_bytes, DRIVER_BYTES)
    if driver:
        refs, _ = run_blocks(right)
        tabs = _arrow_blocks(refs)
        rt = pa.concat_tables(tabs, promote_options="default") if tabs else None
        if rt is None or rt.num_rows == 0:
            driver = False
        else:
            keys = np.asarray(rt[on].to_numpy(zero_copy_only=False))
            if len(np.unique(keys)) != len(keys):
                driver = False  # dup keys: multiplicity needs a real join
        if not driver:
            right = rd.from_arrow_refs(refs)  # the right side ran once
    if not driver:
        return keyed_join(left, right, on, num_partitions or shuffle_partitions())

    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    other_cols = [c for c in rt.column_names if c != on]
    payload = {c: rt[c].combine_chunks().take(pa.array(order)) for c in other_cols}
    ref = ray.put((skeys, payload))

    def attach(t: pa.Table) -> pa.Table:
        from .stages.mention_prep import get_broadcast

        sk, pay = get_broadcast(ref)
        k = np.asarray(t[on].to_numpy(zero_copy_only=False))
        idx = np.searchsorted(sk, k)
        idx_c = np.minimum(idx, len(sk) - 1)
        hit = sk[idx_c] == k
        if not hit.all():
            t = t.filter(pa.array(hit))
            idx_c = idx_c[hit]
        take = pa.array(idx_c, pa.int64())
        for c in other_cols:
            t = t.append_column(c, pay[c].take(take))
        return t

    return left.map_batches(attach, batch_format="pyarrow")
