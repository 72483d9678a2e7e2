"""Small Ray helpers shared by stages/pipelines."""

from __future__ import annotations

import math


def cluster_cpus(default: int = 8) -> int:
    """Total cluster CPUs (falls back to ``default`` pre-init)."""
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


def _tune_aggregator_pool(cpus: int) -> None:
    """Cap the hash-shuffle aggregator-actor pool at ~cpus/4 (floor 8).

    Aggregators mostly concatenate received partitions; one actor can
    serve several partitions (Ray scales its CPU share by the ratio).
    Fewer actors = fewer worker-process startups per exchange — measured
    interleaved at 32 cpus / 400k pages: pair exchange 33.2/38.1 s with
    64 aggregators vs 31.5/34.7 s with 8 (both rounds favor fewer). The
    cap scales with cluster CPUs, so a multi-node cluster still gets
    enough SPREAD aggregators to use every node's memory bandwidth."""
    try:
        from ray.data.context import DataContext

        DataContext.get_current().max_hash_shuffle_aggregators = max(
            8, cpus // 4
        )
    except Exception:  # pragma: no cover — older ray
        pass


def tune_data_context(cpus: int | None = None) -> None:
    """One-stop DataContext tune (idempotent): the aggregator-pool cap
    plus the read-op block floor. Ray's static 200-block read floor is
    wrong in both directions: on a 32-cpu node it shreds a ~1 GB input
    into 256 tiny blocks whose (blocks x partitions) per-shard aggregator
    round-trips dominate hash-exchange wall — each push task ray.puts and
    actor-submits one shard PER PARTITION and then blocks on the acks
    (ray hash_shuffle.py `_shuffle_block`), so push overhead is
    blocks x partitions (``keyed_exchange`` puts the same blocks x
    partitions slices, without the actor round-trips); measured when the
    ER pair exchange was still a keyed repartition: it ran 2-3x faster
    from 2-per-CPU blocks than from 200-floor blocks at identical bytes
    (5.1-5.8 s vs 10.9-18.5 s, 400k pages / 1.2 GB / 32 partitions).
    On a 256-node cluster the same floor is too LOW —
    200 blocks cannot feed 8192 cores. Floor = 2 blocks/CPU, which is
    Ray's own `avail_cpus * 2` baseline; the bytes-driven
    min_safe_parallelism (mem_size / target_max_block_size) still grows
    block counts for big inputs, so the anti-OOM path is untouched."""
    cpus = cluster_cpus() if cpus is None else cpus
    _tune_aggregator_pool(cpus)
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
    """Partition count for hash-shuffle groupbys/joins: ~`factor` per CPU.

    Hash-shuffle aggregators are actors; the default parallelism can
    exceed small clusters' CPUs and deadlock scheduling, so every
    groupby/join in this engine sizes its exchange explicitly. As a
    side effect (deliberate: this runs after ray.init, when cluster
    CPUs are knowable, unlike the import-time config in __init__.py)
    the aggregator pool cap is tuned to the cluster size."""
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
    """Data-aware partition count for hash exchanges whose input size is
    already known (e.g. from a materialized upstream). Two forces:

    - small exchanges SHRINK below one-per-CPU (fixed per-aggregator
      overhead dominates): ~``rows_per_part`` rows per partition;
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


def join_partitions(lo: int = 2, hi: int | None = None) -> int:
    """Partition count for ``Dataset.join``: ~cpus/2. Join aggregators
    are heavier actors than groupby's — measured on a 32-cpu node, a
    150k x 150k join runs 4.2s at 8 partitions vs 7.7s at 32 (actor
    startup dominates); cpus/2 balances that against per-partition
    memory at scale."""
    cpus = cluster_cpus()
    if hi is None:
        hi = partition_ceiling(cpus)
    return max(lo, min(hi, cpus // 2))


def sized_groupby_agg(
    ds,
    keys: "list[str]",
    specs: "list[tuple[str, str]]",
    *,
    n_bytes: "int | None" = None,
    num_partitions: "int | None" = None,
    budget_bytes: int = 32 << 20,
    driver: "bool | None" = None,
):
    """Budget-guarded grouped aggregate: driver merge for small knowable
    inputs, hash-aggregate exchange otherwise (same auto/forced contract
    as the skew census and canonical-CC driver paths).

    Ray's hash-aggregate exchange has seconds of FIXED cost (aggregator
    actor startup, push-barrier rounds, finalize trickle) regardless of
    bytes — measured ~3 s to aggregate a 2 MB events table that a single
    vectorized pyarrow group_by finishes in milliseconds. When the
    query's source bytes are knowable (parquet footers) and under
    ``budget_bytes`` (compressed), gather the per-batch PARTIALS (already
    pre-aggregated upstream) and run one driver-side
    ``pyarrow.TableGroupBy``; otherwise run the distributed exchange.
    Only associative integer aggregates ride through here (the engine's
    fixed-point convention), so both paths are bit-identical — asserted
    by forced-path parity tests.

    ``specs`` is ``[(col, fn, alias), ...]`` with fn in {sum, min, max,
    count} (``count`` ignores ``col`` and counts rows). Empty ``specs``
    = DISTINCT over key-only rows. ``driver`` forces a path
    (tests/soaks).
    """
    import pyarrow as pa
    import ray
    import ray.data as rd

    if driver is None:
        driver = n_bytes is not None and n_bytes <= budget_bytes
    if driver:
        tables = ray.get(ds.to_arrow_refs())
        if not tables:
            driver = False  # empty-plan edge: let Ray produce the schema
    if not driver:
        nparts = num_partitions or shuffle_partitions()
        if not specs:
            return ds.groupby(keys, num_partitions=nparts).map_groups(
                lambda g: g.slice(0, 1), batch_format="pyarrow"
            )
        from ray.data.aggregate import Count, Max, Min, Sum

        mk = {"sum": Sum, "min": Min, "max": Max}
        aggs = [
            Count(alias_name=alias)
            if fn == "count"
            else mk[fn](c, alias_name=alias)
            for c, fn, alias in specs
        ]
        return ds.groupby(keys, num_partitions=nparts).aggregate(*aggs)

    tbl = pa.concat_tables(tables, promote_options="default")
    res = tbl.group_by(keys).aggregate(
        [([], "count_all") if fn == "count" else (c, fn) for c, fn, _ in specs]
    )
    # pyarrow emits keys first, then "<col>_<fn>" / "count_all" in spec
    # order — rename to the aliases (key-first order already matches
    # Ray's groupby.aggregate)
    res = res.rename_columns(list(keys) + [alias for _, _, alias in specs])
    return rd.from_arrow(res)


def sized_broadcast_join(
    left,
    right,
    on: str,
    *,
    n_bytes: "int | None" = None,
    num_partitions: "int | None" = None,
    budget_bytes: int = 32 << 20,
    driver: "bool | None" = None,
):
    """Budget-guarded INNER join: broadcast-map when the right side is
    small and unique-keyed, hash-exchange ``Dataset.join`` otherwise.

    Ray 2.49's hash join pays two exchanges plus heavier aggregator
    actors; for an N:1 join against a reference table of knowable small
    size (compressed parquet bytes <= ``budget_bytes``) the engine
    instead gathers the RIGHT side once, ``ray.put``s sorted key/value
    arrays, and attaches the right columns with one vectorized
    searchsorted per left batch — no shuffle at all, and the left side
    keeps streaming. Falls back to ``Dataset.join`` when the size is
    unknowable, over budget, or the right keys are not unique (the
    broadcast lookup is single-match by construction).
    """
    import numpy as np
    import pyarrow as pa
    import ray

    if driver is None:
        driver = n_bytes is not None and n_bytes <= budget_bytes
    rt = None
    if driver:
        tabs = ray.get(right.to_arrow_refs())
        rt = pa.concat_tables(tabs, promote_options="default") if tabs else None
        if rt is None or rt.num_rows == 0:
            driver = False
        else:
            keys = np.asarray(rt[on].to_numpy(zero_copy_only=False))
            if len(np.unique(keys)) != len(keys):
                driver = False  # dup keys: multiplicity needs a real join
    if not driver:
        return left.join(
            right,
            join_type="inner",
            on=(on,),
            num_partitions=num_partitions or join_partitions(),
        )

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
