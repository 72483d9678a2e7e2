"""Parquet read wrapper that strips schema metadata.

A ``pa.Schema`` carrying ANY key/value metadata dict — even an empty
one — is unhashable (``hash(schema)`` raises ``unhashable type:
'dict'``). Ray's block-schema dedup (``set(schemas)`` in
ray/data/_internal/arrow_ops/transform_pyarrow.py:unify_schemas) runs
wherever blocks are concatenated AND inside the fused
``ReadParquet->SplitBlocks`` read task itself, so any block born with
the parquet writer's ``b'pandas'`` metadata logs ``Failed to hash the
schemas (for deduplication)`` and falls through to the slow unify
path. A downstream strip stage cannot silence the read-task instance —
the blocks must be born clean. The metadata is purely informational
for this engine, so the reader probes the first file's footer and
passes an explicitly metadata-free ``schema=`` to ``read_parquet``;
that also preserves ``input_files()`` for partition-pruned reads,
which a ``map_batches`` wrapper would hide. The fused strip stage
remains only for inconclusive probes (globs, remote paths).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd


def strip_schema_metadata(t: pa.Table) -> pa.Table:
    if t.schema.metadata is not None:
        return t.replace_schema_metadata(None)
    return t


def _probe_schema(paths) -> "pa.Schema | None":
    """Footer schema of the first local parquet file under ``paths``
    (descending one level into a directory), or None when inconclusive
    (glob, remote, unreadable) — callers must then strip defensively."""
    import os

    import pyarrow.parquet as pq

    p = paths[0] if isinstance(paths, (list, tuple)) else paths
    try:
        if not isinstance(p, str):
            return None
        if os.path.isdir(p):
            inner = sorted(
                f for f in os.listdir(p) if f.endswith(".parquet")
            )
            if not inner:
                return None
            p = os.path.join(p, inner[0])
        if not os.path.isfile(p):
            return None
        return pq.ParquetFile(p).schema_arrow
    except Exception:
        return None


def _cleaned(schema: pa.Schema) -> "pa.Schema | None":
    """Schema with all key/value metadata removed (schema- and
    field-level); None if it was already clean."""
    dirty = schema.metadata is not None or any(
        schema.field(i).metadata is not None for i in range(len(schema))
    )
    if not dirty:
        return None
    return pa.schema(
        [schema.field(i).remove_metadata() for i in range(len(schema))],
        metadata=None,
    )


def read_parquet_clean(paths, *, columns=None, **kwargs) -> "rd.Dataset":
    """``rd.read_parquet`` whose blocks carry no schema metadata.

    Probes the first file's footer: already-clean files (this engine's
    own ``write_parquet`` output) read as-is; files with writer
    metadata read under an explicit stripped ``schema=`` so the blocks
    are clean from birth (no extra stage, ``input_files()`` intact).
    Only an inconclusive probe falls back to the fused strip stage.

    The explicit-``schema=`` fast path assumes a HOMOGENEOUS multi-file
    layout (every file carries the probed footer's schema — true for
    this engine's own checkpoints and the test tables). A requested
    column absent from the probed footer (e.g. a hive partition key
    that lives in the directory name, or schema drift across files)
    falls back to the strip-stage path, where Ray's reader unifies
    schemas per file instead of forcing the first footer's."""
    from ..rayutil import tune_data_context

    # Every pipeline reads through here, so this is the one place the
    # cluster-sized read-block floor (rayutil.tune_data_context) is
    # guaranteed to be set before the read op is planned. Pre-init the
    # fallback cpus may undershoot, which is harmless: Ray's own
    # avail_cpus*2 baseline re-floors parallelism at execution time.
    tune_data_context()
    if "schema" not in kwargs:
        probed = _probe_schema(paths)
        if probed is not None:
            clean = _cleaned(probed)
            if clean is None:
                return rd.read_parquet(paths, columns=columns, **kwargs)
            try:
                if columns is not None:
                    clean = pa.schema([clean.field(c) for c in columns])
                return rd.read_parquet(
                    paths, columns=columns, schema=clean, **kwargs
                )
            except KeyError:
                pass  # column not in the probed footer: strip-stage path
    ds = rd.read_parquet(paths, columns=columns, **kwargs)
    return ds.map_batches(strip_schema_metadata, batch_format="pyarrow")


def _local_bytes(paths) -> "int | None":
    """Total on-disk bytes of local parquet input(s); None when
    inconclusive (glob, remote, unreadable)."""
    import os

    ps = list(paths) if isinstance(paths, (list, tuple)) else [paths]
    total = 0
    try:
        for p in ps:
            if not isinstance(p, str):
                return None
            if os.path.isdir(p):
                inner = [
                    os.path.join(p, f)
                    for f in os.listdir(p)
                    if f.endswith(".parquet")
                ]
                if not inner:
                    return None
                total += sum(os.path.getsize(f) for f in inner)
            elif os.path.isfile(p):
                total += os.path.getsize(p)
            else:
                return None
        return total
    except Exception:
        return None


def sized_read_blocks(
    paths,
    cpus: "int | None" = None,
    bytes_per_block: int = 1 << 20,
    max_block_bytes: int = 128 << 20,
) -> "int | None":
    """Bytes-aware read parallelism for exchange-bound relational reads.

    The cluster-sized read floor (``tune_data_context``: 2 blocks/CPU)
    is right for compute-heavy pipelines, but for small relational
    tables feeding straight into a keyed exchange it over-shreds: an
    exchange's split cost is blocks x partitions slices, so a 2 MB
    events table read as 64 blocks puts 64 x 32 slices to move 3 MB
    (measured on Ray's actor hash shuffle, whose push cost had the same
    blocks x partitions shape: the tumbling-window groupby ran ~1.7x
    faster from 8 blocks than from 64 at identical bytes — interleaved
    sweep in BASELINE.md). Rule, scale-symmetric like
    ``rayutil.sized_partitions``:

    - ~``bytes_per_block`` (1 MiB compressed) per block, so small tables
      get few split tasks;
    - floor cpus//4 so the read/split stage still parallelizes (blocks=2
      measured ~2x SLOWER than 8 at 32 cpus — too few concurrent pushes);
    - cap 2 blocks/CPU = the global read floor (never MORE shredding
      than the default);
    - anti-OOM: grows past the cap at ~``max_block_bytes`` per block, so
      a 100 TB input can never be forced into 64 giant blocks.

    Returns None (caller should not override) when input size is
    unknowable — lazy/remote inputs keep Ray's own sizing.
    """
    import math

    from ..rayutil import cluster_cpus

    n_bytes = _local_bytes(paths)
    if n_bytes is None or n_bytes <= 0:
        return None
    cpus = cluster_cpus() if cpus is None else cpus
    lo = max(2, cpus // 4)
    hi = max(2, 2 * cpus)
    n = max(lo, min(hi, math.ceil(n_bytes / bytes_per_block)))
    return max(n, math.ceil(n_bytes / max_block_bytes))


def read_parquet_sized(paths, *, columns=None, **kwargs) -> "rd.Dataset":
    """``read_parquet_clean`` with bytes-aware block count (see
    ``sized_read_blocks``) for small exchange-bound relational reads.
    Callers that pass an explicit ``override_num_blocks`` win."""
    if "override_num_blocks" not in kwargs:
        n = sized_read_blocks(paths)
        if n is not None:
            kwargs["override_num_blocks"] = n
    return read_parquet_clean(paths, columns=columns, **kwargs)


def sized_table_partitions(paths, cpus: "int | None" = None) -> int:
    """Bytes/rows-aware keyed-exchange partition count for queries over
    local parquet tables of knowable size.

    ``rayutil.shuffle_partitions()`` sizes exchanges at ~1/CPU, which is
    right when the input fills the cluster but pays 32 merge tasks (plus
    blocks x partitions slice objects) to aggregate a 2 MB events
    table. Probe the parquet footers for exact rows + bytes and delegate
    to ``rayutil.sized_partitions`` (its anti-OOM growth term keeps
    100 TB inputs safe), with a floor of cpus/4 matching the sized-read
    floor — fewer partitions than that leave merge tasks too few to run
    in parallel. Unknowable inputs (remote, globs) keep the CPU-based
    count.
    """
    import os

    from ..rayutil import cluster_cpus, shuffle_partitions, sized_partitions

    ps = list(paths) if isinstance(paths, (list, tuple)) else [paths]
    n_rows = 0
    n_bytes = _local_bytes(ps)
    if n_bytes is None:
        return shuffle_partitions()
    try:
        import pyarrow.parquet as pq

        for p in ps:
            if os.path.isdir(p):
                for f in os.listdir(p):
                    if f.endswith(".parquet"):
                        n_rows += pq.ParquetFile(
                            os.path.join(p, f)
                        ).metadata.num_rows
            else:
                n_rows += pq.ParquetFile(p).metadata.num_rows
    except Exception:
        return shuffle_partitions()
    cpus = cluster_cpus() if cpus is None else cpus
    return sized_partitions(
        n_rows,
        lo=max(2, cpus // 4),
        hi=shuffle_partitions(),
        n_bytes=n_bytes,
        bytes_per_part=64 << 20,
    )
