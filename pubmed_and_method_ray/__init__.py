"""Ray-Data-native entity-resolution engine (web-page graft of
carmanzhang/PubMed-AND-method).

Layout:
- ``functions/``: pure, deterministic kernels (no Ray) — string similarity,
  simhash/minhash, tf-idf, a numpy gradient-boosted classifier, metrics.
- ``sources/``:   synthetic page corpus generation, Parquet checkpointing
  with lineage manifests.
- ``stages/``:    Ray Data stages (map_batches / groupby building blocks).
- ``pipelines/``: end-to-end pipelines (ER flagship, dedup, similarity
  search, text analysis, relational ops) exposed to ``__ray_entry__``.
- ``state/``:     trained-model persistence.

Reference semantics are cited per-function as /root/reference/<file>:<line>.
"""

__version__ = "0.1.0"


def _configure_ray_data() -> None:
    """Engine-wide Ray Data defaults. HASH_SHUFFLE is required for
    key-based repartition (the pair-jaccard and SimHash dedup
    exchanges, the MinHash-LSH verify joins, as-of and the relational
    exchanges; the ER pair exchange, distributed connected components,
    shared-window dedup and the MinHash-LSH band exchanges are
    ``rayutil.keyed_exchange``/``split_blocks`` and use none of this) and is the strategy that scales aggregations on a
    multi-node cluster; it must be set before any Dataset is created
    (contexts snapshot at creation)."""
    try:
        from ray.data.context import DataContext, ShuffleStrategy

        ctx = DataContext.get_current()
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        # Aggregator pools are actors holding LOGICAL CPUs for the whole
        # exchange lifetime. For Shuffle (keyed repartition + every
        # groupby().map_groups) the aggregators only concatenate received
        # partitions — measured 2.9 cpu-s of finalize work while their
        # reservation idled HALF the cluster (0.25 x 64 partitions = 16 of
        # 32 CPUs) through the downstream map tasks; 0.05 per partition
        # freed them: measured on the ER pair exchange when it still ran
        # as a keyed repartition, 42.8s -> 28.7s min-per-side interleaved
        # at 32 cpus / 400k pages. Native aggregates and joins
        # do real reduction work inside their aggregators, so they keep
        # the larger reservation (still fractional so a shuffle with more
        # partitions than CPUs schedules instead of deadlocking on small
        # clusters / test sessions).
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.05
        ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0.25
        ctx.join_operator_actor_num_cpus_per_partition_override = 0.25
    except Exception:  # pragma: no cover - older/newer ray fallback
        pass
    _silence_empty_partition_schema_warning()


class _EmptySchemaMismatchFilter:
    """Ray's hash-shuffle operator emits schema-LESS RefBundles for empty
    hash partitions (reproduced: repartition(keys=...) where a partition
    receives no rows), which triggers a benign 'different schema ... new
    schema: .' warning per empty partition. This engine's own empty
    tables always carry full schemas, so only the empty-new-schema form
    of the warning is dropped; genuine schema mismatches still log."""

    def filter(self, record) -> bool:  # logging.Filter protocol
        m = record.getMessage()
        return not (
            "RefBundle with a different schema" in m and "new schema: ." in m
        )


def _silence_empty_partition_schema_warning() -> None:
    import logging

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptySchemaMismatchFilter())


_configure_ray_data()
