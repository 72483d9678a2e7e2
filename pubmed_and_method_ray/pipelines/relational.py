"""Relational operator coverage over the TPC-H-ish tables: grouped
aggregation with partial pre-aggregation, broadcast hash joins, sort /
top-k, filter+project, window-style event bucketing, union/distinct —
the J/A/O/M/D rows of SURVEY.md §2 exercised on oracle-friendly tables.

Float parity with the DuckDB oracles: additive aggregates are rounded
(sum error ~1e-8 ≪ round unit); per-row arithmetic is bit-identical.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import rayutil
from ..rayutil import keyed_join, keyed_map_groups, keyed_repartition, run_blocks


def _read(sf_dir: str, table: str, columns=None):
    """Relational-table read: bytes-aware block count (these queries
    feed small tables straight into keyed exchanges, whose split cost is
    blocks x partitions slices — see ``sources.io.sized_read_blocks``)."""
    from ..sources.io import read_parquet_sized

    return read_parquet_sized(f"{sf_dir}/{table}.parquet", columns=columns)


def _parts(sf_dir: str, *tables: str) -> int:
    """Bytes/rows-aware exchange partition count from the query's source
    tables (``sources.io.sized_table_partitions``): a 2 MB events table
    does not need 32 partitions — each costs a merge task and its slice
    objects, which dominate small exchanges — while the anti-OOM growth
    term still scales partition counts for 100 TB inputs. Every keyed
    exchange and join of these queries uses it."""
    from ..sources.io import sized_table_partitions

    return sized_table_partitions([f"{sf_dir}/{t}.parquet" for t in tables])


def _agg(ds, keys, specs, sf_dir: str, *tables: str):
    """Budget-guarded grouped aggregate over ``ds`` whose source tables
    are knowable local parquet (``rayutil.sized_groupby_agg``): a driver
    pyarrow group_by of the pre-aggregated partials when the sources are
    small (an exchange's fixed cost — a split task per block, a merge
    task per partition, a barrier — exceeds grouping a few MB), the
    sized keyed exchange otherwise. Both paths are bit-identical
    (fixed-point aggregates)."""
    from ..rayutil import sized_groupby_agg
    from ..sources.io import _local_bytes

    return sized_groupby_agg(
        ds,
        keys,
        specs,
        n_bytes=_local_bytes([f"{sf_dir}/{t}.parquet" for t in tables]),
        num_partitions=_parts(sf_dir, *tables),
    )


def _from_pandas(g) -> pa.Table:
    """``pa.Table.from_pandas`` without the ``b'pandas'`` schema metadata
    it attaches: a schema carrying ANY metadata dict is unhashable, and
    blocks born dirty make Ray Data's schema unification (block concat)
    log ``Failed to hash the schemas`` and take the slow unify path
    (same contract as sources/io.read_parquet_clean, but for blocks
    created INSIDE map stages)."""
    return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(
        None
    )


def _to_fixed(x: np.ndarray, scale: float) -> np.ndarray:
    """Fixed-point encode a double column: floor(x*scale + 0.5) -> int64.

    Cross-engine float SUMs are order-dependent (a 1-ulp mismatch breaks
    the value-hash gate), so every additive money/value aggregate here is
    summed in integer fixed-point — exact and associative — and decoded
    with one identical division. The SQL oracles use the literal same
    expression: SUM(CAST(FLOOR(x*scale + 0.5) AS BIGINT)) / scale."""
    return np.floor(x * scale + 0.5).astype(np.int64)


def pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped grouped aggregate with per-batch partial
    pre-aggregation before the (tiny) groupby shuffle (SURVEY.md §4)."""

    cutoff = np.datetime64("1998-09-01T00:00:00", "us").astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        ts = t["l_shipdate"].cast(pa.int64())
        t = t.filter(pc.less_equal(ts, cutoff))
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        base = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc_price = base * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False))
        import pandas as pd

        df = pd.DataFrame(
            {
                "l_returnflag": t["l_returnflag"].to_pylist(),
                "l_linestatus": t["l_linestatus"].to_pylist(),
                "qty_c": _to_fixed(qty, 100.0),
                "base_c": _to_fixed(base, 100.0),
                "disc_c": _to_fixed(disc_price, 100.0),
            }
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty_c=("qty_c", "sum"),
            sum_base_c=("base_c", "sum"),
            sum_disc_c=("disc_c", "sum"),
            n_rows=("qty_c", "size"),
        )
        return _from_pandas(g)

    partials = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(partial, batch_format="pyarrow")

    agg = _agg(
        partials,
        ["l_returnflag", "l_linestatus"],
        [
            ("sum_qty_c", "sum", "sum_qty_c"),
            ("sum_base_c", "sum", "sum_base_c"),
            ("sum_disc_c", "sum", "sum_disc_c"),
            ("n_rows", "sum", "n_rows"),
        ],
        sf_dir,
        "lineitem",
    )

    def finalize(t: pa.Table) -> pa.Table:
        sum_qty = t["sum_qty_c"].to_numpy(zero_copy_only=False) / 100.0
        n = t["n_rows"].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": pa.array(sum_qty, pa.float64()),
                "sum_base_price": pa.array(
                    t["sum_base_c"].to_numpy(zero_copy_only=False) / 100.0, pa.float64()
                ),
                "sum_disc_price": pa.array(
                    t["sum_disc_c"].to_numpy(zero_copy_only=False) / 100.0, pa.float64()
                ),
                "avg_qty": pa.array(sum_qty / n, pa.float64()),
                "n_rows": t["n_rows"],
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def _line_rev_partial(t: pa.Table) -> pa.Table:
    """Per-batch (orderkey -> fixed-point revenue) pre-aggregation:
    shrinks the join input by the lines-per-order factor."""
    import pandas as pd

    rev = (
        t["l_extendedprice"].to_numpy(zero_copy_only=False)
        * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False))
    )
    g = (
        pd.DataFrame(
            {
                "o_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                "rev_c": _to_fixed(rev, 100.0),
            }
        )
        .groupby("o_orderkey", as_index=False)["rev_c"]
        .sum()
    )
    return _from_pandas(g)


def _rev_c_to_revenue(t: pa.Table) -> pa.Table:
    return pa.Table.from_pydict(
        {
            "n_name": t["n_name"],
            "revenue": pa.array(
                t["rev_c"].to_numpy(zero_copy_only=False) / 100.0, pa.float64()
            ),
        }
    )


def _revenue_by_nation_join(sf_dir: str, cust_ds, nat_map: dict):
    """Scale path: customer is too big to broadcast, so the cust→nation
    attachment is a second keyed join on the customer key; revenue
    pre-aggregates per custkey before it (join input ~ |customers|,
    not |orders|). Nation (25 rows) still broadcasts."""
    import ray

    nat_ref = ray.put(nat_map)

    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(_line_rev_partial, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    n = _parts(sf_dir, "lineitem", "orders", "customer")
    per_order = keyed_join(line, orders, "o_orderkey", n)

    def cust_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        g = (
            pd.DataFrame(
                {
                    "c_custkey": t["o_custkey"].to_numpy(zero_copy_only=False),
                    "rev_c": t["rev_c"].to_numpy(zero_copy_only=False),
                }
            )
            .groupby("c_custkey", as_index=False)["rev_c"]
            .sum()
        )
        return _from_pandas(g)

    per_cust = keyed_join(
        per_order.map_batches(cust_partial, batch_format="pyarrow"), cust_ds, "c_custkey", n
    )

    def attach(t: pa.Table) -> pa.Table:
        from ..stages.mention_prep import get_broadcast

        import pandas as pd

        nm = get_broadcast(nat_ref)
        g = (
            pd.DataFrame(
                {
                    "n_name": [
                        nm[k] for k in t["c_nationkey"].to_pylist()
                    ],
                    "rev_c": t["rev_c"].to_numpy(zero_copy_only=False),
                }
            )
            .groupby("n_name", as_index=False)["rev_c"]
            .sum()
        )
        return _from_pandas(g)

    agg = _agg(
        per_cust.map_batches(attach, batch_format="pyarrow"),
        ["n_name"],
        [("rev_c", "sum", "rev_c")],
        sf_dir,
        "lineitem",
        "orders",
        "customer",
    )
    return agg.map_batches(_rev_c_to_revenue, batch_format="pyarrow")


def revenue_by_nation(sf_dir: str):
    """3-way join expressed Ray-Data-first for star schemas (SURVEY.md
    J1/J2): lineitem pre-aggregates per order inside map_batches
    (fixed-point partials), then joins the fact-sized orders table
    (``rayutil.sized_broadcast_join``). The customer⋈nation side is
    SIZE-GUARDED: up to ``rayutil.DRIVER_ROWS`` customers (the parquet
    footers' row count, known without a pass over the table) it
    broadcasts via ray.put (one object fetch per worker, no exchange);
    above, or when the size is unknowable — the customer dimension grows
    linearly with the corpus, so a GB-scale dict per worker would not
    hold — it becomes a second keyed join on o_custkey (nation alone
    always broadcasts: 25 rows)."""
    import ray

    cust_ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nat_map = dict(zip(nat["n_nationkey"], nat["n_name"]))
    if not rayutil.on_driver(rayutil.known_size(cust_ds)[0], rayutil.DRIVER_ROWS):
        return _revenue_by_nation_join(sf_dir, cust_ds, nat_map)
    cust = cust_ds.to_pandas()
    cust_nation = dict(
        zip(
            cust["c_custkey"].to_numpy(),
            cust["c_nationkey"].map(nat_map).to_numpy(),
        )
    )
    ref = ray.put(cust_nation)

    def attach_nation(t: pa.Table) -> pa.Table:
        from ..stages.mention_prep import get_broadcast

        lookup = get_broadcast(ref)
        nations = [lookup[k] for k in t["o_custkey"].to_pylist()]
        import pandas as pd

        g = (
            pd.DataFrame(
                {
                    "n_name": nations,
                    "rev_c": t["rev_c"].to_numpy(zero_copy_only=False),
                }
            )
            .groupby("n_name", as_index=False)["rev_c"]
            .sum()
        )
        return _from_pandas(g)

    from ..rayutil import sized_broadcast_join
    from ..sources.io import _local_bytes

    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(_line_rev_partial, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = sized_broadcast_join(
        line,
        orders,
        "o_orderkey",
        n_bytes=_local_bytes(f"{sf_dir}/orders.parquet"),
    )
    agg = _agg(
        joined.map_batches(attach_nation, batch_format="pyarrow"),
        ["n_name"],
        [("rev_c", "sum", "rev_c")],
        sf_dir,
        "lineitem",
        "orders",
        "customer",
    )
    return agg.map_batches(_rev_c_to_revenue, batch_format="pyarrow")


def top_parts(sf_dir: str, k: int = 20):
    """Sort + limit (O1 analog): top-k parts by retail price."""
    return (
        _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"])
        .sort("p_retailprice", descending=True)
        .limit(k)
    )


def filter_project_lineitem(sf_dir: str):
    """Vectorized predicate + computed column (M13 + revenue expression);
    per-row arithmetic is bit-identical to the SQL oracle."""

    def f(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(t["l_discount"], 0.05),
                pc.less_equal(t["l_discount"], 0.07),
            ),
            pc.less(t["l_quantity"], 24.0),
        )
        t = t.filter(mask)
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.Table.from_pydict(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "revenue": rev,
            }
        )

    return _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount"]
    ).map_batches(f, batch_format="pyarrow")


def events_hour_window(sf_dir: str):
    """Tumbling 1-hour window per user (streaming-shaped analog,
    SURVEY.md §2.13): bucket = floor-div of epoch microseconds."""

    def bucket_partial(t: pa.Table) -> pa.Table:
        """Per-batch partial (user, hour) aggregates before the shuffle."""
        import pandas as pd

        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "hour_bucket": us // 3_600_000_000,
                "value_c": _to_fixed(t["value"].to_numpy(zero_copy_only=False), 1e6),
            }
        )
        g = df.groupby(["user_id", "hour_bucket"], as_index=False).agg(
            n_events=("value_c", "size"), value_c=("value_c", "sum")
        )
        return _from_pandas(g)

    agg = _agg(
        _read(sf_dir, "events", ["ts", "user_id", "value"]).map_batches(
            bucket_partial, batch_format="pyarrow"
        ),
        ["user_id", "hour_bucket"],
        [("n_events", "sum", "n_events"), ("value_c", "sum", "value_c")],
        sf_dir,
        "events",
    )
    return agg.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "user_id": t["user_id"],
                "hour_bucket": t["hour_bucket"],
                "n_events": t["n_events"],
                "sum_value": pa.array(
                    t["value_c"].to_numpy(zero_copy_only=False) / 1e6, pa.float64()
                ),
            }
        ),
        batch_format="pyarrow",
    )


def events_hopping_window(sf_dir: str, size_us: int = 3_600_000_000, hop_us: int = 1_800_000_000):
    """Hopping (sliding) window aggregate (§2.13): each event lands in
    size/hop overlapping windows — the flat-map replication pattern
    (an event at t belongs to windows starting at
    floor((t - size + hop) / hop) ... floor(t / hop)). Per-batch
    partial aggregation before the (small) groupby shuffle, exactly
    like the tumbling variant."""
    k = size_us // hop_us  # windows per event

    def window_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        val = _to_fixed(t["value"].to_numpy(zero_copy_only=False), 1e6)
        frames = []
        last = us // hop_us  # last window index containing the event
        for j in range(int(k)):
            w = last - j
            frames.append(
                pd.DataFrame({"user_id": uid, "window_start": w * hop_us, "value_c": val})
            )
        df = pd.concat(frames)
        df = df[df["window_start"] >= 0]
        g = df.groupby(["user_id", "window_start"], as_index=False).agg(
            n_events=("value_c", "size"), value_c=("value_c", "sum")
        )
        return _from_pandas(g)

    agg = _agg(
        _read(sf_dir, "events", ["ts", "user_id", "value"]).map_batches(
            window_partial, batch_format="pyarrow"
        ),
        ["user_id", "window_start"],
        [("n_events", "sum", "n_events"), ("value_c", "sum", "value_c")],
        sf_dir,
        "events",
    )
    return agg.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "user_id": t["user_id"],
                "window_start": t["window_start"],
                "n_events": t["n_events"],
                "sum_value": pa.array(
                    t["value_c"].to_numpy(zero_copy_only=False) / 1e6, pa.float64()
                ),
            }
        ),
        batch_format="pyarrow",
    )


def block_census_docs(sf_dir: str):
    """Block-size census over (lang, source) — the commonness census A1."""
    return _agg(
        _read(sf_dir, "documents", ["lang", "source"]),
        ["lang", "source"],
        [("", "count", "n_docs")],
        sf_dir,
        "documents",
    )


def doc_commonness(sf_dir: str):
    """Per-doc block commonness + normalized ambiguity score — the
    commonness/ambiguity join of the reference
    (database/pubmed_inner_outer_feature.sql:112-113,201-203): census via
    groupby, broadcast back as a dict (A2 global sum -> scalar)."""
    import ray

    census = block_census_docs(sf_dir).to_pandas()
    total = int(census["n_docs"].sum())
    lookup = {
        (r.lang, r.source): int(r.n_docs) for r in census.itertuples(index=False)
    }
    ref = ray.put((lookup, total))

    def attach(t: pa.Table) -> pa.Table:
        from ..stages.mention_prep import get_broadcast

        lookup_, total_ = get_broadcast(ref)
        commonness = [
            lookup_[(l, s)]
            for l, s in zip(t["lang"].to_pylist(), t["source"].to_pylist())
        ]
        amb = [round(c / total_, 9) for c in commonness]
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "commonness": pa.array(commonness, pa.int64()),
                "ambiguity": pa.array(amb, pa.float64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "lang", "source"]).map_batches(
        attach, batch_format="pyarrow"
    )


def pair_gen_docs(sf_dir: str):
    """Within-block C(n,2) pair generation over (lang, source) blocks —
    the reference's defining operator (and_datasets.sql:44-79) on an
    oracle-checkable table. Canonical doc_id1 < doc_id2."""

    def pairs(g: pa.Table) -> pa.Table:
        ids = sorted(g["doc_id"].to_pylist())
        lang = g["lang"][0].as_py()
        source = g["source"][0].as_py()
        id1 = [a for i, a in enumerate(ids) for _ in ids[i + 1 :]]
        id2 = [b for i, _ in enumerate(ids) for b in ids[i + 1 :]]
        return pa.Table.from_pydict(
            {
                "doc_id1": pa.array(id1, pa.int64()),
                "doc_id2": pa.array(id2, pa.int64()),
                "lang": pa.array([lang] * len(id1), pa.string()),
                "source": pa.array([source] * len(id1), pa.string()),
            }
        )

    return keyed_map_groups(
        _read(sf_dir, "documents", ["doc_id", "lang", "source"]),
        ["lang", "source"],
        pairs,
        _parts(sf_dir, "documents"),
    )


def _segment_keys(t: pa.Table, segment: str) -> pa.Table:
    """The customers of one market segment, as (c_custkey) rows."""
    return t.filter(pc.equal(t["c_mktsegment"], segment)).select(["c_custkey"])


def semi_join_orders(sf_dir: str, segment: str = "BUILDING"):
    """Semi-join (J2 analog: the gold-paper filter at
    database/pubmed_inner_outer_feature.sql:91-92): keep orders whose
    customer is in the segment. SIZE-GUARDED: up to
    ``rayutil.DRIVER_ROWS`` filtered customers, the key set broadcasts
    (sorted int64 array + searchsorted membership — no exchange at all);
    above — the customer dimension grows with the corpus — it becomes a
    ``rayutil.keyed_join`` on the customer key. The segment filter runs
    once: one pass collects its blocks and row count, and either path
    reads those blocks."""
    import ray
    import ray.data as rd

    seg_keys = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        _segment_keys, fn_kwargs={"segment": segment}, batch_format="pyarrow"
    )
    refs, n_keys = run_blocks(seg_keys)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    if not rayutil.on_driver(n_keys, rayutil.DRIVER_ROWS):
        # semi-join via inner join: keys are unique per customer, so it
        # neither duplicates nor drops order rows, and the right side
        # adds no column
        def rekey(t: pa.Table) -> pa.Table:
            return t.rename_columns(["o_custkey"])

        return keyed_join(
            orders,
            rd.from_arrow_refs(refs).map_batches(rekey, batch_format="pyarrow"),
            "o_custkey",
            _parts(sf_dir, "orders", "customer"),
        )

    keys = np.sort(
        np.concatenate(
            [np.empty(0, np.int64)]
            + [
                np.asarray(t["c_custkey"].to_numpy(zero_copy_only=False), np.int64)
                for t in ray.get(refs)
                if t.num_rows
            ]
        )
    )
    ref = ray.put(keys)

    def f(t: pa.Table) -> pa.Table:
        from ..stages.mention_prep import get_broadcast

        keep = get_broadcast(ref)
        ids = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keep):
            pos = np.minimum(np.searchsorted(keep, ids), len(keep) - 1)
            mask = keep[pos] == ids
        else:
            mask = np.zeros(len(ids), dtype=bool)
        return t.filter(pa.array(mask)).select(
            ["o_orderkey", "o_custkey", "o_totalprice"]
        )

    return orders.map_batches(f, batch_format="pyarrow")


def join_order_priority_revenue(sf_dir: str):
    """Large-side join (orders ⋈ lineitem on the order key, a
    ``rayutil.keyed_join`` once both sides outgrow the broadcast budget
    of ``sized_broadcast_join``), then
    fixed-point revenue rollup per priority class."""
    import ray

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        rev = (
            t["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False))
        )
        return pa.Table.from_pydict(
            {
                "o_orderkey": t["l_orderkey"],
                "rev_c": pa.array(_to_fixed(rev, 100.0), pa.int64()),
            }
        )

    from ..rayutil import sized_broadcast_join
    from ..sources.io import _local_bytes

    joined = sized_broadcast_join(
        line.map_batches(prep, batch_format="pyarrow"),
        orders,
        "o_orderkey",
        n_bytes=_local_bytes(f"{sf_dir}/orders.parquet"),
    )
    agg = _agg(
        joined,
        ["o_orderpriority"],
        [("rev_c", "sum", "rev_c")],
        sf_dir,
        "lineitem",
        "orders",
    )
    return agg.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "o_orderpriority": t["o_orderpriority"],
                "revenue": pa.array(
                    t["rev_c"].to_numpy(zero_copy_only=False) / 100.0, pa.float64()
                ),
            }
        ),
        batch_format="pyarrow",
    )


def user_activity(sf_dir: str):
    """Per-user rollup (A3/A4 groupArray analog): event count, distinct
    event types, first/last timestamp, fixed-point value sum — entirely
    NATIVE vectorized aggregates (no per-group Python): per-batch pandas
    partials keyed (user, event_type), one groupby on that pair, then a
    per-user rollup where Count() of the pair rows IS the distinct-type
    count."""
    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "event_type": t["event_type"].to_pylist(),
                "ts": t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
                "value_c": _to_fixed(t["value"].to_numpy(zero_copy_only=False), 1e6),
            }
        )
        g = df.groupby(["user_id", "event_type"], as_index=False).agg(
            n=("ts", "size"),
            min_ts=("ts", "min"),
            max_ts=("ts", "max"),
            value_c=("value_c", "sum"),
        )
        return _from_pandas(g)

    per_type = _agg(
        _read(sf_dir, "events", ["user_id", "event_type", "ts", "value"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        ["user_id", "event_type"],
        [
            ("n", "sum", "n"),
            ("min_ts", "min", "min_ts"),
            ("max_ts", "max", "max_ts"),
            ("value_c", "sum", "value_c"),
        ],
        sf_dir,
        "events",
    )
    per_user = _agg(
        per_type,
        ["user_id"],
        [
            ("n", "sum", "n_events"),
            ("", "count", "n_event_types"),
            ("min_ts", "min", "first_ts"),
            ("max_ts", "max", "last_ts"),
            ("value_c", "sum", "value_c"),
        ],
        sf_dir,
        "events",
    )
    return per_user.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "user_id": t["user_id"],
                "n_events": t["n_events"],
                "n_event_types": t["n_event_types"],
                "first_ts": t["first_ts"],
                "last_ts": t["last_ts"],
                "sum_value": pa.array(
                    t["value_c"].to_numpy(zero_copy_only=False) / 1e6,
                    pa.float64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


def events_sessions(sf_dir: str, gap_us: int = 1_800_000_000):
    """Sessionization (streaming-shaped, SURVEY.md §2.13): per user, a new
    session starts after a >30 min gap. ONE hash exchange on user_id,
    then a fully VECTORIZED per-partition pass (sort by (user, ts), one
    np.diff, one boolean sum per user) — no per-group Python calls."""

    def sessions(t: pa.Table) -> pa.Table:
        import pandas as pd

        if t.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_sessions": pa.array([], pa.int64()),
                }
            )
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "ts": t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
            }
        ).sort_values(["user_id", "ts"], kind="mergesort")
        u = df["user_id"].to_numpy()
        ts = df["ts"].to_numpy()
        same_user = np.concatenate([[False], u[1:] == u[:-1]])
        gap_break = np.concatenate([[False], (ts[1:] - ts[:-1]) > gap_us])
        breaks = same_user & gap_break
        out = (
            pd.DataFrame({"user_id": u, "b": breaks})
            .groupby("user_id", as_index=True)["b"]
            .agg(["sum", "size"])
        )
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(out.index.to_numpy(np.int64), pa.int64()),
                "n_sessions": pa.array(
                    (out["sum"].to_numpy(np.int64) + 1), pa.int64()
                ),
            }
        )

    return keyed_repartition(
        _read(sf_dir, "events", ["user_id", "ts"]), ["user_id"], _parts(sf_dir, "events")
    ).map_batches(sessions, batch_format="pyarrow", batch_size=None)


def deterministic_sample(sf_dir: str, keep_hex: str = "4c"):
    """Deterministic hash-threshold sampling (A8/O5 analog — replaces the
    reference's now64()/rand() sampling with a reproducible rule): keep a
    doc iff the first md5 byte of its text <= keep_hex (~30%)."""
    import hashlib

    def f(t: pa.Table) -> pa.Table:
        keep = [
            hashlib.md5((x or "").encode("utf-8")).hexdigest()[:2] <= keep_hex
            for x in t["text"].to_pylist()
        ]
        return t.filter(pa.array(keep)).select(["doc_id"])

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def rank_docs(sf_dir: str):
    """Distributed dense row-number (O3 analog: the commonness-ordered id
    assignment at database/model_building_using_rich_features.sql:501-509):
    rank by (n_chars, doc_id) via a broadcast cumulative histogram of the
    sort key + per-group local enumeration — no global sort collect."""
    import ray

    from collections import Counter

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def hist_partial(t: pa.Table) -> pa.Table:
        c = Counter(t["n_chars"].to_pylist())
        return pa.Table.from_pydict(
            {
                "n_chars": pa.array(list(c.keys()), pa.int64()),
                "cnt": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts: Counter = Counter()
    for b in ds.map_batches(hist_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=65536
    ):
        for v, c in zip(b["n_chars"].to_pylist(), b["cnt"].to_pylist()):
            counts[v] += c
    offsets = {}
    acc = 0
    for v in sorted(counts):
        offsets[v] = acc
        acc += counts[v]
    ref = ray.put(offsets)

    def rank_group(g: pa.Table) -> pa.Table:
        from ..stages.mention_prep import get_broadcast

        off = get_broadcast(ref)
        ids = sorted(g["doc_id"].to_pylist())
        v = g["n_chars"][0].as_py()
        base = off[v]
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": pa.array([v] * len(ids), pa.int64()),
                "rank": pa.array(
                    [base + i + 1 for i in range(len(ids))], pa.int64()
                ),
            }
        )

    return keyed_map_groups(ds, ["n_chars"], rank_group, _parts(sf_dir, "documents"))


def top_docs_per_block(sf_dir: str, k: int = 3):
    """Per-group top-k (grouped window pattern): the k longest docs per
    (lang, source) block, rank attached. Ray shape: ONE hash exchange on
    the block key, then a fully vectorized per-partition pandas
    sort + groupby.head — no per-group Python calls."""

    def topk(t: pa.Table) -> pa.Table:
        import pandas as pd

        if t.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "lang": pa.array([], pa.string()),
                    "source": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                    "n_chars": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        df = t.select(["lang", "source", "doc_id", "n_chars"]).to_pandas()
        df = df.sort_values(
            ["lang", "source", "n_chars", "doc_id"],
            ascending=[True, True, False, True],
            kind="mergesort",
        )
        df["rank"] = df.groupby(["lang", "source"], sort=False).cumcount() + 1
        df = df[df["rank"] <= k]
        return _from_pandas(df)

    return keyed_repartition(
        _read(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"]),
        ["lang", "source"],
        _parts(sf_dir, "documents"),
    ).map_batches(topk, batch_format="pyarrow", batch_size=None)


def events_lag_delta(sf_dir: str):
    """Per-user LAG window (ordered-window pattern): each event's value
    delta vs the user's previous event by timestamp. ONE exchange on
    user_id + vectorized per-partition sorted diff (fixed-point deltas
    for oracle parity); first event per user (no predecessor) is
    dropped — null-free output keeps the value-hash gate unambiguous."""

    def lag(t: pa.Table) -> pa.Table:
        import pandas as pd

        if t.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "user_id": pa.array([], pa.int64()),
                    "ts_us": pa.array([], pa.int64()),
                    "delta_value": pa.array([], pa.float64()),
                }
            )
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "ts_us": t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
                "value_c": _to_fixed(t["value"].to_numpy(zero_copy_only=False), 1e6),
            }
        ).sort_values(["user_id", "ts_us"], kind="mergesort")
        u = df["user_id"].to_numpy()
        v = df["value_c"].to_numpy()
        ts = df["ts_us"].to_numpy()
        if len(v) < 2:
            return pa.Table.from_pydict(
                {
                    "user_id": pa.array([], pa.int64()),
                    "ts_us": pa.array([], pa.int64()),
                    "delta_value": pa.array([], pa.float64()),
                }
            )
        same = u[1:] == u[:-1]
        delta = (v[1:] - v[:-1]) / 1e6
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(u[1:][same], pa.int64()),
                "ts_us": pa.array(ts[1:][same], pa.int64()),
                "delta_value": pa.array(delta[same], pa.float64()),
            }
        )

    return keyed_repartition(
        _read(sf_dir, "events", ["user_id", "ts", "value"]),
        ["user_id"],
        _parts(sf_dir, "events"),
    ).map_batches(lag, batch_format="pyarrow", batch_size=None)


def event_value_median(sf_dir: str):
    """Exact per-group discrete median (quantile pattern) without a
    global sort: fixed-point values pre-count per batch, ONE groupby
    on (event_type, value) merges the histograms, then the tiny
    per-type cumulative walk picks quantile_disc(0.5) — the
    distributed-histogram route that scales to any row count while
    staying bit-identical to DuckDB's quantile_disc."""
    def hist_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_pylist(),
                "value_c": _to_fixed(t["value"].to_numpy(zero_copy_only=False), 1e6),
            }
        )
        g = df.groupby(["event_type", "value_c"], as_index=False).size()
        g = g.rename(columns={"size": "n"})
        return _from_pandas(g)

    hist = _agg(
        _read(sf_dir, "events", ["event_type", "value"]).map_batches(
            hist_partial, batch_format="pyarrow"
        ),
        ["event_type", "value_c"],
        [("n", "sum", "n")],
        sf_dir,
        "events",
    )

    def median_walk(t: pa.Table) -> pa.Table:
        import pandas as pd

        if t.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "event_type": pa.array([], pa.string()),
                    "median_value": pa.array([], pa.float64()),
                }
            )
        df = t.to_pandas().sort_values(["event_type", "value_c"], kind="mergesort")
        out_t, out_m = [], []
        for et, g in df.groupby("event_type", sort=False):
            total = int(g["n"].sum())
            target = (total + 1) // 2  # quantile_disc(0.5): lower median
            cum = g["n"].cumsum()
            v = g.loc[cum >= target, "value_c"].iloc[0]
            out_t.append(et)
            out_m.append(v / 1e6)
        return pa.Table.from_pydict(
            {
                "event_type": pa.array(out_t, pa.string()),
                "median_value": pa.array(out_m, pa.float64()),
            }
        )

    return keyed_repartition(hist, ["event_type"], _parts(sf_dir, "events")).map_batches(
        median_walk, batch_format="pyarrow", batch_size=None
    )


def title_repair(sf_dir: str):
    """M8 analog — the reference's well-formed-name repair
    (/root/reference/database/author_name_enhancement.sql:85-130: when an
    external variant of the same name is LONGER, adopt it; coverage
    58%->91%). Web graft: docs sharing a repair key (first token — the
    'lastname') adopt the longest variant in the group as their
    enhancement source. Ray shape: argmax-with-tie-break packed into ONE
    native Max aggregate (pack = n_chars * 2^33 + (2^33 - doc_id), so
    max length wins and the LOWEST doc_id breaks ties), then a hash
    join back — no driver-side state, scales with key cardinality."""
    PACK = 1 << 33

    def key_rows(t: pa.Table) -> pa.Table:
        ks = [
            (x or "").lower().split(" ")[0] for x in t["text"].to_pylist()
        ]
        return pa.Table.from_pydict(
            {
                "repair_key": pa.array(ks, pa.string()),
                "doc_id": t["doc_id"],
                "n_chars": t["n_chars"],
            }
        )

    keyed = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"]).map_batches(
        key_rows, batch_format="pyarrow"
    )

    def pack(t: pa.Table) -> pa.Table:
        p = (
            t["n_chars"].to_numpy(zero_copy_only=False) * PACK
            + (PACK - t["doc_id"].to_numpy(zero_copy_only=False))
        )
        return pa.Table.from_pydict(
            {"repair_key": t["repair_key"], "packed": pa.array(p, pa.int64())}
        )

    best = _agg(
        keyed.map_batches(pack, batch_format="pyarrow"),
        ["repair_key"],
        [("packed", "max", "packed")],
        sf_dir,
        "documents",
    )

    from ..rayutil import sized_broadcast_join
    from ..sources.io import _local_bytes

    joined = sized_broadcast_join(
        keyed,
        best,
        "repair_key",
        n_bytes=_local_bytes(f"{sf_dir}/documents.parquet"),
    )

    def finalize(t: pa.Table) -> pa.Table:
        packed = t["packed"].to_numpy(zero_copy_only=False)
        best_len = packed // PACK
        best_id = PACK - (packed % PACK)
        own_len = t["n_chars"].to_numpy(zero_copy_only=False)
        own_id = t["doc_id"].to_numpy(zero_copy_only=False)
        adopt = best_len > own_len
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "repair_key": t["repair_key"],
                "enhanced_from": pa.array(
                    np.where(adopt, best_id, own_id), pa.int64()
                ),
                "enhanced_len": pa.array(
                    np.where(adopt, best_len, own_len), pa.int64()
                ),
            }
        )

    return joined.map_batches(finalize, batch_format="pyarrow")


def registry_enrich(sf_dir: str):
    """J6 analog — the chained external-registry left joins
    (/root/reference/database/model_building_using_rich_features.sql:25-40:
    docs ⋈ MAG ⋈ S2 ⋈ AMiner by pm_ao). Generic side-input enrichment
    hook: supplier rows pick up nation and region names through TWO
    chained broadcast registries (dims broadcast once via ray.put,
    vectorized lookup inside map_batches — zero shuffles)."""
    import ray

    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    nation_name = dict(zip(nat["n_nationkey"], nat["n_name"]))
    nation_region = dict(zip(nat["n_nationkey"], nat["n_regionkey"]))
    region_name = dict(zip(reg["r_regionkey"], reg["r_name"]))
    ref = ray.put((nation_name, nation_region, region_name))

    def enrich(t: pa.Table) -> pa.Table:
        from ..stages.mention_prep import get_broadcast

        nn, nr, rn = get_broadcast(ref)
        keys = t["s_nationkey"].to_pylist()
        return pa.Table.from_pydict(
            {
                "s_suppkey": t["s_suppkey"],
                "s_name": t["s_name"],
                "n_name": pa.array([nn[k] for k in keys], pa.string()),
                "r_name": pa.array([rn[nr[k]] for k in keys], pa.string()),
            }
        )

    return _read(
        sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey"]
    ).map_batches(enrich, batch_format="pyarrow")


def union_distinct_keys(sf_dir: str):
    """Union + distinct (D1/D2): all nation/region names tagged by kind."""
    import ray.data as rd

    nat = _read(sf_dir, "nation", ["n_name"]).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "name": t["n_name"],
                "kind": pa.array(["nation"] * t.num_rows, pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    reg = _read(sf_dir, "region", ["r_name"]).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "name": t["r_name"],
                "kind": pa.array(["region"] * t.num_rows, pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    return _agg(
        nat.union(reg), ["name", "kind"], [], sf_dir, "nation", "region"
    )


def events_asof_prev_click(sf_dir: str):
    """As-of join (temporal operator, SURVEY.md §2.13 family): every
    'purchase' event picks the same user's most recent 'click' strictly
    before it. DuckDB spells this natively as ASOF JOIN; Ray Data has no
    built-in, so it rides the generic stages/asof.py construction — one
    tagged union, ONE hash exchange on user_id, packed-searchsorted
    predecessor lookup per block. Purchases with no prior click drop
    (inner as-of). Timestamps surface as epoch microseconds (null-free
    int64 keeps the value-hash gate unambiguous)."""
    from ..stages.asof import asof_join

    def to_us(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("ts"), "ts_us", t["ts"].cast(pa.int64())
        )

    def side(t: pa.Table, kind: str) -> pa.Table:
        return to_us(
            t.filter(pc.equal(t["event_type"], kind)).drop_columns(["event_type"])
        )

    cols = ["event_id", "ts", "user_id", "event_type"]
    purchases = _read(sf_dir, "events", cols).map_batches(
        lambda t: side(t, "purchase"), batch_format="pyarrow"
    )
    clicks = _read(sf_dir, "events", cols).map_batches(
        lambda t: side(t, "click"), batch_format="pyarrow"
    )
    # mega-key guard on by default (a hot user_id at web scale would
    # otherwise serialize in one task): 100k is a noop at test scales
    # but bounds per-task memory at 100 TB. The census pass it adds is
    # budget-guarded (stages/asof._heavy_keys).
    joined = asof_join(
        purchases,
        clicks,
        key_col="user_id",
        ts_col="ts_us",
        right_cols=["event_id", "ts_us"],
        suffix="_prev",
        strict=True,
        salt_threshold=100_000,
    )

    def gap(t: pa.Table) -> pa.Table:
        return t.append_column(
            "gap_us", pc.subtract(t["ts_us"], t["ts_us_prev"])
        )

    return joined.map_batches(gap, batch_format="pyarrow")


def events_range_pairs_1h(sf_dir: str):
    """Range join (temporal window pairing): every ordered pair of a
    user's events at most 1 hour apart (strictly increasing ts, equal
    timestamps never pair). Rides stages/asof.range_self_join — one
    hash exchange on user_id, per-run searchsorted window bounds,
    vectorized range-repeat pair emission."""
    from ..stages.asof import range_self_join

    def to_us(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("ts"), "ts_us", t["ts"].cast(pa.int64())
        )

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"]).map_batches(
        to_us, batch_format="pyarrow"
    )
    # mega-key guard on by default (see events_asof_prev_click)
    return range_self_join(
        ev,
        key_col="user_id",
        ts_col="ts_us",
        window=3_600_000_000,
        emit_cols=["event_id"],
        salt_threshold=100_000,
    )


def bloom_semi_join(sf_dir: str, m_bits: int = 1 << 16, k: int = 3):
    """Bloom-filter semi-join pre-filter: keep lineitem rows whose order
    key *passes* a Bloom filter built from urgent orders — the
    shuffle-free first stage of a selective distributed join. The bitmap
    is built with constant-size state (per-batch distinct bit positions,
    one tiny distinct exchange, driver fold of <= m rows) and broadcast
    ONCE via ray.put; the probe side streams with no shuffle at all. At
    100 TB the residue (true matches + the ~(1 - e^(-kn/m))^k false
    positives) is what the exact join afterwards sees — m is sized ~10
    bits per build key there; it is 64 Ki here to keep a measurable,
    deterministic false-positive band. Bit positions are
    md5(key || '#' || i) mod m, so the filter's exact pass set —
    INCLUDING its false positives — is reproduced by the SQL oracle."""
    import ray

    from ..functions.hashing import md5_u64_array

    def positions_for(keys: np.ndarray, i: int) -> np.ndarray:
        return (
            md5_u64_array([f"{v}#{i}" for v in keys.tolist()])
            % np.uint64(m_bits)
        ).astype(np.int64)

    def build_positions(t: pa.Table) -> pa.Table:
        sel = pc.equal(t["o_orderpriority"], "1-URGENT")
        keys = np.unique(
            t.filter(sel)["o_orderkey"].to_numpy(zero_copy_only=False)
        )
        if len(keys) == 0:
            return pa.table({"pos": pa.array([], pa.int64())})
        allp = np.unique(
            np.concatenate([positions_for(keys, i) for i in range(k)])
        )
        return pa.table({"pos": pa.array(allp, pa.int64())})

    pos_rows = _agg(
        _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
            build_positions, batch_format="pyarrow"
        ),
        ["pos"],
        [],
        sf_dir,
        "orders",
    ).to_pandas()
    bits = np.zeros(m_bits, dtype=bool)
    bits[pos_rows["pos"].to_numpy(dtype=np.int64)] = True
    ref = ray.put(bits)

    def probe(t: pa.Table) -> pa.Table:
        from ..stages.mention_prep import get_broadcast

        b = get_broadcast(ref)
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(ok, return_inverse=True)
        mask_u = np.ones(len(uniq), dtype=bool)
        for i in range(k):
            mask_u &= b[positions_for(uniq, i)]
        return t.filter(pa.array(mask_u[inv])).select(
            ["l_orderkey", "l_linenumber"]
        )

    return _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"]).map_batches(
        probe, batch_format="pyarrow"
    )
