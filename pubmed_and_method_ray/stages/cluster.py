"""Connected components over match edges -> transitive cluster ids.

The reference never clusters explicitly (gold IDX labels imply the
partition, SURVEY.md §2.12); the north_rule makes it a first-class stage.

Two implementations behind one entry point:
- ``driver``: union-find over collected edges — exact and fast while the
  *match-edge* set is small relative to driver memory (edges are only
  predicted matches, orders of magnitude smaller than candidate pairs).
- ``distributed``: min-label propagation — rounds of
  (labels ∪ edge-messages) -> groupby(node).min(label) until fixpoint.
  O(component diameter) rounds; near-dup clusters are dense so diameter
  is tiny. Each round is one groupby shuffle on the (small) edge list.

``auto`` picks driver-side below ``driver_max_edges``, else distributed —
and the distributed path is what a 256-node run would use.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..rayutil import join_partitions, shuffle_partitions


def _union_find_clusters(edge_iter):
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for u, v in edge_iter:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            # deterministic: smaller string wins as root
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    return {x: find(x) for x in parent}


def min_label_components(a1: pa.Array, a2: pa.Array):
    """Driver CC over edge endpoint ARROW arrays, no Python objects:
    factorize with pyarrow (unique + sort + index_in are C-level hash
    ops — np.unique over object strings was the driver hot spot), then
    vectorized min-label edge relaxation + pointer jumping to the
    fixpoint (components are near-cliques here, so a handful of rounds).
    Returns (sorted-unique node Array, per-node min-node label Array) —
    min code == lexicographically/numerically min node, the root
    _union_find_clusters picks (the tests' reference, through
    connected_components_driver)."""
    both = pa.chunked_array([a1, a2]).combine_chunks()
    uniq = pa.compute.unique(both)
    uniq_sorted = uniq.take(pa.compute.sort_indices(uniq))
    codes = np.asarray(pa.compute.index_in(both, uniq_sorted), dtype=np.int64)
    n_edges = len(a1)
    c1, c2 = codes[:n_edges], codes[n_edges:]
    parent = np.arange(len(uniq_sorted), dtype=np.int64)
    while n_edges:
        before = parent.copy()
        m = np.minimum(parent[c1], parent[c2])
        np.minimum.at(parent, c1, m)
        np.minimum.at(parent, c2, m)
        while True:
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
        if np.array_equal(parent, before):
            break
    return uniq_sorted, uniq_sorted.take(pa.array(parent, pa.int64()))


def connected_components_driver(edges_ds) -> dict[str, str]:
    """Union-find on the driver; returns {node: cluster_root}."""

    def gen():
        for b in edges_ds.iter_batches(batch_format="pyarrow", batch_size=65536):
            yield from zip(b["url_1"].to_pylist(), b["url_2"].to_pylist())

    return _union_find_clusters(gen())


def connected_components_distributed(
    edges_ds,
    max_rounds: int = 50,
    edge_cols: tuple[str, str] = ("url_1", "url_2"),
    node_col: str = "url",
    label_col: str = "cluster_id",
    frontier_broadcast_max: int = 2_000_000,
):
    """Min-label propagation entirely in Ray Data: each round is one hash
    join (edge messages pick up the source's current label) plus one
    groupby-min — fully vectorized, no per-group Python. O(component
    diameter) rounds; near-dup clusters are dense so this converges in a
    handful. Works for any orderable node type (url strings, int64 doc
    ids). Returns (node, label) for every node in an edge.

    Two scale properties of the loop:

    - ``edges_ds`` is consumed exactly ONCE (the materialized neighbor
      list seeds everything else). In the streaming production path the
      edge dataset is lazy all the way back through the fused
      pair-gen/featurize/score exchange; consuming it twice (labels init
      + neighbor build, as earlier rounds did) re-executed that whole
      upstream a second time.
    - messages are FRONTIER-ONLY once the frontier is small: a label
      only needs forwarding in the round after it changed (labels only
      decrease, so each value a node ever holds is forwarded exactly
      once; the fixpoint is the same one full re-broadcast reaches).
      Rounds whose changed-set fits ``frontier_broadcast_max`` skip the
      O(edges) hash join entirely — the frontier is ray.put once and
      each neighbor-list task probes it with a C-level ``index_in``
      (the repo's budget-guarded broadcast pattern). The messages are
      then min-reduced per receiving node (a shuffle over the SMALL
      message stream only); when the reduced set also fits the budget
      it is broadcast back and the round updates every label row with
      a per-batch ``min(label, msg)`` probe — no O(all nodes)
      union+groupby re-shuffle at all (that re-shuffle, once per
      round, dominated distributed-CC wall-time at 2M pages). Only
      rounds past the budgets keep the dense nbrs⋈labels join +
      full groupby-min: a SPARSE join side would leave hash partitions
      with zero received rows, which Ray's join aggregator finalizes
      as a zero-column table (ArrowInvalid on the key) —
      dense-or-broadcast sidesteps that by construction."""
    from ray.data.aggregate import Min

    c1, c2 = edge_cols

    # undirected edges, both directions once: (node=src, nbr=dst)
    def both_dirs(t: pa.Table) -> pa.Table:
        fwd = pa.Table.from_pydict({node_col: t[c1], "nbr": t[c2]})
        rev = pa.Table.from_pydict({node_col: t[c2], "nbr": t[c1]})
        return pa.concat_tables([fwd, rev])

    nbrs = edges_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()

    # Round 0 is FUSED: at round 0 every label is the node's own id, so
    # the dense nbrs⋈labels join is an identity lookup and the seed
    # "labels itself" groupby is subsumable — emit, per (node, nbr) row,
    # the self row (node, node, old=node) AND the message row
    # (nbr, node, old=null), and ONE groupby-min produces the round-1
    # labels plus the pre-round label in `old`. That removes the only
    # guaranteed-dense full-edge-set join and one full shuffle from the
    # loop (the remaining rounds are frontier-broadcast when small).
    def seed_round(t: pa.Table) -> pa.Table:
        tt = t.combine_chunks()
        self_rows = pa.Table.from_pydict(
            {
                node_col: tt[node_col],
                label_col: tt[node_col],
                "old": tt[node_col],
            }
        )
        msg_rows = pa.Table.from_pydict(
            {
                node_col: tt["nbr"],
                label_col: tt[node_col],
                "old": pa.nulls(tt.num_rows, type=tt[node_col].type),
            }
        )
        return pa.concat_tables([self_rows, msg_rows])

    labels = None  # defined after round 0's fused aggregate
    # join aggregators are actors; the count scales with the cluster and
    # is never capped at a constant (a hard 64 here would hold ~1/64 of
    # all edge messages per partition at 100 TB)
    num_partitions = join_partitions()

    # convergence signal: label rows carry old = current label, message
    # rows carry old = NULL; Min(old, ignore_nulls) recovers the
    # pre-round label. (A string sentinel would mis-sort for non-ASCII
    # labels and not exist at all for numeric node ids.)
    def tag_old(t: pa.Table) -> pa.Table:
        return t.append_column("old", t[label_col])

    def to_msgs(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                node_col: t["nbr"],
                label_col: t[label_col],
                "old": pa.nulls(t.num_rows, type=t.schema.field(label_col).type),
            }
        )

    # frontier = nodes whose label changed last round (lazy filter over
    # the materialized agg). Round 0 is the fused seed round; later
    # rounds broadcast the frontier when it fits, else dense-join.
    def keep_changed(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.not_equal(t[label_col], t["old"])).drop_columns(
            ["old"]
        )

    def _gather_small(ds) -> pa.Table:
        parts = [
            b
            for b in ds.iter_batches(batch_format="pyarrow", batch_size=65536)
        ]
        assert parts, "caller guarantees a non-empty bounded dataset"
        return pa.concat_tables(parts).combine_chunks()

    def broadcast_msgs(frontier_ds):
        """Gather the (bounded) frontier to the driver, ray.put it once,
        and emit messages with an index_in probe per nbrs batch — no
        shuffle, no sparse join side."""
        import ray

        from .mention_prep import get_broadcast

        tbl = _gather_small(frontier_ds)
        ref = ray.put((tbl[node_col].combine_chunks(), tbl[label_col].combine_chunks()))

        def bmsgs(t: pa.Table, ref=ref) -> pa.Table:
            import pyarrow.compute as pc

            nodes, lbls = get_broadcast(ref)
            tt = t.combine_chunks()
            idx = pc.index_in(tt[node_col], nodes)
            mask = idx.is_valid()
            dst = tt["nbr"].filter(mask)
            lab = lbls.take(idx.filter(mask))
            return pa.Table.from_pydict(
                {
                    node_col: dst,
                    label_col: lab,
                    "old": pa.nulls(len(dst), type=lab.type),
                }
            )

        return nbrs.map_batches(bmsgs, batch_format="pyarrow")

    def apply_broadcast(mmin_tbl):
        """Shuffle-free round: broadcast the min-reduced messages and
        update every label row in place (new = min(label, msg), old =
        pre-round label) with a per-batch index_in probe. Replaces the
        O(all nodes) union+groupby re-shuffle that dominated the
        broadcast rounds at 2M pages."""
        import ray

        from .mention_prep import get_broadcast

        ref = ray.put(
            (
                mmin_tbl[node_col].combine_chunks(),
                mmin_tbl["msg"].combine_chunks(),
            )
        )

        def apply_msgs(t: pa.Table, ref=ref) -> pa.Table:
            import pyarrow.compute as pc

            nodes, mins = get_broadcast(ref)
            tt = t.combine_chunks()
            cur = tt[label_col]
            idx = pc.index_in(tt[node_col], nodes)
            msg = mins.take(idx)  # null where the node got no message
            new = pc.if_else(
                pc.fill_null(pc.less(msg, cur), False), msg, cur
            )
            return pa.Table.from_pydict(
                {node_col: tt[node_col], label_col: new, "old": cur}
            )

        return labels.map_batches(apply_msgs, batch_format="pyarrow")

    frontier = None  # None -> fused seed round (round 0)
    frontier_rows = None
    converged = False
    for _ in range(max_rounds):
        agg = None
        if frontier is None:
            # fused round 0: see seed_round — no join, one groupby
            agg = (
                nbrs.map_batches(seed_round, batch_format="pyarrow")
                .groupby(node_col, num_partitions=shuffle_partitions())
                .aggregate(
                    Min(label_col, alias_name=label_col),
                    Min("old", alias_name="old"),
                )
            ).materialize()
        elif frontier_rows <= frontier_broadcast_max:
            msgs = broadcast_msgs(frontier)
            # min-reduce the (small) message stream per node; if the
            # reduced set also fits the budget, the whole round is
            # shuffle-free over labels
            mmin = (
                msgs.drop_columns(["old"])
                .groupby(node_col, num_partitions=shuffle_partitions())
                .aggregate(Min(label_col, alias_name="msg"))
            ).materialize()
            if mmin.count() <= frontier_broadcast_max:
                agg = apply_broadcast(_gather_small(mmin)).materialize()
            else:
                # too many receivers to broadcast: re-shape the reduced
                # messages for the dense union+groupby fallback
                def _msg_rows(t: pa.Table) -> pa.Table:
                    return pa.Table.from_pydict(
                        {
                            node_col: t[node_col],
                            label_col: t["msg"],
                            "old": pa.nulls(
                                t.num_rows, type=t.schema.field("msg").type
                            ),
                        }
                    )

                msgs = mmin.map_batches(_msg_rows, batch_format="pyarrow")
        else:
            # dense path: every node forwards its current label
            msgs = nbrs.join(
                labels,
                join_type="inner",
                on=(node_col,),
                num_partitions=num_partitions,
            ).map_batches(to_msgs, batch_format="pyarrow")
        if agg is None:
            agg = (
                labels.map_batches(tag_old, batch_format="pyarrow")
                .union(msgs)
                .groupby(node_col, num_partitions=shuffle_partitions())
                .aggregate(
                    Min(label_col, alias_name=label_col),
                    Min("old", alias_name="old"),
                )
            ).materialize()

        # convergence: DISTRIBUTED changed-label count (per-batch partial
        # sums reduced by ds.sum — no driver-side row scan)
        def count_changed(t: pa.Table) -> pa.Table:
            n = pa.compute.sum(
                pa.compute.cast(
                    pa.compute.not_equal(t[label_col], t["old"]), pa.int64()
                )
            ).as_py()
            return pa.Table.from_pydict(
                {"changed": pa.array([int(n or 0)], pa.int64())}
            )

        changed = (
            agg.map_batches(count_changed, batch_format="pyarrow").sum("changed")
            or 0
        )
        frontier = agg.map_batches(keep_changed, batch_format="pyarrow")
        frontier_rows = int(changed)
        labels = agg.drop_columns(["old"])
        if changed == 0:
            converged = True
            break
    if not converged:
        import logging

        logging.getLogger(__name__).warning(
            "connected components: max_rounds=%d exhausted before fixpoint",
            max_rounds,
        )
    return labels


def assign_clusters(
    mentions_ds,
    edges_ds,
    method: str = "auto",
    driver_max_edges: int = 2_000_000,
):
    """mentions + match edges -> Dataset (url, cluster_id); nodes without
    any match edge become singleton clusters (cluster_id = own url)."""
    if method in ("auto", "driver"):
        # single streaming pass: collect edge batches as ARROW chunks (no
        # per-string Python objects); ``auto`` falls back to the
        # distributed path only if the driver budget overflows
        budget = driver_max_edges if method == "auto" else float("inf")
        collected = []
        n_edges = 0
        for b in edges_ds.iter_batches(batch_format="pyarrow", batch_size=65536):
            collected.append((b["url_1"].combine_chunks(), b["url_2"].combine_chunks()))
            n_edges += b.num_rows
            if n_edges > budget:
                collected = None
                break
        method = "driver" if collected is not None else "distributed"

    if method == "driver":
        empty = pa.array([], pa.string())
        a1 = (
            pa.chunked_array([c[0] for c in collected]).combine_chunks()
            if collected
            else empty
        )
        a2 = (
            pa.chunked_array([c[1] for c in collected]).combine_chunks()
            if collected
            else empty
        )
        urls_sorted, labels_arr = min_label_components(a1, a2)
        mapping = _as_ref((urls_sorted, labels_arr))

        def assign(t: pa.Table, mapping_ref=mapping) -> pa.Table:
            # task-based (not an actor pool): runs on every CPU with no
            # actor spin-up; the (urls, labels) arrays fetch once per
            # worker via the broadcast cache, and the whole lookup is
            # C-level arrow kernels (index_in hash probe + take +
            # coalesce for the singleton fill), no per-row Python
            import pyarrow.compute as pc

            from .mention_prep import get_broadcast

            urls_s, labels = get_broadcast(mapping_ref)
            url_col = t["url"].combine_chunks()
            idx = pc.index_in(url_col, urls_s)  # null where no edge
            cids = pc.coalesce(labels.take(idx), url_col)
            return pa.Table.from_pydict({"url": url_col, "cluster_id": cids})

        return mentions_ds.select_columns(["url"]).map_batches(
            assign, batch_format="pyarrow"
        )

    # distributed path: CC labels for edge-nodes, then left-fill singletons.
    # This left-outer join touches the FULL mention set, so its partition
    # count must grow with the cluster (join_partitions), never cap at a
    # constant — the last hard 64-cap in the engine was here.
    labels = connected_components_distributed(edges_ds)
    joined = mentions_ds.select_columns(["url"]).join(
        labels,
        join_type="left_outer",
        on=("url",),
        num_partitions=join_partitions(),
    )

    def fill(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.set_column(
            t.schema.get_field_index("cluster_id"),
            "cluster_id",
            pc.coalesce(t["cluster_id"], t["url"]),
        )

    return joined.map_batches(fill, batch_format="pyarrow")


def _as_ref(obj):
    import ray

    return ray.put(obj)


def cluster_pairs(clusters_ds):
    """(url, cluster_id) -> all canonical within-cluster pairs
    (url_1 < url_2): the pairwise co-membership view used by the
    reference's cluster metrics (src/metric/metric.py semantics).
    Dup clusters are small by nature, so the per-cluster C(n,2) is
    bounded; one groupby shuffle on cluster_id."""

    def pairs(g: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        col = g["url"].combine_chunks()
        arr = col.take(pc.sort_indices(col))
        i, j = np.triu_indices(len(arr), k=1)
        return pa.Table.from_pydict(
            {
                "url_1": arr.take(pa.array(i, pa.int64())),
                "url_2": arr.take(pa.array(j, pa.int64())),
            }
        )

    return clusters_ds.groupby(
        "cluster_id", num_partitions=shuffle_partitions()
    ).map_groups(pairs, batch_format="pyarrow")
