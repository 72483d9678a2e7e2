"""Connected components over match edges -> transitive cluster ids.

The reference never clusters explicitly (gold IDX labels imply the
partition, SURVEY.md §2.12); the north_rule makes it a first-class stage.

Two implementations behind one entry point; both label every node with
the minimum node of its component:
- ``driver``: vectorized min-label relaxation over collected edges
  (``min_label_components``) — exact and fast while the *match-edge*
  set fits the driver (edges are only predicted matches, orders of
  magnitude smaller than candidate pairs).
- ``distributed``: min-label propagation rounds on plain Ray tasks
  (``connected_components_distributed``), for any number of edges.

``auto`` picks driver-side up to ``rayutil.DRIVER_EDGES`` edges, else
distributed — and the distributed path is what a 256-node run would
use. The switch is ``assign_clusters``, for ER's url clusters and
dedup's canonical docs.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .. import rayutil
from ..rayutil import (
    _arrow_blocks,
    _merge_part,
    _split_by_part,
    key_parts,
    keyed_repartition,
    run_blocks,
    shuffle_partitions,
    split_blocks,
    with_key_part,
)
from .features import run_pairs


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


def _directed_edges(t: pa.Table, c1: str, c2: str, n_parts: int) -> pa.Table:
    """Both directions of every edge, keyed by the source's partition
    and carrying the neighbour's (each endpoint is hashed once)."""
    a, b = t[c1].combine_chunks(), t[c2].combine_chunks()
    part_a, part_b = key_parts(t, [c1], n_parts), key_parts(t, [c2], n_parts)
    return pa.table(
        {
            "src": pa.concat_arrays([a, b]),
            "nbr": pa.concat_arrays([b, a]),
            "nbr_part": np.concatenate([part_b, part_a]),
            "part": np.concatenate([part_a, part_b]),
        }
    )


def _init_partition(node_col: str, n_edge_slices: int, *slices):
    """One partition's state from its edge and node-row slices.

    Static: its unique nodes (node rows and edge sources; every
    neighbour is the source of the reverse edge in its own partition),
    each directed edge's source index, neighbour and neighbour's
    partition, and the node rows with their node index. Round 0: every
    node labels itself and counts as changed."""
    edges = _merge_part(pa.table({}), *slices[:n_edge_slices])
    rows = _merge_part(pa.table({}), *slices[n_edge_slices:])
    named = [(rows, node_col), (edges, "src")]
    typ = next((t.schema.field(c).type for t, c in named if t.num_columns), pa.null())

    def col(t, name, type_=typ):
        return (t[name] if t.num_columns else pa.chunked_array([], type_)).combine_chunks()

    src, node_rows = col(edges, "src"), col(rows, node_col)
    nodes = pc.unique(pa.concat_arrays([node_rows, src]))
    static = (
        nodes,
        np.asarray(pc.index_in(src, nodes), np.int64),
        col(edges, "nbr"),
        np.asarray(col(edges, "nbr_part", pa.int64()), np.int64),
        node_rows,
        pc.index_in(node_rows, nodes),
    )
    return static, (nodes, np.ones(len(nodes), bool))


def _emit(static, dyn, n_parts: int):
    """Round task 1: a message (nbr, label[src]) from every edge whose
    source changed its label last round, split by the neighbour's
    partition. Labels only decrease, so each value a node ever holds is
    forwarded once; the fixpoint is the one full re-broadcast reaches."""
    _, src_idx, nbr, nbr_part, _, _ = static
    labels, changed = dyn
    sel = changed[src_idx]
    msgs = pa.table(
        {
            "node": nbr.filter(pa.array(sel)),
            "label": labels.take(src_idx[sel]),
            "part": nbr_part[sel],
        }
    )
    return _split_by_part(msgs, "part", n_parts)


def _apply(static, dyn, *slices):
    """Round task 2: min-reduce the messages the partition received per
    node and lower every label a message undercuts. Returns the new
    (labels, changed mask) and the changed count."""
    nodes, labels = static[0], dyn[0]
    changed = np.zeros(len(nodes), bool)
    msgs = _merge_part(pa.table({}), *slices)
    if msgs.num_rows:
        best = msgs.group_by("node", use_threads=False).aggregate([("label", "min")])
        idx = np.asarray(pc.index_in(best["node"], nodes), np.int64)
        msg = best["label_min"].combine_chunks()
        lower = np.asarray(pc.less(msg, labels.take(idx)))
        changed[idx[lower]] = True
        order = np.argsort(idx[lower])
        better = msg.filter(pa.array(lower)).take(order)
        labels = pc.replace_with_mask(labels, pa.array(changed), better)
    return (labels, changed), int(changed.sum())


def _labelled_rows(static, dyn, node_col: str, label_col: str) -> pa.Table:
    node_rows, row_idx = static[4], static[5]
    return pa.table({node_col: node_rows, label_col: dyn[0].take(row_idx)})


def connected_components_distributed(
    nodes_ds,
    edges_ds,
    *,
    node_col: str = "url",
    edge_cols: tuple[str, str] = ("url_1", "url_2"),
    label_col: str = "cluster_id",
):
    """Min-label propagation on plain Ray tasks: one ``(node_col,
    label_col)`` row per ``nodes_ds`` row, the label being the minimum
    node of the node's component (a node without edges labels itself;
    an edge endpoint missing from ``nodes_ds`` passes labels on but gets
    no row). Works for any orderable node type (url strings, int doc ids).

    Nodes hash to ``shuffle_partitions()`` partitions (``rayutil.key_hash``).
    ``edges_ds`` (both directions, keyed by source) and ``nodes_ds`` each
    run once, through one split pass (``rayutil.split_blocks``), into
    one state task per partition (``_init_partition``). Each round one
    task per partition emits messages (``_emit``) and one applies those
    it received (``_apply``); the driver sums the changed counts and
    stops at 0, which labels reach by themselves (they only decrease),
    after diameter + 1 rounds. No actor: it runs on a 1-CPU cluster."""
    n = shuffle_partitions()
    c1, c2 = edge_cols
    edge_prep = partial(_directed_edges, c1=c1, c2=c2, n_parts=n)
    node_prep = partial(with_key_part, keys=[node_col], n_parts=n)
    edge_parts = split_blocks(edges_ds, "part", n, edge_prep)
    node_parts = split_blocks(nodes_ds.select_columns([node_col]), "part", n, node_prep)
    init = ray.remote(_init_partition).options(num_returns=2)
    static, dyn = zip(
        *[init.remote(node_col, len(e), *e, *v) for e, v in zip(edge_parts, node_parts)]
    )
    emit = ray.remote(_emit).options(num_returns=n)
    apply = ray.remote(_apply).options(num_returns=2)
    while True:
        msgs = [emit.remote(s, d, n) for s, d in zip(static, dyn)]
        if n == 1:
            msgs = [[m] for m in msgs]
        dyn, changed = zip(
            *[apply.remote(static[p], dyn[p], *[m[p] for m in msgs]) for p in range(n)]
        )
        if not sum(ray.get(list(changed))):
            break
    out = ray.remote(_labelled_rows)
    return rd.from_arrow_refs(
        [out.remote(s, d, node_col, label_col) for s, d in zip(static, dyn)]
    )


def assign_clusters(
    mentions_ds,
    edges_ds,
    method: str = "auto",
    *,
    node_col: str = "url",
    edge_cols: tuple[str, str] = ("url_1", "url_2"),
    label_col: str = "cluster_id",
):
    """nodes + match edges -> Dataset (``node_col``, ``label_col``), one
    row per ``mentions_ds`` row; a node without any edge labels itself.
    ``auto`` clusters on the driver (``min_label_components``) up to
    ``rayutil.DRIVER_EDGES`` edges, else on tasks
    (``connected_components_distributed``)."""
    cols = {"node_col": node_col, "edge_cols": edge_cols, "label_col": label_col}
    if method in ("auto", "driver"):
        # one pass over the edge upstream for its block refs and row
        # counts; past the budget the distributed path gets these same
        # blocks, so the upstream (the fused pair exchange, when
        # streaming) does not run again
        refs, n_edges = run_blocks(edges_ds)
        if method == "auto" and not rayutil.on_driver(
            n_edges, rayutil.DRIVER_EDGES
        ):
            method, edges_ds = "distributed", rd.from_arrow_refs(refs)
        else:
            method = "driver"

    if method != "driver":
        return connected_components_distributed(mentions_ds, edges_ds, **cols)

    # edges as ARROW chunks (no per-string Python objects); with no edge
    # row every node labels itself, whatever the node type
    edges = [t.select(list(edge_cols)) for t in _arrow_blocks(refs) if t.num_rows]
    mapping = None
    if edges:
        edges = pa.concat_tables(edges, promote_options="default")
        mapping = ray.put(
            min_label_components(*(edges[c].combine_chunks() for c in edge_cols))
        )

    def assign(t: pa.Table, mapping_ref=mapping) -> pa.Table:
        # the (nodes, labels) arrays fetch once per worker via the
        # broadcast cache; the lookup is arrow kernels, no per-row Python
        from .mention_prep import get_broadcast

        nodes = t[node_col].combine_chunks()
        labels = nodes
        if mapping_ref is not None:
            nodes_s, labels_s = get_broadcast(mapping_ref)
            idx = pc.index_in(nodes, nodes_s)  # null where no edge
            labels = pc.coalesce(labels_s.take(idx), nodes)
        return pa.Table.from_pydict({node_col: nodes, label_col: labels})

    return mentions_ds.select_columns([node_col]).map_batches(
        assign, batch_format="pyarrow"
    )


def _cluster_pairs_part(t: pa.Table) -> pa.Table:
    """One partition's (url, cluster_id) rows -> its clusters' pairs:
    sort by (cluster_id, url), then every within-run pair of each
    cluster's run (``features.run_pairs``)."""
    t = t.sort_by([("cluster_id", "ascending"), ("url", "ascending")]).combine_chunks()
    urls = t["url"]
    codes = np.asarray(t["cluster_id"].combine_chunks().dictionary_encode().indices)
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    i, j = run_pairs(starts, np.diff(np.r_[starts, len(codes)]))
    return pa.table({"url_1": urls.take(i), "url_2": urls.take(j)})


def cluster_pairs(clusters_ds):
    """(url, cluster_id) -> all canonical within-cluster pairs
    (url_1 < url_2): the pairwise co-membership view used by the
    reference's cluster metrics (src/metric/metric.py semantics).
    Dup clusters are small by nature, so the per-cluster C(n,2) is
    bounded; one ``keyed_repartition`` on cluster_id, then one
    sort per partition."""
    n = shuffle_partitions()
    return keyed_repartition(clusters_ds, ["cluster_id"], n).map_batches(
        _cluster_pairs_part, batch_format="pyarrow", batch_size=None
    )
