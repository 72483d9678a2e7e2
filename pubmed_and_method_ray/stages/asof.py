"""Generic as-of join — a temporal operator Ray Data has no native
analog for (the reference's nearest-prior-record lookups are ORDER
BY...LIMIT 1 subqueries; DuckDB spells it ASOF JOIN).

Semantics: for every LEFT row, pick the single RIGHT row with the same
key and the greatest right timestamp that is `<` (strict, default) or
`<=` the left row's timestamp; left rows with no qualifying right row
are dropped (inner as-of).

Ray-Data-first construction:
- both sides are tagged and UNIONed into one stream, then ONE keyed
  exchange on the key (``rayutil.keyed_repartition``) co-locates every
  key's rows (left and right) in one partition block — the same
  single-exchange shape as pair-gen (stages/blocking.py): the exchange
  emits one block per partition, so a map_batches(batch_size=None)
  task sees complete key groups.
- inside a block the match is fully vectorized: right rows lexsort by
  (key-code, ts); each probe finds its predecessor with ONE
  searchsorted over packed (key-code * ts-span + ts-offset) uint keys —
  no per-row Python, no per-key loop on the packed path.
- keys of any orderable dtype (int ids, strings) — np.unique factorizes
  both sides against one vocabulary.

At cluster scale this is one all-to-all exchange of only the columns
the join needs (callers prune at the read), and the per-block kernel is
O(n log n) in block rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..rayutil import (
    heavy_key_census,
    keyed_repartition,
    run_blocks,
    shuffle_partitions,
)
from .features import triangle_salt

_SIDE = "__asof_side"


def _null_array(n: int, typ: pa.DataType) -> pa.Array:
    return pa.nulls(n, typ)


def _arrow_type(t) -> pa.DataType:
    """A Ray schema type as an Arrow type: Ray reports pandas-backed
    object columns as the PYTHON class (parquet-backed datasets — the
    production path — always give Arrow types)."""
    if isinstance(t, pa.DataType):
        return t
    if t in (object, str, bytes):
        return pa.string()
    return pa.from_numpy_dtype(np.dtype(t))


def _run_once(ds):
    """``ds`` run once (``rayutil.run_blocks``): a Dataset over its
    blocks, and their {column: Arrow type}. The schema comes from the
    block metadata, and the census and the exchange read these blocks,
    so the upstream plan does not run again."""
    import ray.data as rd

    ds = rd.from_arrow_refs(run_blocks(ds)[0])
    schema = ds.schema()
    return ds, {n: _arrow_type(t) for n, t in zip(schema.names, schema.types)}


def _salt_table(ds, key_col: str, salt_threshold: int | None):
    """The mega-key guard's plan: (heavy keys Array, int64 S per key),
    S = ceil(n / salt_threshold) for each key whose census count
    (``_heavy_keys``) exceeds ``salt_threshold``; None when the guard is
    off or no key is heavy."""
    if salt_threshold is None:
        return None
    heavy = _heavy_keys(ds, key_col, salt_threshold)
    if not heavy:
        return None
    S = -(-np.fromiter(heavy.values(), np.int64, len(heavy)) // salt_threshold)
    return pa.array(list(heavy)), S


def _ts_salt(t: pa.Table, ts_col: str, S: np.ndarray) -> np.ndarray:
    """Each row's salt group in 0..S-1: a hash of its timestamp."""
    from ..functions.hashing import splitmix64

    ts = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    return splitmix64(np.asarray(ts).astype(np.uint64)) % S.astype(np.uint64)


def _salts(col, salt_table) -> np.ndarray:
    """Per-row S of a key column (1 for light keys): one vectorized
    index_in hash probe against the (tiny) heavy-key array."""
    import pyarrow.compute as pc

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    keys, S = salt_table
    pos = np.asarray(pc.index_in(col, keys).fill_null(-1), dtype=np.int64)
    return np.where(pos >= 0, S[np.maximum(pos, 0)], 1)


def _asof_block(
    t: pa.Table,
    key_col: str,
    ts_col: str,
    left_cols: list[str],
    right_out: list[tuple[str, str]],
    strict: bool,
    out_schema: pa.Schema,
) -> pa.Table:
    if t.num_rows == 0:
        return out_schema.empty_table()
    t = t.combine_chunks()
    # null keys/timestamps would silently corrupt: a nullable int column
    # comes back from to_numpy as float64 with NaN and the int64 cast
    # turns NaN into INT64_MIN, producing wrong matches — fail loudly
    if t[key_col].null_count or t[ts_col].null_count:
        raise ValueError(
            f"asof_join: null {key_col!r}/{ts_col!r} values are not "
            "supported — filter null key/timestamp rows upstream"
        )
    side = np.asarray(t[_SIDE].to_numpy(zero_copy_only=False))
    ts_arr = t[ts_col]
    if pa.types.is_temporal(ts_arr.type):
        ts_arr = ts_arr.cast(pa.int64())
    ts = np.asarray(ts_arr.to_numpy(zero_copy_only=False), dtype=np.int64)
    keys_raw = t[key_col].to_numpy(zero_copy_only=False)
    is_left = side == 1
    if not is_left.any() or is_left.all():
        return out_schema.empty_table()

    # one key vocabulary for both sides -> int codes
    _, codes = np.unique(keys_raw, return_inverse=True)
    codes = codes.astype(np.int64)
    r_idx = np.flatnonzero(~is_left)
    l_idx = np.flatnonzero(is_left)
    rk, rt = codes[r_idx], ts[r_idx]
    lk, lt = codes[l_idx], ts[l_idx]

    tmin = int(ts.min())
    span = int(ts.max()) - tmin + 2  # +2: room for the <= variant's +1
    ncodes = int(codes.max()) + 1
    if ncodes * span < (1 << 62):
        # packed path: predecessor via ONE searchsorted over
        # code*span + (ts - tmin) keys (rights sorted by (key, ts))
        order_r = np.lexsort((rt, rk))
        rp = rk[order_r] * span + (rt[order_r] - tmin)
        probe = lk * span + (lt - tmin) + (0 if strict else 1)
        pos = np.searchsorted(rp, probe, side="left") - 1
        ok = pos >= 0
        ok[ok] = rk[order_r[pos[ok]]] == lk[ok]
        match_r = r_idx[order_r[pos[ok]]]
    else:
        # degenerate ts/key ranges: per-key-run loop (rare fallback)
        order_r = np.lexsort((rt, rk))
        rk_s, rt_s = rk[order_r], rt[order_r]
        starts = np.searchsorted(rk_s, lk, side="left")
        ends = np.searchsorted(rk_s, lk, side="right")
        pos = np.empty(len(lk), dtype=np.int64)
        ok = np.zeros(len(lk), dtype=bool)
        sd = "left" if strict else "right"
        for i in range(len(lk)):
            s, e = starts[i], ends[i]
            if s == e:
                continue
            p = s + np.searchsorted(rt_s[s:e], lt[i], side=sd) - 1
            if p >= s:
                ok[i] = True
                pos[i] = p
        match_r = r_idx[order_r[pos[ok]]]

    keep_l = l_idx[ok]
    cols: dict[str, pa.Array] = {}
    li = pa.array(keep_l, pa.int64())
    ri = pa.array(match_r, pa.int64())
    for c in left_cols:
        cols[c] = t[c].take(li)
    for src, dst in right_out:
        cols[dst] = t[src].take(ri)
    return pa.Table.from_pydict(cols).cast(out_schema)


def _heavy_keys(ds, key_col: str, threshold: int, sample_mod: int = 8):
    """Sampled per-key row census -> {key: scaled count} for keys above
    ``threshold`` (the mega-key guard's detection pass; approximate is
    fine — salting is a load/memory device, never a correctness one):
    per-batch ``value_counts`` partials over a deterministic row-stride
    sample, merged by ``rayutil.heavy_key_census``."""

    def partial(t: pa.Table) -> pa.Table:
        col = t[key_col]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if sample_mod > 1:
            keep = (
                np.arange(len(col), dtype=np.int64) % sample_mod == 0
            )  # deterministic row-stride sample
            col = col.filter(pa.array(keep))
        vc = col.value_counts()
        return pa.Table.from_pydict(
            {"key": vc.field("values"), "n": vc.field("counts")}
        )

    keys, counts = heavy_key_census(
        ds.map_batches(partial, batch_format="pyarrow"), threshold, sample_mod
    )
    return dict(zip(keys.to_pylist(), counts.tolist()))


def asof_join(
    left_ds,
    right_ds,
    key_col: str,
    ts_col: str,
    right_cols: list[str],
    suffix: str = "_prev",
    strict: bool = True,
    salt_threshold: int | None = None,
):
    """As-of join two Datasets. Output: every LEFT column plus each of
    ``right_cols`` from the matched right row renamed ``{col}{suffix}``
    (``ts_col`` is matched by time, so its suffixed copy is included
    automatically when listed in ``right_cols``). ``strict``: match
    right.ts < left.ts (True) or <= (False). Inner semantics.

    ``salt_threshold``: mega-key guard (off by default — it adds one
    census pass over the probe side, ``_heavy_keys``, whose partial
    counts merge on the driver or in a keyed exchange by their count,
    ``rayutil.heavy_key_census``). Keys whose LEFT row count exceeds
    it split into S = ceil(n/threshold) salt groups: probe rows hash to
    one group, the key's RIGHT rows replicate to every group, and the
    exchange partitions on (key, salt) so no single task holds the whole
    key. Replicated rights are harmless to correctness — a probe row's
    predecessor is the same row whichever replica the kernel finds —
    so the block kernel is unchanged. Memory per task drops from
    O(n_left + n_right) to O(n_left/S + n_right) for the hot key; a
    right side too big for one task needs time-range partitioning
    (not provided). Without the guard, a key larger than a partition
    block still computes correctly (the exchange emits one block per
    partition) but serializes in one task — the same documented
    assumption as pair-gen (stages/blocking.py)."""
    left_ds, lt = _run_once(left_ds)
    right_ds, rt = _run_once(right_ds)
    left_cols = list(lt)
    right_out = [(f"{c}{suffix}", f"{c}{suffix}") for c in right_cols]
    if lt[key_col] != rt[key_col]:
        raise TypeError(f"key dtype mismatch: {lt[key_col]} vs {rt[key_col]}")

    # mega-key guard: S salt groups per heavy probe key (see docstring)
    salt_table = _salt_table(left_ds, key_col, salt_threshold)
    salted = salt_table is not None

    # combined exchange schema: left cols + suffixed right payload
    # (+ salt when the guard is active) + side
    combined = [(c, lt[c]) for c in left_cols]
    combined += [(f"{c}{suffix}", rt[c]) for c in right_cols]
    extra = [("__asof_salt", pa.int32())] if salted else []
    combined_schema = pa.schema(combined + extra + [(_SIDE, pa.int8())])
    out_schema = pa.schema(combined)

    def tag_left(t: pa.Table) -> pa.Table:
        n = t.num_rows
        arrs = [t[c].combine_chunks() for c in left_cols]
        arrs += [_null_array(n, rt[c]) for c in right_cols]
        if salted:
            salt = _ts_salt(t, ts_col, _salts(t[key_col], salt_table))
            arrs.append(pa.array(salt.astype(np.int32), pa.int32()))
        arrs.append(pa.array(np.ones(n, dtype=np.int8)))
        return pa.Table.from_arrays(arrs, schema=combined_schema)

    def tag_right(t: pa.Table) -> pa.Table:
        n = t.num_rows
        arrs = []
        for c in left_cols:
            if c == key_col:
                arrs.append(t[key_col].combine_chunks())
            elif c == ts_col:
                arrs.append(t[ts_col].combine_chunks().cast(lt[ts_col]))
            else:
                arrs.append(_null_array(n, lt[c]))
        arrs += [t[c].combine_chunks() for c in right_cols]
        out = pa.Table.from_arrays(
            arrs + [pa.array(np.zeros(n, dtype=np.int8))],
            schema=pa.schema(combined + [(_SIDE, pa.int8())]),
        )
        if not salted:
            return out
        # replicate each heavy key's right rows to every salt group so
        # any probe group sees the key's full right history
        S = _salts(t[key_col], salt_table)
        take = np.repeat(np.arange(n, dtype=np.int64), S)
        rep = out.take(pa.array(take, pa.int64()))
        cum = np.cumsum(S) - S
        salt = (np.arange(len(take), dtype=np.int64) - np.repeat(cum, S)).astype(
            np.int32
        )
        side = rep[_SIDE]
        rep = rep.drop_columns([_SIDE])
        rep = rep.append_column("__asof_salt", pa.array(salt, pa.int32()))
        return rep.append_column(_SIDE, side).cast(combined_schema)

    unioned = left_ds.map_batches(tag_left, batch_format="pyarrow").union(
        right_ds.map_batches(tag_right, batch_format="pyarrow")
    )
    part_keys = [key_col, "__asof_salt"] if salted else [key_col]
    return keyed_repartition(unioned, part_keys, shuffle_partitions()).map_batches(
        lambda t: _asof_block(
            t, key_col, ts_col, left_cols, right_out, strict, out_schema
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def _range_block(
    t: pa.Table,
    key_col: str,
    ts_col: str,
    window: int,
    emit_cols: list[str],
    out_schema: pa.Schema,
) -> pa.Table:
    if t.num_rows == 0:
        return out_schema.empty_table()
    t = t.combine_chunks()
    # see _asof_block: NaN-from-null int columns cast to INT64_MIN
    if t[key_col].null_count or t[ts_col].null_count:
        raise ValueError(
            f"range_self_join: null {key_col!r}/{ts_col!r} values are not "
            "supported — filter null key/timestamp rows upstream"
        )
    ts_arr = t[ts_col]
    if pa.types.is_temporal(ts_arr.type):
        ts_arr = ts_arr.cast(pa.int64())
    ts = np.asarray(ts_arr.to_numpy(zero_copy_only=False), dtype=np.int64)
    _, codes = np.unique(
        t[key_col].to_numpy(zero_copy_only=False), return_inverse=True
    )
    salted = "__rj_sa" in t.column_names
    if salted:
        sa = np.asarray(t["__rj_sa"].to_numpy(zero_copy_only=False), np.int64)
        sb = np.asarray(t["__rj_sb"].to_numpy(zero_copy_only=False), np.int64)
        part = np.asarray(t["__rj_p"].to_numpy(zero_copy_only=False), np.int64)
        # fold the salt-group identity into the run code so triangle
        # groups of one key never mix (a row is replicated across groups)
        nmax = max(int(sb.max()) + 1, 1)
        codes = (codes * nmax + sa) * nmax + sb
    n = len(ts)
    order = np.lexsort((ts, codes))
    ks, tss = codes[order], ts[order]
    run_starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    run_ends = np.r_[run_starts[1:], n]
    lo = np.empty(n, dtype=np.int64)
    hi = np.empty(n, dtype=np.int64)
    # one searchsorted PAIR per key run, each over the whole run at once
    for s, e in zip(run_starts.tolist(), run_ends.tolist()):
        seg = tss[s:e]
        lo[s:e] = s + np.searchsorted(seg, seg, side="right")
        hi[s:e] = s + np.searchsorted(seg, seg + window, side="right")
    reps = hi - lo
    total = int(reps.sum())
    if total == 0:
        return out_schema.empty_table()
    left_pos = np.repeat(np.arange(n, dtype=np.int64), reps)
    cum = np.cumsum(reps) - reps
    right_pos = np.repeat(lo, reps) + (
        np.arange(total, dtype=np.int64) - np.repeat(cum, reps)
    )
    la = order[left_pos]
    ra = order[right_pos]
    if salted:
        # diagonal (i,i) groups own within-part pairs; off-diagonal
        # (i,j) groups own cross-part pairs only — exactly-once coverage
        # (the triangle-join rule of features.salted_group_pairs)
        diag = sa[la] == sb[la]
        keep = np.where(diag, True, part[la] != part[ra])
        la, ra = la[keep], ra[keep]
        if not len(la):
            return out_schema.empty_table()
    li = pa.array(la, pa.int64())
    ri = pa.array(ra, pa.int64())
    cols: dict[str, pa.Array] = {key_col: t[key_col].take(li)}
    for c in emit_cols:
        cols[f"{c}_a"] = t[c].take(li)
        cols[f"{c}_b"] = t[c].take(ri)
    cols["gap_us"] = pa.array(ts[ra] - ts[la], pa.int64())
    return pa.Table.from_pydict(cols).cast(out_schema)


def range_self_join(
    ds,
    key_col: str,
    ts_col: str,
    window: int,
    emit_cols: list[str],
    salt_threshold: int | None = None,
):
    """Range join (self): every ordered within-key row pair (a, b) with
    a.ts < b.ts <= a.ts + ``window`` (ts units; equal timestamps never
    pair). Same single-exchange shape as asof_join: hash-partition on the
    key, then each block lexsorts (key, ts) and finds every row's match
    range with one searchsorted pair per key run + a vectorized
    range-repeat expansion (a window needs each row's match range, not
    the all-pairs runs of ``features.salted_group_pairs``). Output:
    key, each ``emit_cols`` entry twice (``_a``/``_b``), and ``gap_us``.

    Range joins explode quadratically inside a (key, window) cell by
    definition — callers bound the window. ``salt_threshold`` turns on
    the mega-key guard: keys above it triangle-split into
    S = ceil(n/threshold) groups (a row with part p replicates to every
    group pair containing p; diagonal groups emit within-part pairs,
    off-diagonal groups cross-part pairs only — the exactly-once rule of
    ``features.salted_group_pairs``), and the exchange partitions on
    (key, sa, sb) so no task holds a whole hot key. Off by default: it
    adds a census pass and S-way replication of hot-key rows."""
    ds, types = _run_once(ds)
    fields = [(key_col, types[key_col])]
    for c in emit_cols:
        fields += [(f"{c}_a", types[c]), (f"{c}_b", types[c])]
    fields.append(("gap_us", pa.int64()))
    out_schema = pa.schema(fields)

    salt_table = _salt_table(ds, key_col, salt_threshold)
    if salt_table is None:
        return keyed_repartition(ds, [key_col], shuffle_partitions()).map_batches(
            lambda t: _range_block(t, key_col, ts_col, window, emit_cols, out_schema),
            batch_format="pyarrow",
            batch_size=None,
        )

    def replicate(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        S = _salts(t[key_col], salt_table)
        rows, part, sa, sb = triangle_salt(S, _ts_salt(t, ts_col, S))
        out = t.take(pa.array(rows, pa.int64()))
        out = out.append_column("__rj_p", pa.array(part.astype(np.int32), pa.int32()))
        out = out.append_column("__rj_sa", pa.array(sa.astype(np.int32), pa.int32()))
        return out.append_column("__rj_sb", pa.array(sb.astype(np.int32), pa.int32()))

    return keyed_repartition(
        ds.map_batches(replicate, batch_format="pyarrow"),
        [key_col, "__rj_sa", "__rj_sb"],
        shuffle_partitions(),
    ).map_batches(
        lambda t: _range_block(t, key_col, ts_col, window, emit_cols, out_schema),
        batch_format="pyarrow",
        batch_size=None,
    )
