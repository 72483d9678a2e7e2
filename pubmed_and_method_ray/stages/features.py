"""Pairwise feature extraction and GBT scoring kernels.

The web-graft analog of the reference's per-pair feature library
(/root/reference/src/pubmed_inner_feature_extract.py:213-341, kernels at
src/eutilities/string_utils.py:59-109): Jaro-Winkler / Levenshtein on
titles and url paths, Jaccard over token and shingle sets, char-ngram
TF-IDF cosine, timestamp proximity, SimHash Hamming distance, ambiguity
(block-size) score — per BASELINE.json north_star. The reference computes
features row-at-a-time in a pandas iterrows loop; here the heavy parts
(set intersections, tf-idf dot products, hamming) run on numpy arrays per
Arrow batch inside the fused pair task (blocking.make_features_bucket),
which also scores the rows with ``append_scores`` when it has a model.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.simhash import hamming64_arrays
from ..functions.textkernels import jaro_winkler_batch, levenshtein_batch


def _dedup_batch_kernel(strings: np.ndarray, li: np.ndarray, ri: np.ndarray, fn):
    """Evaluate a batch string kernel once per DISTINCT (s[li], s[ri])
    pair: dictionary-encode the string column, np.unique the id pairs,
    run ``fn`` on the distinct pairs, scatter back via the inverse."""
    uniq_strs, sid = np.unique(strings, return_inverse=True)
    pair_code = sid[li].astype(np.int64) * len(uniq_strs) + sid[ri]
    uniq_codes, inv = np.unique(pair_code, return_inverse=True)
    ua = uniq_strs[(uniq_codes // len(uniq_strs))]
    ub = uniq_strs[(uniq_codes % len(uniq_strs))]
    vals = fn(list(ua), list(ub))
    return np.asarray(vals)[inv]

FEATURE_NAMES = [
    "jw_title",
    "jw_path",
    "lev_path_sim",
    "jaccard_tokens",
    "jaccard_shingles",
    "tfidf_cosine",
    "ts_proximity",
    "simhash_sim",
    "ambiguity",
    "title_len_ratio",
    "same_lang",
]

def _intersect_count_sorted(a: np.ndarray, b: np.ndarray) -> int:
    """|a ∩ b| for SORTED unique arrays via searchsorted (no re-sort —
    ~3x faster than intersect1d in the per-pair hot loop)."""
    if len(a) == 0 or len(b) == 0:
        return 0
    if len(a) < len(b):
        a, b = b, a
    idx = np.searchsorted(a, b)
    valid = idx < len(a)
    return int((a[idx[valid]] == b[valid]).sum())


def _jaccard_u64(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard of two sorted-unique arrays (set semantics of
    string_utils.py:99-109, over hashes)."""
    if len(a) == 0 and len(b) == 0:
        return 0.0
    inter = _intersect_count_sorted(a, b)
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def _list_view(col) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (offsets, flat values) view of an Arrow list column —
    avoids to_pylist's per-element Python object creation in the hot
    feature loop. Row i's values are vals[off[i]:off[i+1]]."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    off = np.asarray(arr.offsets)
    vals = arr.values.to_numpy(zero_copy_only=False)
    return off, vals


def _unpack_tfidf(pk_col, norm_col, idf):
    """(offsets, idx values, float32 weight values) from the packed
    tfidf transport: ``tfidf_pk`` = idx | tf<<16 plus a per-doc float32
    ``tfidf_norm``. Recomputes w = tf * idf[idx] / norm with the SAME
    float32 ops and operand order as mention_prep built (and selected
    top-k by), so the result is bit-identical to shipping the weights —
    the exchange moves one uint32 list instead of idx + float32 w
    (~26% of pair-exchange bytes) and the broadcast idf fills the
    weights back in at the consumer."""
    if idf is None:
        raise ValueError(
            "mentions carry packed tfidf (tfidf_pk); the consumer needs "
            "the SAME idf vector that built them — pass idf/idf_ref"
        )
    off, pk = _list_view(pk_col)
    pk = pk.astype(np.uint32, copy=False)
    idx = pk & np.uint32(0xFFFF)
    cnt = (pk >> np.uint32(16)).astype(np.int64)
    idf32 = np.asarray(idf, dtype=np.float32)
    w = cnt.astype(np.float32) * idf32[idx.astype(np.int64)]
    narr = norm_col.combine_chunks() if isinstance(norm_col, pa.ChunkedArray) else norm_col
    norms = np.asarray(narr.to_numpy(zero_copy_only=False), dtype=np.float32)
    lens = np.diff(off).astype(np.int64)
    nr = np.repeat(norms, lens)
    pos = nr > 0
    w[pos] = w[pos] / nr[pos]
    return off, idx, w


def gather_list_rows(off: np.ndarray, vals: np.ndarray, rows: np.ndarray):
    """Concatenated values of list rows ``rows`` plus per-row lengths —
    the flat gather that feeds the vectorized multi-pair kernels below.
    One np.repeat + one arange; no per-row Python."""
    rows = np.asarray(rows, dtype=np.int64)
    lens = (off[rows + 1] - off[rows]).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return vals[:0], lens
    starts = off[rows].astype(np.int64)
    cum = np.cumsum(lens) - lens
    idx = np.repeat(starts - cum, lens) + np.arange(total, dtype=np.int64)
    return vals[idx], lens


def run_pairs(starts: np.ndarray, sizes: np.ndarray):
    """Every within-run pair of positions, for runs ``[starts[r],
    starts[r] + sizes[r])``: int64 (i, j) with i < j, runs in input
    order and each run's pairs in ``np.triu_indices(n, k=1)`` order.
    One repeat/cumsum expansion per level (left rows, then pairs); no
    per-run Python, and size-0/1 runs add no pair. At most three
    pair-length int64 arrays are alive at once."""
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    # left rows: every member of a run but its last
    n_left = np.maximum(sizes - 1, 0)
    n_rows = int(n_left.sum())
    left = np.repeat(starts - (np.cumsum(n_left) - n_left), n_left)
    left += np.arange(n_rows, dtype=np.int64)
    # each left row pairs with every later member of its run
    cnt = np.repeat(starts + sizes - 1, n_left) - left
    first = np.cumsum(cnt) - cnt
    j = np.arange(int(cnt.sum()), dtype=np.int64)
    j -= np.repeat(first - left - 1, cnt)
    return np.repeat(left, cnt), j


def triangle_salt(S: np.ndarray, p: np.ndarray):
    """Triangle-join salt replication: row i, with salt ``p[i]`` of
    ``S[i]`` groups, goes to every group (min(p, q), max(p, q)) for q in
    0..S[i]-1, so each pair of rows meets in exactly one group. Returns
    int64 (rows, part, sa, sb), one entry per replica: rows in input
    order, each row's q ascending (one repeat/cumsum expansion)."""
    S = np.asarray(S, dtype=np.int64)
    rows = np.repeat(np.arange(len(S), dtype=np.int64), S)
    q = np.arange(len(rows), dtype=np.int64) - np.repeat(np.cumsum(S) - S, S)
    part = np.asarray(p, dtype=np.int64)[rows]
    return rows, part, np.minimum(part, q), np.maximum(part, q)


def cross_pairs(starts_a, sizes_a, starts_b, sizes_b):
    """Every (i, j) with i in run ``[starts_a[r], +sizes_a[r])`` and j in
    run ``[starts_b[r], +sizes_b[r])`` of the same r: each left row
    pairs with every right row, as ``np.repeat``/``np.tile`` would, for
    all runs in one expansion."""
    n_left = int(sizes_a.sum())
    left = np.repeat(starts_a - (np.cumsum(sizes_a) - sizes_a), sizes_a)
    left += np.arange(n_left, dtype=np.int64)
    cnt = np.repeat(sizes_b, sizes_a)
    first = np.cumsum(cnt) - cnt
    j = np.arange(int(cnt.sum()), dtype=np.int64)
    j -= np.repeat(first - np.repeat(starts_b, sizes_a), cnt)
    return np.repeat(left, cnt), j


def salted_group_pairs(code, sa, sb, part) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs (gi, gj) of triangle-salted rows (``triangle_salt``):
    rows group by (code, sa, sb); a diagonal group (sa == sb) pairs its
    rows among themselves, an off-diagonal group pairs each row of part
    sa with each row of part sb, so two rows that share a code meet
    exactly once. ``code`` is a non-negative int group code, sa <= sb,
    and every row's part is its sa or its sb.

    One argsort of a packed int64 key (code, sa, sb, side), side = part
    != sa, makes every (group, side) a run, an off-diagonal group's
    side-sa run just before its side-sb run; ``run_pairs`` and
    ``cross_pairs`` expand all runs at once. Raises ValueError when the
    key would not fit 63 bits."""
    code = np.asarray(code, dtype=np.int64)
    sa = np.asarray(sa, dtype=np.int64)
    sb = np.asarray(sb, dtype=np.int64)
    if not len(code):
        z = np.empty(0, dtype=np.int64)
        return z, z
    n_code, n_s = int(code.max()) + 1, int(sb.max()) + 1
    if n_code * n_s * n_s * 2 > 1 << 63:
        raise ValueError(
            f"salted group key does not fit 63 bits: {n_code} codes, {n_s} salts"
        )
    key = ((code * n_s + sa) * n_s + sb) * 2 + (np.asarray(part) != sa)
    order = np.argsort(key)
    k = key[order]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    sizes = np.diff(np.r_[starts, len(k)])
    grp, side = k[starts] >> 1, k[starts] & 1
    diag = (grp // n_s) % n_s == grp % n_s
    x = (grp[:-1] == grp[1:]) & (side[:-1] == 0) & (side[1:] == 1)
    i1, j1 = run_pairs(starts[diag], sizes[diag])
    i2, j2 = cross_pairs(starts[:-1][x], sizes[:-1][x], starts[1:][x], sizes[1:][x])
    return order[np.concatenate([i1, i2])], order[np.concatenate([j1, j2])]


def _left_runs(rows_a: np.ndarray):
    """Group pair ids by their LEFT row: stable argsort + run boundaries.
    Block-triangle pair generation reuses each left row against many
    rights, so the number of runs is ~#mentions, not #pairs - the
    per-run numpy-call overhead amortizes across the whole run."""
    order = np.argsort(np.asarray(rows_a, dtype=np.int64), kind="stable")
    sorted_rows = np.asarray(rows_a, dtype=np.int64)[order]
    starts = np.flatnonzero(np.r_[True, sorted_rows[1:] != sorted_rows[:-1]])
    ends = np.r_[starts[1:], len(sorted_rows)]
    return order, sorted_rows, starts, ends


def pairwise_jaccard(off_a, vals_a, rows_a, off_b, vals_b, rows_b) -> np.ndarray:
    """Vectorized set-jaccard for n (rows_a[i], rows_b[i]) pairs of
    SORTED-UNIQUE list rows. Empty-vs-empty pairs score 0.0 (matching
    _jaccard_u64 / string_utils.py:99-109 semantics).

    Pairs are grouped by LEFT row (one searchsorted per DISTINCT left
    row against that run's concatenated right values) instead of a
    lexsort over all tagged elements: on block-triangle pair sets each
    left row repeats across many pairs, so the sort shrinks from
    O(total_elems log) to one argsort of the pair ids, ~20x less work
    (measured; the lexsort variant was 8x SLOWER than even the per-pair
    loop it replaced)."""
    n = len(rows_a)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    order, sorted_rows, starts, ends = _left_runs(rows_a)
    rows_b_s = np.asarray(rows_b, dtype=np.int64)[order]
    seg_vals, lb_sorted = gather_list_rows(off_b, vals_b, rows_b_s)
    bounds = np.empty(len(lb_sorted) + 1, dtype=np.int64)
    bounds[0] = 0
    np.cumsum(lb_sorted, out=bounds[1:])
    hits = np.zeros(len(seg_vals), dtype=bool)
    off_a = np.asarray(off_a)
    for s, e, a in zip(starts.tolist(), ends.tolist(), sorted_rows[starts].tolist()):
        A = vals_a[off_a[a] : off_a[a + 1]]
        lo, hi = bounds[s], bounds[e]
        if len(A) == 0 or lo == hi:
            continue
        seg = seg_vals[lo:hi]
        idx = np.searchsorted(A, seg)
        ok = idx < len(A)
        ok[ok] = A[idx[ok]] == seg[ok]
        hits[lo:hi] = ok
    cs = np.empty(len(hits) + 1, dtype=np.int64)
    cs[0] = 0
    np.cumsum(hits, out=cs[1:])
    inter_sorted = cs[bounds[1:]] - cs[bounds[:-1]]  # exact (integer)
    inter = np.empty(n, dtype=np.int64)
    inter[order] = inter_sorted
    ra = np.asarray(rows_a, dtype=np.int64)
    la = (off_a[ra + 1] - off_a[ra]).astype(np.int64)
    lb = np.empty(n, dtype=np.int64)
    lb[order] = lb_sorted
    union = la + lb - inter
    return np.divide(
        inter.astype(np.float64),
        union,
        out=np.zeros(n, dtype=np.float64),
        where=union > 0,
    )


def pairwise_sparse_dot(
    off_i_a, idx_a, off_w_a, w_a, rows_a,
    off_i_b, idx_b, off_w_b, w_b, rows_b,
) -> np.ndarray:
    """Vectorized sparse dot for n pairs of (sorted-unique index, weight)
    list rows, grouped by LEFT row like pairwise_jaccard. Matched-index
    weight products are summed per pair with np.add.reduceat over the
    contiguous per-pair segments - accumulation runs in ascending index
    order, the same order as the scalar _sparse_cos merge (bit-exact)."""
    n = len(rows_a)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    order, sorted_rows, starts, ends = _left_runs(rows_a)
    rows_b_s = np.asarray(rows_b, dtype=np.int64)[order]
    seg_idx, lb = gather_list_rows(off_i_b, idx_b, rows_b_s)
    seg_w, _ = gather_list_rows(off_w_b, w_b, rows_b_s)
    bounds = np.empty(len(lb) + 1, dtype=np.int64)
    bounds[0] = 0
    np.cumsum(lb, out=bounds[1:])
    prods = np.zeros(len(seg_idx) + 1, dtype=np.float64)  # +1: reduceat pad
    off_i_a = np.asarray(off_i_a)
    off_w_a = np.asarray(off_w_a)
    for s, e, a in zip(starts.tolist(), ends.tolist(), sorted_rows[starts].tolist()):
        A = idx_a[off_i_a[a] : off_i_a[a + 1]]
        lo, hi = bounds[s], bounds[e]
        if len(A) == 0 or lo == hi:
            continue
        seg = seg_idx[lo:hi]
        pos = np.searchsorted(A, seg)
        ok = pos < len(A)
        ok[ok] = A[pos[ok]] == seg[ok]
        if ok.any():
            WA = w_a[off_w_a[a] : off_w_a[a + 1]]
            sub = np.zeros(hi - lo, dtype=np.float64)
            sub[ok] = WA[pos[ok]].astype(np.float64) * seg_w[lo:hi][ok].astype(
                np.float64
            )
            prods[lo:hi] = sub
    # per-pair segment sums: reduceat over contiguous boundaries; each
    # segment sums left-to-right (ascending index) exactly like the
    # scalar merge. Empty segments (reduceat returns the element AT the
    # boundary) are zeroed via the lb mask.
    dots_sorted = np.add.reduceat(prods, np.minimum(bounds[:-1], len(prods) - 1))
    dots_sorted[lb == 0] = 0.0
    dots = np.empty(n, dtype=np.float64)
    dots[order] = dots_sorted
    return dots


def _sparse_cos(i1, w1, i2, w2) -> float:
    """Dot of two sparse vectors with SORTED unique index arrays."""
    if len(i1) == 0 or len(i2) == 0:
        return 0.0
    if len(i1) < len(i2):
        i1, w1, i2, w2 = i2, w2, i1, w1
    idx = np.searchsorted(i1, i2)
    valid = idx < len(i1)
    if not valid.all():
        idx = idx[valid]
        i2 = i2[valid]
        w2 = w2[valid]
    hit = i1[idx] == i2
    if not hit.any():
        return 0.0
    return float(np.dot(w1[idx[hit]].astype(np.float64), w2[hit].astype(np.float64)))


def features_from_indices(
    mentions: pa.Table,
    li: np.ndarray,
    ri: np.ndarray,
    block_size: np.ndarray,
    labels: np.ndarray | None,
    idf: np.ndarray | None = None,
) -> pa.Table:
    """Feature vectors for pairs given as (left, right) row indices into a
    MENTION table — the fused pair-gen+featurize path. Wide per-pair
    payload rows are never materialized (each mention's token/tfidf lists
    are touched in place via zero-copy views); output is ids + floats.
    """
    n = len(li)
    urls = np.asarray(mentions["url"].to_pylist(), dtype=object)
    titles = np.asarray(mentions["title"].to_pylist(), dtype=object)
    paths = np.asarray(mentions["path"].to_pylist(), dtype=object)
    langs = np.asarray(mentions["lang"].to_pylist(), dtype=object)
    ts = np.asarray(mentions["ts_us"].to_numpy(zero_copy_only=False), dtype=np.int64)
    sh64 = np.asarray(
        mentions["simhash"].to_numpy(zero_copy_only=False), dtype=np.uint64
    )
    to, tv = _list_view(mentions["tok_hashes"])
    so, sv = _list_view(mentions["sh_hashes"])
    has_tfidf = "tfidf_pk" in mentions.column_names
    if has_tfidf:
        io_, iv, wv = _unpack_tfidf(
            mentions["tfidf_pk"], mentions["tfidf_norm"], idf
        )

    # string kernels run ONCE per DISTINCT (string_a, string_b) pair via
    # dictionary encoding + np.unique, and each distinct pair goes
    # through the VECTORIZED batch kernels (bit-exact vs the scalar
    # ones) — same-entity pages share identical titles and candidate
    # pairs repeat combinations many times
    jw_title = _dedup_batch_kernel(
        titles, li, ri, lambda A, B: jaro_winkler_batch(A, B)
    )

    def _path_kernels(A, B):
        jw = jaro_winkler_batch(A, B)
        lens = np.maximum(
            np.maximum(
                np.fromiter((len(x) for x in A), np.float64, len(A)),
                np.fromiter((len(x) for x in B), np.float64, len(B)),
            ),
            1.0,
        )
        lev = 1.0 - levenshtein_batch(A, B) / lens
        return np.stack([jw, lev], axis=1)

    path_feats = _dedup_batch_kernel(paths, li, ri, _path_kernels)
    jw_path = path_feats[:, 0]
    lev_path = path_feats[:, 1]

    # set-intersection features for ALL pairs in one vectorized pass
    # (flat gather + lexsort kernels — no per-pair Python)
    jac_tok = pairwise_jaccard(to, tv, li, to, tv, ri)
    jac_sh = pairwise_jaccard(so, sv, li, so, sv, ri)
    cos = (
        pairwise_sparse_dot(io_, iv, io_, wv, li, io_, iv, io_, wv, ri)
        if has_tfidf
        else np.zeros(n)
    )
    same_lang = (langs[li] == langs[ri]).astype(np.float64)

    days = np.abs(ts[li] - ts[ri]) / 86_400_000_000.0
    ts_prox = 1.0 / (1.0 + days)
    sim_sim = (
        1.0 - hamming64_arrays(sh64[li], sh64[ri]) / 64.0 if n else np.zeros(0)
    )
    ambiguity = np.log1p(block_size.astype(np.float64))
    l1 = np.array([len(titles[a]) for a in li], dtype=np.float64)
    l2 = np.array([len(titles[b]) for b in ri], dtype=np.float64)
    len_ratio = np.minimum(l1, l2) / np.maximum(np.maximum(l1, l2), 1.0)

    feats = [
        jw_title, jw_path, lev_path, jac_tok, jac_sh, cos,
        ts_prox, sim_sim, ambiguity, len_ratio, same_lang,
    ]
    cols: dict = {
        "url_1": pa.array(urls[li], pa.string()),
        "url_2": pa.array(urls[ri], pa.string()),
    }
    if labels is not None:
        cols["label"] = pa.array(labels, pa.int8())
    for name, arr in zip(FEATURE_NAMES, feats):
        cols[name] = pa.array(np.asarray(arr, dtype=np.float64), pa.float64())
    return pa.Table.from_pydict(cols)


def empty_features(with_label: bool) -> pa.Table:
    cols: dict = {
        "url_1": pa.array([], pa.string()),
        "url_2": pa.array([], pa.string()),
    }
    if with_label:
        cols["label"] = pa.array([], pa.int8())
    for name in FEATURE_NAMES:
        cols[name] = pa.array([], pa.float64())
    return pa.Table.from_pydict(cols)


def model_from_ref(model_ref):
    """The broadcast GBT, parsed once per worker process: the parsed
    model sits in ``get_broadcast``'s LRU, so map tasks that reuse a
    worker skip the JSON parse and each run's model ref is evicted like
    any other broadcast."""
    from ..functions.gbt import GBTClassifier
    from .mention_prep import get_broadcast

    return get_broadcast(model_ref, GBTClassifier.from_json)


def append_scores(features_table: pa.Table, model) -> pa.Table:
    """Append p(match) to a feature table (vectorized GBT predict)."""
    if features_table.num_rows == 0:
        return features_table.append_column("score", pa.array([], pa.float64()))
    X = np.column_stack(
        [
            features_table[c].to_numpy(zero_copy_only=False)
            for c in FEATURE_NAMES
        ]
    )
    return features_table.append_column(
        "score", pa.array(model.predict_proba(X), pa.float64())
    )


def edges_from_scores(scored_ds, threshold: float = 0.5):
    import pyarrow.compute as pc

    def thresh(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["score"], threshold)).select(["url_1", "url_2"])

    return scored_ds.map_batches(thresh, batch_format="pyarrow")
