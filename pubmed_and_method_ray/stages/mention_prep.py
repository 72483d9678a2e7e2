"""Mention preparation stages: HTML extraction + normalization.

Maps of SURVEY.md §2.2 (M1-M11) onto the web-page mention model: the
deterministic extractor (S6 analog), host/url normalization (M7 analog),
tokenization (M1), shingling and the SimHash blocking signature (D5).

Stages are plain map_batches FUNCTIONS (tasks reuse Ray's prestarted
worker pool — no actor-pool spin-up latency); the "stateful" part (the
fitted IDF vector, the reference's load-once tagger analog at
/root/reference/src/eutilities/string_utils.py:119-121) is a broadcast
``ray.put`` ref fetched zero-copy from plasma and cached per worker
process.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.extract import extract_batch, normalize_host, url_path
from ..functions.simhash import DEFAULT_BANDS as N_BANDS
from ..functions.simhash import simhash_from_hashes_segmented
from ..functions.textkernels import tokenize
from ..functions.tfidf import N_FEATURES
from ..functions.hashing import hash64_array, splitmix64


def extract_stage(batch: pa.Table) -> pa.Table:
    """html(binary) -> text_extracted/title/host/path columns.

    The byte-identical invariant stage (input_hint): pure function of the
    html bytes, verified against the frozen oracle text per url. Text and
    title run through the RE2 batch kernel (functions/extract.py
    extract_batch — ASCII entity-free rows vectorized, scalar Python
    fallback otherwise, byte-identical by construction)."""
    urls = batch["url"].to_pylist()
    texts, titles = extract_batch(batch["html"])
    hosts = [normalize_host(u) for u in urls]
    paths = [url_path(u) for u in urls]
    return (
        batch.drop_columns(["html"])
        .append_column("text_extracted", pa.array(texts, pa.large_string()))
        .append_column("title", pa.array(titles, pa.string()))
        .append_column("host", pa.array(hosts, pa.string()))
        .append_column("path", pa.array(paths, pa.string()))
    )


_REF_CACHE: "OrderedDict" = __import__("collections").OrderedDict()
_REF_CACHE_MAX = 8  # distinct broadcasts alive per worker at once: model +
# idf + skew + a few CC frontier rounds. Iterative loops (the CC
# frontier broadcast mints a NEW ref every round) would otherwise pin
# every past round's table in each worker's heap for the job lifetime.


def get_broadcast(ref, decode=None):
    """Fetch a ray.put broadcast once per worker process (numpy payloads
    come back zero-copy from plasma; the cache skips repeat deserializes
    for dict payloads). LRU-bounded so iterative per-round broadcasts
    don't accumulate. ``decode`` maps the payload to what the cache
    keeps (the parsed GBT for a model's JSON), so decoded values share
    the same bound. A raw ndarray passes through unchanged (tests and
    direct in-process callers hand the payload itself)."""
    if ref is None:
        return None
    if isinstance(ref, np.ndarray):
        return ref
    key = (ref.hex() if hasattr(ref, "hex") else str(ref), decode)
    if key not in _REF_CACHE:
        import ray

        payload = ray.get(ref)
        _REF_CACHE[key] = payload if decode is None else decode(payload)
        if len(_REF_CACHE) > _REF_CACHE_MAX:
            _REF_CACHE.popitem(last=False)
    else:
        _REF_CACHE.move_to_end(key)
    return _REF_CACHE[key]


def _list_array(arrs: list[np.ndarray], pa_type) -> pa.ListArray:
    """Build a ListArray from per-row numpy arrays without tolist()."""
    lengths = np.fromiter((len(a) for a in arrs), dtype=np.int64, count=len(arrs))
    offsets = np.zeros(len(arrs) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    if offsets[-1] > 0:
        values = np.concatenate(arrs)
        va = pa.array(values, pa_type)
    else:
        va = pa.array([], pa_type)
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), va)


TFIDF_TOP_K = 128  # keep the K heaviest tf-idf components per mention

_SHINGLE_K = 3
_SHINGLE_SEED = 0x53  # shingle_hashes_from_token_hashes' mixing seed
_NGRAM_N = 3
_NGRAM_SEED = 0xF1  # tfidf.ngram_indices' mixing seed


def _flat_tokens(txt: pa.Array):
    """(flat token values Array, int64 doc offsets, perm or None) —
    byte-identical to ``[tokenize(t) for t in texts]`` (``\\w+`` findall
    of the lowered text).

    ASCII rows take the all-Arrow path: ``ascii_lower`` + one RE2 split
    on ``[^a-z0-9_]+`` per batch — on ASCII this is exactly Python's
    ``\\w+`` (both reduce to maximal [a-z0-9_] runs after lowering).
    Rows with non-ASCII bytes keep the Python regex per row (RE2's
    ``\\w`` is ASCII-only; Python's is Unicode-aware), and the batch is
    PERMUTED ascii-first so the Arrow flat values never interleave with
    the fallback's — callers un-permute their per-doc outputs with the
    returned ``perm``."""
    txt = txt.combine_chunks() if isinstance(txt, pa.ChunkedArray) else txt
    txt = pc.fill_null(txt, "")
    n_docs = len(txt)
    is_ascii = np.asarray(pc.string_is_ascii(txt))
    perm = None
    if not is_ascii.all():
        perm = np.concatenate(
            [np.flatnonzero(is_ascii), np.flatnonzero(~is_ascii)]
        ).astype(np.int64)
        txt = txt.take(pa.array(perm, pa.int64()))
    n_a = int(is_ascii.sum())
    a_txt = txt.slice(0, n_a) if perm is not None else txt
    sp = pc.split_pattern_regex(pc.ascii_lower(a_txt), "[^a-z0-9_]+")
    sp = sp.combine_chunks() if isinstance(sp, pa.ChunkedArray) else sp
    l_offs = np.asarray(sp.offsets, dtype=np.int64)
    flat = sp.values.slice(l_offs[0], l_offs[-1] - l_offs[0])
    l_offs = l_offs - l_offs[0]
    # the split emits "" at leading/trailing/empty positions — drop them
    nonempty = np.asarray(pc.greater(pc.binary_length(flat), 0))
    cnz = np.concatenate([[0], np.cumsum(nonempty)]).astype(np.int64)
    counts = np.zeros(n_docs, dtype=np.int64)
    counts[: len(l_offs) - 1] = cnz[l_offs[1:]] - cnz[l_offs[:-1]]
    flat = flat.filter(pa.array(nonempty))
    flat = flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
    if perm is not None:
        o_lists = [tokenize(s) for s in txt.slice(n_a).to_pylist()]
        counts[n_a:] = [len(lst) for lst in o_lists]
        o_flat = pa.array([w for lst in o_lists for w in lst], type=flat.type)
        flat = pa.concat_arrays([flat, o_flat])
    offs = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return flat, offs, perm


def _seg_unique32(h: np.ndarray, doc_of: np.ndarray, n_docs: int):
    """Per-doc sorted-unique high-32 bits of uint64 hashes -> (flat
    uint32 values, per-doc lengths): ``np.unique((h >> 32).u32)`` per
    doc, in ONE global sort of (doc, value) keys."""
    h32 = (h >> np.uint64(32)).astype(np.uint64)
    key = (doc_of.astype(np.uint64) << np.uint64(32)) | h32
    ks = np.sort(key)
    keep = np.empty(len(ks), dtype=bool)
    if len(ks):
        keep[0] = True
        keep[1:] = ks[1:] != ks[:-1]
    ku = ks[keep]
    vals = (ku & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    lens = np.bincount((ku >> np.uint64(32)).astype(np.int64), minlength=n_docs)
    return vals, lens


def _masked_gram_fold(vals: np.ndarray, offs: np.ndarray, k: int, seed: int):
    """Flat k-gram splitmix64-fold hashes over per-doc value sequences:
    docs with 0 < n < k fold all n values into ONE gram; n == 0 emits
    none. Matches ``shingle_hashes_from_token_hashes`` (token shingles)
    and ``tfidf.ngram_indices`` (char ngrams, pre-mod) exactly. Output
    order is NOT doc-grouped (full grams first, then short-doc fold
    grams) — callers sort by the returned doc ids anyway.

    Full grams fold CONTIGUOUS slice shifts of the flat value array (no
    gathers — a per-start fancy-index version measured ~3x slower),
    then a boolean mask keeps only starts whose window stays inside one
    doc."""
    n = np.diff(offs)
    n_docs = len(n)
    m = len(vals) - k + 1
    if m > 0:
        h_all = splitmix64(vals[:m].astype(np.uint64, copy=False) ^ np.uint64(seed))
        for j in range(1, k):
            h_all = splitmix64(h_all ^ vals[j : m + j])
        full = np.maximum(n - (k - 1), 0)
        marks = np.zeros(m + 1, dtype=np.int32)
        nz = full > 0
        np.add.at(marks, offs[:-1][nz], 1)
        np.add.at(marks, (offs[:-1] + full)[nz], -1)
        mask = np.cumsum(marks[:-1]) > 0
        h_full = h_all[mask]
        doc_full = np.repeat(np.arange(n_docs, dtype=np.int64), full)
    else:
        full = np.zeros(n_docs, dtype=np.int64)
        h_full = np.empty(0, np.uint64)
        doc_full = np.empty(0, np.int64)
    shorts = np.flatnonzero((n > 0) & (n < k))
    if len(shorts):
        sh_n = n[shorts]
        h_s = splitmix64(vals[offs[shorts]].astype(np.uint64) ^ np.uint64(seed))
        guard = len(vals) - 1
        for j in range(1, k - 1):
            idx = offs[shorts] + j
            valid = j < sh_n
            nxt = splitmix64(h_s ^ vals[np.minimum(idx, guard)])
            h_s = np.where(valid, nxt, h_s)
        return np.concatenate([h_full, h_s]), np.concatenate(
            [doc_full, shorts.astype(np.int64)]
        )
    return h_full, doc_full


def _string_bytes(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(uint8 byte values, int64 offsets) view of a string array's
    utf-8 data buffer — zero-copy."""
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    bufs = arr.buffers()
    width = np.int64 if arr.type in (pa.large_string(), pa.large_utf8()) else np.int32
    boffs = np.frombuffer(bufs[1], dtype=width)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    if bufs[2] is None or len(bufs[2]) == 0:
        return np.empty(0, np.uint8), boffs - boffs[0]
    return np.frombuffer(bufs[2], dtype=np.uint8)[boffs[0] : boffs[-1]], boffs - boffs[0]


def normalize_batch(batch: pa.Table, idf_ref=None) -> pa.Table:
    """Emit per-mention similarity payloads: token hashes, 3-shingle
    hashes, simhash + band values, sparse tf-idf vector, µs timestamp.

    Payload budget matters — every byte here is replicated N_BANDS times
    through the pair-generation exchange: token/shingle sets are 32-bit
    hashes (per-doc collision odds ~n²/2³², immaterial for jaccard), the
    tf-idf vector keeps its top-K components (l2-renormalized), and the
    raw text/timestamp columns are dropped.

    Vectorized end-to-end (the per-doc tokenize/np.unique loops were the
    flagship pipeline's residual constant factor — measured 3.3x faster
    on corpus text): one Arrow regex split per batch, blake2b once per
    DISTINCT token (pages of one entity are near-duplicates, so the
    distinct set is ~an order of magnitude smaller than the stream),
    global-sort segment uniques, contiguous-slice gram folds, segmented
    simhash; only the tf-idf top-K selection stays per-doc (argpartition
    tie-breaking is part of the byte-parity contract). Byte-identical to
    the reference row-by-row construction — tests/test_mention_prep.py
    asserts column equality against it."""
    idf = get_broadcast(idf_ref)
    if idf is not None:
        # float32 ALWAYS: the packed transport's consumers recompute
        # w = tf*idf[idx]/norm in float32 (features._unpack_tfidf), so
        # the producer must select top-k and derive norms in the same
        # precision — a float64 idf here would break the bit-exact
        # weight contract in the last ulp
        idf = np.asarray(idf, dtype=np.float32)
    txt = batch["text_extracted"]
    flat, offs, perm = _flat_tokens(txt)
    n_docs = len(offs) - 1
    n_tok = np.diff(offs)

    enc = flat.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    if len(enc):
        # blake2b once per DISTINCT token. NOT fnv64_arrow: token hashes
        # feed the simhash whose band agreement drives blocking RECALL —
        # swapping the hash function flips borderline band collisions
        # (measured: 2 of 1012 fixture pages lost their gold cluster
        # under FNV), and the frozen fixtures/model were validated under
        # blake2b. Host keys (pure equality semantics) use the fast hash.
        dict_hashes = hash64_array(enc.dictionary.to_pylist(), seed=0x70)
        th = dict_hashes[np.asarray(enc.indices, dtype=np.int64)].astype(np.uint64)
    else:
        th = np.empty(0, np.uint64)

    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_tok)
    tok_vals, tok_lens = _seg_unique32(th, doc_of, n_docs)
    sh_all, sh_doc = _masked_gram_fold(th, offs, _SHINGLE_K, _SHINGLE_SEED)
    sh_vals, sh_lens = _seg_unique32(sh_all, sh_doc, n_docs)

    simhashes = simhash_from_hashes_segmented(th, offs)
    from ..functions.simhash import _BAND_WIDTHS, SIMHASH_BITS

    widths = _BAND_WIDTHS.get(N_BANDS, [SIMHASH_BITS // N_BANDS] * N_BANDS)
    bm = np.empty((n_docs, len(widths)), dtype=np.uint64)
    boff = 0
    for b_i, w in enumerate(widths):
        bm[:, b_i] = (simhashes >> np.uint64(boff)) & np.uint64((1 << w) - 1)
        boff += w

    if idf is not None:
        txt_a = txt.combine_chunks() if isinstance(txt, pa.ChunkedArray) else txt
        txt_a = pc.fill_null(txt_a, "")
        if perm is not None:
            txt_a = txt_a.take(pa.array(perm, pa.int64()))
        n_ascii = n_docs if perm is None else int(
            np.asarray(pc.string_is_ascii(txt_a)).sum()
        )
        # char-ngram byte stream: Arrow lower for the ascii prefix
        # (identical to str.lower there), Python lower for the
        # non-ascii tail (utf8proc vs str.lower edge cases)
        b_flat, b_offs = _string_bytes(pc.utf8_lower(txt_a.slice(0, n_ascii)))
        if n_ascii < n_docs:
            extra = [
                np.frombuffer(s.lower().encode("utf-8"), dtype=np.uint8)
                for s in txt_a.slice(n_ascii).to_pylist()
            ]
            base = b_offs[-1]
            lens = np.array([len(e) for e in extra], dtype=np.int64)
            b_flat = np.concatenate([b_flat] + extra)
            b_offs = np.concatenate([b_offs, base + np.cumsum(lens)])
        g_all, g_doc = _masked_gram_fold(b_flat, b_offs, _NGRAM_N, _NGRAM_SEED)
        # per-doc unique + multiplicity in one global sort of
        # doc << 16 | idx (idx < N_FEATURES = 2^16)
        key = (g_doc.astype(np.uint64) << np.uint64(16)) | (g_all % np.uint64(N_FEATURES))
        ks = np.sort(key)
        bound = np.empty(len(ks), dtype=bool)
        if len(ks):
            bound[0] = True
            bound[1:] = ks[1:] != ks[:-1]
        run_starts = np.flatnonzero(bound)
        run_counts = np.diff(np.concatenate([run_starts, [len(ks)]]))
        ku = ks[bound]
        u_doc = (ku >> np.uint64(16)).astype(np.int64)
        u_idx32 = (ku & np.uint64(0xFFFF)).astype(np.uint32)
        u_lens = np.bincount(u_doc, minlength=n_docs)
        u_offs = np.concatenate([[0], np.cumsum(u_lens)]).astype(np.int64)
        # tf saturates at 2^16-1 so the count rides in tfidf_pk's upper
        # 16 bits (idx < N_FEATURES = 2^16 fills the lower 16): mentions
        # ship ONE uint32 list + a float32 norm instead of idx + float
        # weights (~26% of the pair-exchange bytes), and consumers
        # recompute w = tf*idf[idx]/norm bit-exactly from the broadcast
        # idf (features._unpack_tfidf — same float32 ops, same order).
        run_counts = np.minimum(run_counts, 0xFFFF)
        w_all = run_counts.astype(np.float32) * idf[u_idx32.astype(np.int64)]
        tfidf_pk: list[np.ndarray] = []
        tfidf_norm = np.zeros(n_docs, dtype=np.float32)
        empty_u = np.empty(0, np.uint32)
        for i in range(n_docs):
            s, e = u_offs[i], u_offs[i + 1]
            if s == e:
                tfidf_pk.append(empty_u)
                continue
            uniq = u_idx32[s:e]
            w = w_all[s:e]
            cnt = run_counts[s:e]
            if len(uniq) > TFIDF_TOP_K:
                keep = np.argpartition(-w, TFIDF_TOP_K)[:TFIDF_TOP_K]
                keep.sort()  # back to ascending index order
                uniq, w, cnt = uniq[keep], w[keep], cnt[keep]
            tfidf_norm[i] = np.float32(float(np.sqrt((w * w).sum())))
            tfidf_pk.append(uniq | (cnt.astype(np.uint32) << np.uint32(16)))

    def _offs_list(lens: np.ndarray, vals: np.ndarray, typ) -> pa.ListArray:
        o = np.zeros(n_docs + 1, dtype=np.int32)
        np.cumsum(lens, out=o[1:])
        return pa.ListArray.from_arrays(
            pa.array(o, pa.int32()), pa.array(vals, typ)
        )

    tok_arr = _offs_list(tok_lens, tok_vals, pa.uint32())
    sh_arr = _offs_list(sh_lens, sh_vals, pa.uint32())
    sim_arr = pa.array(simhashes, pa.uint64())
    band_arr = pa.FixedSizeListArray.from_arrays(
        pa.array(bm.reshape(-1), pa.uint64()), N_BANDS
    ).cast(pa.list_(pa.uint64(), N_BANDS))
    if idf is not None:
        ti_arr = _list_array(tfidf_pk, pa.uint32())
        tn_arr = pa.array(tfidf_norm, pa.float32())
    if perm is not None:
        inv = np.empty(n_docs, dtype=np.int64)
        inv[perm] = np.arange(n_docs, dtype=np.int64)
        take = pa.array(inv, pa.int64())
        tok_arr = tok_arr.take(take)
        sh_arr = sh_arr.take(take)
        sim_arr = sim_arr.take(take)
        band_arr = band_arr.take(take)
        if idf is not None:
            ti_arr = ti_arr.take(take)
            tn_arr = tn_arr.take(take)

    ts = batch["warc_ts"].cast(pa.int64())
    drop = [
        c for c in ("text_extracted", "text", "warc_ts") if c in batch.column_names
    ]
    out = (
        batch.drop_columns(drop)
        .append_column("ts_us", ts)
        .append_column("tok_hashes", tok_arr)
        .append_column("sh_hashes", sh_arr)
        .append_column("simhash", sim_arr)
        .append_column("bands", band_arr)
    )
    if idf is not None:
        out = out.append_column("tfidf_pk", ti_arr).append_column(
            "tfidf_norm", tn_arr
        )
    return out


def fit_idf(ds, sample_mod: int = 1):
    """Fit the hashed-ngram IDF table: per-batch partial DF vectors (a
    mergeable sketch — SURVEY.md §4 pre-aggregation rule), summed on the
    driver. ``sample_mod`` > 1 fits on a deterministic hash-sample of the
    corpus (the 100-TB path: idf from a 1/mod sample is statistically
    identical and keeps the reduce tiny).
    Returns (idf float32[N_FEATURES], n_docs_sampled)."""
    from ..functions.tfidf import N_FEATURES, idf_from_df, partial_df
    from ..functions.hashing import stable_hash64

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text_extracted"].to_pylist()
        if sample_mod > 1:
            urls = batch["url"].to_pylist()
            texts = [
                t
                for t, u in zip(texts, urls)
                if stable_hash64(u, seed=0xDF) % sample_mod == 0
            ]
        df = partial_df(texts)
        return pa.Table.from_pydict(
            {
                "df": pa.array([df.astype(np.int64).tolist()], pa.list_(pa.int64(), N_FEATURES)),
                "n": pa.array([len(texts)], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=1024)
    total_df = np.zeros(N_FEATURES, dtype=np.int64)
    n_docs = 0
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=64):
        arr = np.asarray(b["df"].to_pylist(), dtype=np.int64)
        total_df += arr.sum(axis=0)
        n_docs += int(np.asarray(b["n"]).sum())
    return idf_from_df(total_df, max(n_docs, 1)), n_docs
