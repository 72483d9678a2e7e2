"""Text-analysis operators over the ``documents`` table: token counting,
quality scoring, language-ID heuristic, document fingerprinting.

Analogs of the reference's per-doc text cleaners/extractors (SURVEY.md
M1-M3, M9-M11) generalized to a training-data pipeline. Oracle-checked
ops share exact token semantics with the SQL (space-split of lowered
text); heuristics (lang-ID) are rows-only checks.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import rayutil
from ..rayutil import keyed_join, keyed_repartition, shuffle_partitions

# fixed stopword list mirrored verbatim in the SQL oracle
QUALITY_STOPWORDS = ("the", "a", "of", "and", "to", "in", "is", "on", "for", "with")

# marker tokens per language for the n-gram/keyword lang-ID heuristic
LANG_MARKERS = {
    "en": {"the", "and", "of", "is", "with", "for"},
    "es": {"el", "la", "de", "que", "y", "los"},
    "de": {"der", "die", "das", "und", "ist", "mit"},
    "fr": {"le", "la", "les", "et", "est", "des"},
    "zh": {"的", "是", "了", "在", "和", "有"},
}


def _read_documents(sf_dir: str, columns=None):
    """Documents read: bytes-aware block count (the sketch/groupby ops
    here feed hash exchanges — see ``sources.io.sized_read_blocks``)."""
    from ..sources.io import read_parquet_sized

    return read_parquet_sized(f"{sf_dir}/documents.parquet", columns=columns)


def _split_tokens(t: pa.Table, lower: bool = False):
    """Whitespace-split token lists of the batch's text column as
    (flat values Array, rebased int64 offsets, per-row counts) — the
    Arrow split kernel plus zero-copy offset math, replacing the
    per-row ``(x or "").split(" ")`` loops. Offsets are rebased to the
    values slice so callers can segment-reduce with np.add.reduceat."""
    import pyarrow.compute as pc

    s = pc.coalesce(t["text"], pa.scalar(""))
    if lower:
        s = pc.utf8_lower(s)
    lst = pc.split_pattern(s, " ")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    offs = np.asarray(lst.offsets, dtype=np.int64)
    vals = lst.values.slice(offs[0], offs[-1] - offs[0])
    offs = offs - offs[0]
    return vals, offs, np.diff(offs)


def _segment_sum(hit: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Per-row sums of ``hit`` (len == offs[-1]) over the segments given
    by ``offs`` (len == rows+1, rebased). Empty segments sum to 0."""
    if len(offs) <= 1:
        return np.zeros(0, dtype=np.int64)
    seg = np.add.reduceat(np.append(hit, 0), offs[:-1])
    return np.where(np.diff(offs) == 0, 0, seg)


def _segment_distinct_top(vals, offs: np.ndarray):
    """Per-row (distinct count, max multiplicity) over an Arrow string
    values/offsets segmentation — dictionary-encode the flat values
    once, one sort of (row << 32 | code), run lengths, reduceat per
    row. No per-row Python; the repetition metrics below ride on it."""
    n_rows = len(offs) - 1
    total = int(offs[-1]) if n_rows else 0
    if total == 0:
        z = np.zeros(n_rows, dtype=np.int64)
        return z, z.copy()
    enc = vals.dictionary_encode()
    codes = np.asarray(enc.indices, dtype=np.int64)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offs))
    key = (rows << np.int64(32)) | codes  # codes are int32, rows < 2^31
    ks = np.sort(key)
    bound = np.empty(total, dtype=bool)
    bound[0] = True
    bound[1:] = ks[1:] != ks[:-1]
    run_starts = np.flatnonzero(bound)
    run_counts = np.diff(np.append(run_starts, total))
    run_rows = ks[run_starts] >> np.int64(32)
    distinct = np.bincount(run_rows, minlength=n_rows).astype(np.int64)
    row_bound = np.empty(len(run_rows), dtype=bool)
    row_bound[0] = True
    row_bound[1:] = run_rows[1:] != run_rows[:-1]
    row_starts = np.flatnonzero(row_bound)
    top = np.zeros(n_rows, dtype=np.int64)
    top[run_rows[row_starts]] = np.maximum.reduceat(run_counts, row_starts)
    return distinct, top


def token_count(sf_dir: str):
    """(doc_id, n_tokens): space-split token count (oracle: len(str_split))."""
    import pyarrow.compute as pc

    def f(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(
            pc.split_pattern(pc.coalesce(t["text"], pa.scalar("")), " ")
        )
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "n_tokens": pc.cast(n, pa.int64())}
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


# BPE-ish pre-tokenizer pattern (GPT-2-style classes, RE2-safe so the
# DuckDB oracle's regexp_extract_all matches Python's re exactly:
# no lookahead, no backrefs): letter runs | digit runs | punct runs
BPE_PATTERN = r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]+"


def token_count_bpe(sf_dir: str):
    """(doc_id, n_tokens, n_word, n_num, n_punct, n_tokens_ws): BPE-ish
    regex token counts — the subword-tokenizer-budget estimator of a
    training-data pipeline — plus the whitespace count (token_count's
    kernel, carried here so both variants sit in one driver-certified
    query). Vectorized with Arrow's RE2 match counter
    (count_substring_regex == len(findall) for these non-overlapping run
    patterns)."""
    import pyarrow.compute as pc

    def f(t: pa.Table) -> pa.Table:
        s = pc.coalesce(t["text"], pa.scalar(""))
        total = pc.cast(pc.count_substring_regex(s, BPE_PATTERN), pa.int64())
        w = pc.cast(pc.count_substring_regex(s, r"[A-Za-z]+"), pa.int64())
        d = pc.cast(pc.count_substring_regex(s, r"[0-9]+"), pa.int64())
        ws = pc.cast(
            pc.list_value_length(pc.split_pattern(s, " ")), pa.int64()
        )
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_tokens": total,
                "n_word": w,
                "n_num": d,
                "n_punct": pc.subtract(pc.subtract(total, w), d),
                "n_tokens_ws": ws,
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def quality_score(sf_dir: str):
    """(doc_id, n_tokens, stopword_count, stop_ratio, n_lines,
    dup_line_frac, dup_token_frac, top_token_frac): the reference's
    ratio-style quality flags (SURVEY.md M15 analog) PLUS Gopher-style
    within-document repetition metrics (Rae et al. 2021 §A1.1's
    duplicate-line / duplicate-token / most-frequent-token fractions —
    the standard web-corpus repetition filters), all in one vectorized
    pass (Arrow split + is_in + the dictionary-encode/sort segment
    kernel in _segment_distinct_top). Every ratio is an int/int
    division in float64 -> bit-identical to SQL DOUBLE division."""
    import pyarrow.compute as pc

    sw_arr = pa.array(sorted(QUALITY_STOPWORDS), pa.string())

    def f(t: pa.Table) -> pa.Table:
        vals, offs, n_toks = _split_tokens(t, lower=True)
        hit = (
            pc.is_in(vals, value_set=sw_arr)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n_stop = _segment_sum(hit, offs)
        tok_distinct, tok_top = _segment_distinct_top(vals, offs)
        # line split on the RAW text (repetition of rendered lines, not
        # lowered tokens — the Gopher convention)
        lines = pc.split_pattern(
            pc.coalesce(t["text"], pa.scalar("")), "\n"
        )
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        loffs = np.asarray(lines.offsets, dtype=np.int64)
        lvals = lines.values.slice(loffs[0], loffs[-1] - loffs[0])
        loffs = loffs - loffs[0]
        n_lines = np.diff(loffs)
        line_distinct, _ = _segment_distinct_top(lvals, loffs)
        # split(" ")/split("\n") of "" is [""], so denominators >= 1
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_toks, pa.int64()),
                "stopword_count": pa.array(n_stop, pa.int64()),
                "stop_ratio": pa.array(n_stop / n_toks, pa.float64()),
                "n_lines": pa.array(n_lines, pa.int64()),
                "dup_line_frac": pa.array(
                    (n_lines - line_distinct) / n_lines, pa.float64()
                ),
                "dup_token_frac": pa.array(
                    (n_toks - tok_distinct) / n_toks, pa.float64()
                ),
                "top_token_frac": pa.array(tok_top / n_toks, pa.float64()),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


class LangId:
    """Stateful lang-ID actor: marker sets built once per actor (the T1/T2
    load-once pattern). Scores each language by marker-token hits; ties
    break deterministically by language code."""

    def __init__(self):
        self.langs = sorted(LANG_MARKERS)
        self.marker_arrs = {
            k: pa.array(sorted(set(LANG_MARKERS[k])), pa.string())
            for k in self.langs
        }

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if len(t) == 0:
            return pa.Table.from_pydict(
                {
                    "doc_id": t["doc_id"],
                    "pred_lang": pa.array([], pa.string()),
                    "confidence": pa.array([], pa.float64()),
                }
            )
        vals, offs, n_toks = _split_tokens(t, lower=True)
        # (langs, rows) marker-hit counts; argmax picks the FIRST max,
        # i.e. lang-code-asc tie-break, and max==0 stays "und" — the
        # same comparator the scalar loop used.
        hits = np.stack(
            [
                _segment_sum(
                    pc.is_in(vals, value_set=self.marker_arrs[lang])
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    offs,
                )
                for lang in self.langs
            ]
        )
        best = hits.max(axis=0)
        preds = np.where(
            best > 0,
            np.asarray(self.langs, dtype=object)[np.argmax(hits, axis=0)],
            "und",
        )
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "pred_lang": pa.array(preds.tolist(), pa.string()),
                "confidence": pa.array(best / n_toks, pa.float64()),
            }
        )


def lang_id(sf_dir: str):
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        LangId, batch_format="pyarrow", concurrency=(1, 4)
    )


def _lowered(text) -> list:
    """Text column as Python strings lowered by Arrow's ``utf8_lower``,
    which agrees with DuckDB's ``lower`` ('ΣΑΣ' -> 'σασ', where Python
    gives 'σας'); a null text is ""."""
    return pc.utf8_lower(pc.fill_null(text, "")).to_pylist()


def doc_fingerprint(sf_dir: str):
    """(doc_id, fp): md5 of lowered text — exact content fingerprint
    (oracle: md5(lower(text)))."""

    def f(t: pa.Table) -> pa.Table:
        fps = [
            hashlib.md5(x.encode("utf-8")).hexdigest() for x in _lowered(t["text"])
        ]
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "fp": pa.array(fps, pa.string())}
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def clean_text_docs(sf_dir: str):
    """(doc_id, clean): the reference's clean_abstract normalization
    (database/pubmed_inner_outer_feature.sql:9-21) as a vectorizable op."""
    from ..functions.textkernels import clean_text

    def f(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "clean": pa.array(
                    [clean_text(x) for x in t["text"].to_pylist()], pa.string()
                ),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


# dictionary gazetteer for the entity-tagger actor (T1 NER / T2 geo-cache
# analog: /root/reference/src/eutilities/string_utils.py:118-161)
ENTITY_GAZETTEER = ("spark", "table", "query", "window", "vector", "stream")


class EntityTagger:
    """Stateful tagger actor: gazetteer state built once in __init__ (the
    load-once NER / memoized geo pattern); emits matched entities per doc
    as a sorted csv (oracle-friendly scalar). Fully vectorized: Arrow
    lower/split, one index_in against the gazetteer, a scatter-OR into a
    per-row bitmask, then a precomputed mask -> csv lookup (2^|gaz| rows,
    built once per actor) — no per-row Python in __call__."""

    def __init__(self):
        self.gaz_sorted = sorted(ENTITY_GAZETTEER)
        self.gaz_arr = pa.array(self.gaz_sorted, pa.string())
        n = len(self.gaz_sorted)
        self.mask_csv = np.array(
            [
                ",".join(w for i, w in enumerate(self.gaz_sorted) if m >> i & 1)
                for m in range(1 << n)
            ],
            dtype=object,
        )
        self.mask_n = np.array(
            [bin(m).count("1") for m in range(1 << n)], dtype=np.int64
        )

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern(
            pc.utf8_lower(pc.fill_null(t["text"], "")), " "
        ).combine_chunks()
        offs = np.asarray(toks.offsets, dtype=np.int64)
        # flatten() (not .values) honors list-array slice offsets
        code = np.asarray(
            pc.index_in(toks.flatten(), self.gaz_arr).to_numpy(
                zero_copy_only=False
            ),
            dtype=np.float64,
        )
        rowids = np.repeat(np.arange(t.num_rows, dtype=np.int64), np.diff(offs))
        hit = ~np.isnan(code)
        masks = np.zeros(t.num_rows, dtype=np.int64)
        np.bitwise_or.at(
            masks, rowids[hit], np.int64(1) << code[hit].astype(np.int64)
        )
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "entities": pa.array(self.mask_csv[masks], pa.string()),
                "n_entities": pa.array(self.mask_n[masks], pa.int64()),
            }
        )


def tag_entities(sf_dir: str):
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        EntityTagger, batch_format="pyarrow", concurrency=(1, 4)
    )


def doc_keywords(sf_dir: str, top_k: int = 5):
    """Per-doc top-k keywords by tf-idf (the MAUI keyword-extractor analog
    T3, /root/reference/Dependency-Feature/.../MauiExtractedKeywords.java:7-36),
    fully distributed — no driver-side vocabulary:

        explode (doc_id, token, tf)  [per-batch Counter, one pass]
        -> count per token = document frequencies      [exchange 1]
        -> keyed_join tf-rows x df-table on token       [exchange 2]
        -> keyed_repartition by doc_id, vectorized per-partition
           top-k (pandas sort + groupby.head)           [exchange 3]

    idf = ln((1+N)/(1+df)) + 1, score = tf*idf, tie-break by token —
    bit-identical to the DuckDB window-SQL oracle. Up to
    ``rayutil.DRIVER_BYTES`` of compressed documents the DF table merges
    on the driver and broadcasts instead (no exchange at all).
    Output: (doc_id, keywords csv)."""
    import math

    ds = _read_documents(sf_dir, ["doc_id", "text"])
    n_docs = ds.count()

    def explode(t: pa.Table) -> pa.Table:
        from collections import Counter

        ids, toks, tfs = [], [], []
        for doc_id, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for w, c in Counter((x or "").lower().split(" ")).items():
                ids.append(doc_id)
                toks.append(w)
                tfs.append(c)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "token": pa.array(toks, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    from ..rayutil import sized_groupby_agg
    from ..sources.io import _local_bytes

    tf_ds = ds.map_batches(explode, batch_format="pyarrow")
    n_bytes = _local_bytes(f"{sf_dir}/documents.parquet")

    def topk(t: pa.Table) -> pa.Table:
        """Per-(doc-complete) batch tf-idf top-k. ``t`` must hold every
        token row of each doc it contains and carry a ``df`` column."""
        import pandas as pd

        if t.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "keywords": pa.array([], pa.string()),
                }
            )
        df = t.select(["doc_id", "token", "tf", "df"]).to_pandas()
        df["score"] = df["tf"].to_numpy(np.float64) * (
            np.log((1 + n_docs) / (1 + df["df"].to_numpy(np.float64))) + 1.0
        )
        df = df.sort_values(
            ["doc_id", "score", "token"], ascending=[True, False, True],
            kind="mergesort",
        )
        top = df.groupby("doc_id", sort=False).head(top_k)
        agg = top.groupby("doc_id", sort=False)["token"].agg(",".join)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(agg.index.to_numpy(np.int64), pa.int64()),
                "keywords": pa.array(agg.to_numpy(dtype=object), pa.string()),
            }
        )

    if rayutil.on_driver(n_bytes, rayutil.DRIVER_BYTES):
        # small-corpus path: DF table merges on the driver and BROADCASTS
        # (ray.put once, searchsorted lookup per batch) — no join and no
        # doc_id repartition at all, because explode's output batches are
        # already doc-complete (each doc's rows come from exactly one
        # input batch, contiguous)
        import ray

        dft = sized_groupby_agg(tf_ds, ["token"], [("", "count", "df")], driver=True)
        pdf = dft.to_pandas().sort_values("token").reset_index(drop=True)
        ref = ray.put(
            (
                pdf["token"].to_numpy(dtype=object),
                pdf["df"].to_numpy(dtype=np.int64),
            )
        )

        def attach_df_topk(t: pa.Table) -> pa.Table:
            from ..stages.mention_prep import get_broadcast

            vocab, dfs = get_broadcast(ref)
            toks = t["token"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(vocab, toks)
            return topk(t.append_column("df", pa.array(dfs[idx], pa.int64())))

        return tf_ds.map_batches(
            attach_df_topk, batch_format="pyarrow", batch_size=None
        )

    n = shuffle_partitions()
    dfs = sized_groupby_agg(
        tf_ds, ["token"], [("", "count", "df")], num_partitions=n, driver=False
    )
    return keyed_repartition(keyed_join(tf_ds, dfs, "token", n), ["doc_id"], n).map_batches(
        topk, batch_format="pyarrow", batch_size=None
    )


def doc_rolling_fingerprint(sf_dir: str, window: int = 8):
    """Winnowing-style fingerprint: min rolling hash over token windows
    (Schleimer et al. 2003) — the near-dup fingerprint. Gram hash is
    md5_u64 so the DuckDB oracle (md5_number_upper over the same grams)
    reproduces it exactly. Also emits ``fp`` — the exact whole-document
    md5 fingerprint (doc_fingerprint's kernel, carried here so both
    fingerprint variants sit in one driver-certified query)."""
    from ..functions.hashing import md5_u64_array

    def f(t: pa.Table) -> pa.Table:
        out, fps = [], []
        for lowered in _lowered(t["text"]):
            fps.append(hashlib.md5(lowered.encode("utf-8")).hexdigest())
            toks = lowered.split(" ")
            if len(toks) < window:
                grams = [" ".join(toks)] if toks else []
            else:
                grams = [
                    " ".join(toks[i : i + window])
                    for i in range(len(toks) - window + 1)
                ]
            if grams:
                out.append(f"{int(md5_u64_array(grams).min()):016x}")
            else:
                out.append("0" * 16)
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "rolling_fp": pa.array(out, pa.string()),
                "fp": pa.array(fps, pa.string()),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


# PII patterns — RE2-safe (no lookaround/backrefs) so pyarrow.compute's
# RE2 kernels and DuckDB's RE2 regexp_* agree byte-for-byte
PII_EMAIL_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_PATTERN = r"555-[0-9]{3}-[0-9]{4}"


def redact_pii_batch(texts, email_pat=PII_EMAIL_PATTERN, phone_pat=PII_PHONE_PATTERN):
    """Generic PII scrub kernel: (redacted_text, n_emails, n_phones) for a
    string array — vectorized end-to-end (pyarrow count/replace regex
    kernels, zero Python loops). Counts are taken on the input text;
    emails are masked before phones (patterns are disjoint here, but the
    order is part of the contract)."""
    import pyarrow.compute as pc

    n_emails = pc.cast(pc.count_substring_regex(texts, email_pat), pa.int64())
    n_phones = pc.cast(pc.count_substring_regex(texts, phone_pat), pa.int64())
    red = pc.replace_substring_regex(texts, email_pat, "[EMAIL]")
    red = pc.replace_substring_regex(red, phone_pat, "[PHONE]")
    return red, n_emails, n_phones


def redact_pii(sf_dir: str):
    """(doc_id, n_emails, n_phones, text): PII redaction — the
    training-data scrub pass every LLM corpus pipeline runs before
    tokenization. The synthetic corpus carries no real PII, so the query
    first PLANTS deterministic contact snippets into half the docs (a
    pure function of doc_id, mirrored in the oracle's CTE: selection by
    md5 parity, 1-2 repeats, id-derived phone digits) and then runs the
    generic vectorized `redact_pii_batch` kernel. Single streaming
    map_batches, no shuffle."""
    import pyarrow.compute as pc

    from ..functions.hashing import md5_u64_array

    def plant_and_redact(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).tolist()
        sel = md5_u64_array([str(i) for i in ids]) % np.uint64(2) == 0
        snippets = pa.array(
            [
                (
                    " contact user%d@mail.example.com or 555-%03d-%04d"
                    % (i, i % 1000, i % 10000)
                )
                * (1 + i % 2)
                if s
                else ""
                for i, s in zip(ids, sel.tolist())
            ],
            pa.large_string(),
        )
        text = pc.binary_join_element_wise(
            pc.cast(t["text"], pa.large_string()),
            snippets,
            pa.scalar("", pa.large_string()),
        )
        red, n_emails, n_phones = redact_pii_batch(text)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_emails": n_emails,
                "n_phones": n_phones,
                "text": red,
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        plant_and_redact, batch_format="pyarrow"
    )


def _batch_tokens(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(distinct tokens asc, counts) of a batch's whitespace tokens via
    the vectorized Arrow split kernel (no per-row Python). Matches
    ``(x or "").split(" ")`` row semantics (null/empty -> one "")."""
    import pyarrow.compute as pc

    flat = pc.list_flatten(
        pc.split_pattern(pc.coalesce(t["text"], pa.scalar("")), " ")
    )
    return np.unique(flat.to_numpy(zero_copy_only=False), return_counts=True)


# --- HyperLogLog-style approximate distinct count (Flajolet et al. 2007)
# p=12 -> 4096 registers; md5-derived bucket/rank so the whole sketch is
# bit-reproducible in SQL (md5_number_upper + a generated CASE chain for
# the leading-zero rank). Ranks cap at REG_CAP so the harmonic sum stays
# an EXACT integer at scale 2^REG_CAP (max 4096 * 2^47 = 2^59 < int64):
# float arithmetic happens exactly once, in the final estimate division,
# with identical operation order on both sides.
HLL_P = 12
HLL_M = 1 << HLL_P  # 4096 registers
HLL_REG_CAP = 47
HLL_ALPHA = 0.7213 / (1.0 + 1.079 / HLL_M)


def hll_partial_registers(tokens) -> np.ndarray:
    """uint8[HLL_M] register array for a token batch (max of ranks per
    bucket). Tokens are md5-hashed once per distinct string."""
    from ..functions.hashing import md5_u64_array

    v = md5_u64_array(list(dict.fromkeys(tokens)))
    bucket = (v % np.uint64(HLL_M)).astype(np.int64)
    w = (v >> np.uint64(HLL_P)).astype(np.float64)  # 52 bits: exact in f64
    _, bitlen = np.frexp(w)
    rank = np.where(w > 0, 53 - bitlen, 53)
    reg = np.minimum(rank, HLL_REG_CAP).astype(np.uint8)
    out = np.zeros(HLL_M, dtype=np.uint8)
    np.maximum.at(out, bucket, reg)
    return out


def hll_estimate(n_zero: int, harmonic_scaled: int) -> float:
    """Raw HLL estimate from the integer-scaled harmonic sum — no
    small/large-range corrections (documented; corrections would need a
    libm log whose rounding the SQL engine need not share)."""
    return ((HLL_ALPHA * float(HLL_M) * float(HLL_M)) * float(1 << HLL_REG_CAP)) / float(
        harmonic_scaled
    )


def approx_distinct_tokens(sf_dir: str):
    """(m, n_zero, harmonic_scaled, estimate): approximate distinct
    token count over all document text — the vocabulary-size sketch a
    corpus pipeline runs where COUNT(DISTINCT) would shuffle the full
    token stream. Constant-size state end-to-end: each batch pre-folds
    its tokens into a 4096-register partial (registers merge by max, so
    duplicate tokens across batches are free), the ONE exchange carries
    at most 4096 rows per batch, and the driver reduces 4096 rows."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        uniq, _ = _batch_tokens(t)
        regs = hll_partial_registers(uniq.tolist())
        nz = np.flatnonzero(regs)
        return pa.table(
            {
                "bucket": pa.array(nz.astype(np.int64), pa.int64()),
                "reg": pa.array(regs[nz].astype(np.int64), pa.int64()),
            }
        )

    from ..rayutil import sized_groupby_agg
    from ..sources.io import _local_bytes

    rows = sized_groupby_agg(
        _read_documents(sf_dir, ["text"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        ["bucket"],
        [("reg", "max", "max(reg)")],
        n_bytes=_local_bytes(f"{sf_dir}/documents.parquet"),
    ).to_pandas()
    n_zero = HLL_M - len(rows)
    harmonic = n_zero * (1 << HLL_REG_CAP) + int(
        np.sum(1 << (HLL_REG_CAP - rows["max(reg)"].to_numpy(dtype=np.int64)))
    )
    return pd.DataFrame(
        {
            "m": [HLL_M],
            "n_zero": [n_zero],
            "harmonic_scaled": [harmonic],
            "estimate": [hll_estimate(n_zero, harmonic)],
        }
    )


# --- Count-Min Sketch heavy hitters (Cormode & Muthukrishnan 2005) ----
# d=4 hash rows x w=8192 counters. All state is integer counts, so the
# SQL oracle reproduces the sketch (and therefore the top-k and its
# overestimates) exactly — positions are md5(token || '#' || row) mod w,
# the same construction the Bloom/HLL operators use.
CMS_D = 4
CMS_W = 8192


def cms_positions(tokens: list[str], row: int) -> np.ndarray:
    from ..functions.hashing import md5_u64_array

    return (
        md5_u64_array([f"{t}#{row}" for t in tokens]) % np.uint64(CMS_W)
    ).astype(np.int64)


def heavy_hitters_cms(sf_dir: str, k: int = 20):
    """(token, est_count): top-k most frequent tokens by Count-Min
    estimate — the heavy-hitter pass a corpus pipeline runs where exact
    per-token counts would be a vocabulary-sized shuffle of counters.

    Two constant-state stages: (1) per-batch partial CMS counters
    (occurrence counts, np.add.at), one <= d*w-row exchange summing
    them, driver fold to the d x w array, broadcast via ray.put;
    (2) ONE more scan: per-batch distinct tokens -> vectorized
    min-over-rows estimate -> per-batch top-k -> tiny driver merge
    (batches x k rows, drop_duplicates). No token shuffle is needed:
    a token's estimate is the same global value everywhere it appears,
    and the batch-local comparator (est desc, token asc) equals the
    global one, so any global top-k token makes the local top-k of
    every batch containing it. Ties at the cut break by token asc, so
    the top-k set is deterministic; CMS overestimates (hash collisions)
    are part of the contract and are reproduced by the oracle."""
    import pandas as pd
    import ray

    def partial_counters(t: pa.Table) -> pa.Table:
        uniq, cnt = _batch_tokens(t)
        rows_, poss, cnts = [], [], []
        ul = uniq.tolist()
        for row in range(CMS_D):
            pos = cms_positions(ul, row)
            agg = np.zeros(CMS_W, dtype=np.int64)
            np.add.at(agg, pos, cnt)
            nz = np.flatnonzero(agg)
            rows_.append(np.full(len(nz), row, dtype=np.int64))
            poss.append(nz)
            cnts.append(agg[nz])
        return pa.table(
            {
                "row": pa.array(np.concatenate(rows_), pa.int64()),
                "pos": pa.array(np.concatenate(poss), pa.int64()),
                "cnt": pa.array(np.concatenate(cnts), pa.int64()),
            }
        )

    docs = _read_documents(sf_dir, ["text"])
    from ..rayutil import sized_groupby_agg
    from ..sources.io import _local_bytes

    counters = sized_groupby_agg(
        docs.map_batches(partial_counters, batch_format="pyarrow"),
        ["row", "pos"],
        [("cnt", "sum", "sum(cnt)")],
        n_bytes=_local_bytes(f"{sf_dir}/documents.parquet"),
    ).to_pandas()
    cms = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    cms[
        counters["row"].to_numpy(dtype=np.int64),
        counters["pos"].to_numpy(dtype=np.int64),
    ] = counters["sum(cnt)"].to_numpy(dtype=np.int64)
    ref = ray.put(cms)

    def topk_batch(t: pa.Table) -> pa.Table:
        from ..stages.mention_prep import get_broadcast

        sketch = get_broadcast(ref)
        uniq, _ = _batch_tokens(t)
        ul = uniq.tolist()
        est = np.full(len(ul), np.iinfo(np.int64).max, dtype=np.int64)
        for row in range(CMS_D):
            est = np.minimum(est, sketch[row, cms_positions(ul, row)])
        order = np.lexsort((uniq, -est))[:k]
        return pa.table(
            {
                "token": pa.array([ul[i] for i in order], pa.string()),
                "est_count": pa.array(est[order], pa.int64()),
            }
        )

    candidates = docs.map_batches(
        topk_batch, batch_format="pyarrow"
    ).to_pandas()
    top = (
        candidates.drop_duplicates("token")
        .sort_values(
            ["est_count", "token"], ascending=[False, True], kind="mergesort"
        )
        .head(k)
    )
    return pd.DataFrame(
        {"token": top["token"].to_numpy(), "est_count": top["est_count"].to_numpy()}
    )
