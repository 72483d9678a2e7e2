"""Byte-parity of the vectorized ``normalize_batch`` against the
row-by-row reference construction it replaced (per-doc ``tokenize`` +
``np.unique`` + per-doc simhash/shingle/tfidf — the r4 implementation,
kept here verbatim as the oracle). The flagship's blocking keys, pair
sets and feature values all derive from these payloads, so the
vectorized kernel must be IDENTICAL column-for-column, including
unicode fallback rows, empties and argpartition tie-breaking."""

import numpy as np
import pyarrow as pa
import pytest

import pubmed_and_method_ray.stages.mention_prep as mp
from pubmed_and_method_ray.functions.hashing import hash64_array
from pubmed_and_method_ray.functions.simhash import (
    DEFAULT_BANDS as N_BANDS,
    shingle_hashes_from_token_hashes,
    simhash_bands,
    simhash_from_hashes,
)
from pubmed_and_method_ray.functions.textkernels import tokenize
from pubmed_and_method_ray.functions.tfidf import N_FEATURES, ngram_indices
from pubmed_and_method_ray.stages.mention_prep import TFIDF_TOP_K, _list_array


def _normalize_batch_reference(batch: pa.Table, idf=None) -> pa.Table:
    """The pre-vectorization row-by-row implementation (oracle)."""
    texts = batch["text_extracted"].to_pylist()
    doc_toks = [tokenize(t) for t in texts]
    flat = pa.array(
        [w for toks in doc_toks for w in toks], pa.string()
    ).dictionary_encode()
    dict_hashes = (
        hash64_array(flat.dictionary.to_pylist(), seed=0x70)
        if len(flat)
        else np.empty(0, np.uint64)
    )
    flat_th = (
        dict_hashes[np.asarray(flat.indices)] if len(flat) else np.empty(0, np.uint64)
    )
    doc_off = np.concatenate([[0], np.cumsum([len(t) for t in doc_toks])]).astype(
        np.int64
    )
    tok_hashes, sh_hashes, simhashes, bands = [], [], [], []
    tfidf_pk, tfidf_norm = [], []
    for i, t in enumerate(texts):
        th = flat_th[doc_off[i] : doc_off[i + 1]]
        tok_hashes.append(np.unique((th >> np.uint64(32)).astype(np.uint32)))
        sh_hashes.append(
            np.unique(
                (shingle_hashes_from_token_hashes(th, 3) >> np.uint64(32)).astype(
                    np.uint32
                )
            )
        )
        s = simhash_from_hashes(th)
        simhashes.append(s)
        bands.append(simhash_bands(s, N_BANDS))
        if idf is not None:
            idx = ngram_indices(t or "")
            if len(idx):
                uniq, counts = np.unique(idx, return_counts=True)
                counts = np.minimum(counts, 0xFFFF)  # tf saturates at 16 bits
                w = counts.astype(np.float32) * idf[uniq]
                if len(uniq) > TFIDF_TOP_K:
                    keep = np.argpartition(-w, TFIDF_TOP_K)[:TFIDF_TOP_K]
                    keep.sort()
                    uniq, w, counts = uniq[keep], w[keep], counts[keep]
                norm = float(np.sqrt((w * w).sum()))
                tfidf_pk.append(
                    uniq.astype(np.uint32)
                    | (counts.astype(np.uint32) << np.uint32(16))
                )
                tfidf_norm.append(np.float32(norm))
            else:
                tfidf_pk.append(np.empty(0, np.uint32))
                tfidf_norm.append(np.float32(0.0))
    ts = batch["warc_ts"].cast(pa.int64())
    drop = [c for c in ("text_extracted", "text", "warc_ts") if c in batch.column_names]
    out = (
        batch.drop_columns(drop)
        .append_column("ts_us", ts)
        .append_column("tok_hashes", _list_array(tok_hashes, pa.uint32()))
        .append_column("sh_hashes", _list_array(sh_hashes, pa.uint32()))
        .append_column("simhash", pa.array(simhashes, pa.uint64()))
        .append_column("bands", pa.array(bands, pa.list_(pa.uint64(), N_BANDS)))
    )
    if idf is not None:
        out = out.append_column(
            "tfidf_pk", _list_array(tfidf_pk, pa.uint32())
        ).append_column(
            "tfidf_norm", pa.array(np.array(tfidf_norm, np.float32), pa.float32())
        )
    return out


TEXTS = [
    "Hello, World_9! This is a test-case with MANY tokens and 123 digits.",
    "",
    "café Déjà vu — unicode Straße İstanbul 中文 words",
    None,
    "--x--",
    "one",
    "two tokens",
    "a b c d e f g a b c a",
    " ".join(f"tok{i % 37}_x" for i in range(400)),
    "Ünïcødé mixed ASCII tail here 42",
]


def _batch(texts):
    rng = np.random.default_rng(7)
    n = len(texts)
    return pa.table(
        {
            "url": pa.array([f"u{i}" for i in range(n)], pa.string()),
            "text_extracted": pa.array(texts, pa.large_string()),
            "warc_ts": pa.array(
                rng.integers(1_500_000_000_000_000, 1_700_000_000_000_000, n),
                pa.timestamp("us"),
            ),
            "host": pa.array(["h"] * n, pa.string()),
        }
    )


def _assert_identical(got: pa.Table, want: pa.Table):
    assert got.schema.names == want.schema.names
    for name in want.schema.names:
        assert got[name].combine_chunks().equals(
            want[name].combine_chunks()
        ), f"column {name} differs"


class TestNormalizeBatchParity:
    @pytest.fixture()
    def no_ray_broadcast(self, monkeypatch):
        monkeypatch.setattr(mp, "get_broadcast", lambda r: r)

    def test_mixed_unicode_no_idf(self, no_ray_broadcast):
        b = _batch(TEXTS)
        _assert_identical(mp.normalize_batch(b), _normalize_batch_reference(b))

    def test_mixed_unicode_with_idf(self, no_ray_broadcast):
        idf = np.random.default_rng(3).random(N_FEATURES).astype(np.float32) + 0.5
        texts = [t or "" for t in TEXTS]  # ngram oracle needs strings
        b = _batch(texts)
        _assert_identical(
            mp.normalize_batch(b, idf), _normalize_batch_reference(b, idf)
        )

    def test_all_ascii_fast_path(self, no_ray_broadcast):
        idf = np.random.default_rng(4).random(N_FEATURES).astype(np.float32) + 0.5
        texts = ["" if t is None else (t if t.isascii() else "ascii sub") for t in TEXTS]
        b = _batch(texts)
        _assert_identical(
            mp.normalize_batch(b, idf), _normalize_batch_reference(b, idf)
        )

    def test_all_unicode_fallback(self, no_ray_broadcast):
        texts = ["中文 测试 words", "é è ê", "Straße über"]
        b = _batch(texts)
        _assert_identical(mp.normalize_batch(b), _normalize_batch_reference(b))

    def test_corpus_text(self, no_ray_broadcast):
        import pyarrow.parquet as pq

        t = pq.read_table(
            "/root/testdata/sf0.001/documents.parquet", columns=["text"]
        )
        texts = t["text"].to_pylist()
        idf = np.random.default_rng(5).random(N_FEATURES).astype(np.float32) + 0.5
        b = _batch(texts)
        _assert_identical(
            mp.normalize_batch(b, idf), _normalize_batch_reference(b, idf)
        )


class TestBroadcastCache:
    def test_lru_bound_and_refetch(self, monkeypatch):
        """The per-worker broadcast cache is LRU-bounded: iterative
        loops that mint a new ref per round (CC frontier broadcast)
        must not pin every past round's table for the job lifetime.
        Eviction is transparent — a re-request just re-fetches."""
        import ray

        class FakeRef:
            def __init__(self, k):
                self._k = f"ref{k:04d}"

            def hex(self):
                return self._k

        fetches = []

        def fake_get(ref):
            fetches.append(ref.hex())
            return ref.hex().upper()

        monkeypatch.setattr(ray, "get", fake_get)
        mp._REF_CACHE.clear()
        refs = [FakeRef(i) for i in range(mp._REF_CACHE_MAX + 3)]
        for r in refs:
            assert mp.get_broadcast(r) == r.hex().upper()
        assert len(mp._REF_CACHE) == mp._REF_CACHE_MAX
        # oldest evicted, newest retained without a second fetch
        n = len(fetches)
        assert mp.get_broadcast(refs[-1]) == refs[-1].hex().upper()
        assert len(fetches) == n
        # evicted ref transparently re-fetches
        assert mp.get_broadcast(refs[0]) == refs[0].hex().upper()
        assert len(fetches) == n + 1
        mp._REF_CACHE.clear()

    def test_parsed_models_share_the_bound(self, monkeypatch):
        """Each pipeline run broadcasts its model under a new ref: the
        parsed GBTs a worker keeps are bounded by the same LRU, and an
        evicted model parses again on its next use."""
        import json

        import ray

        from pubmed_and_method_ray.stages.features import model_from_ref

        class FakeRef:
            def __init__(self, k):
                self.k = k

            def hex(self):
                return f"model{self.k:04d}"

        fetches = []

        def fake_get(ref):
            fetches.append(ref.k)
            return json.dumps(
                {"base_score": float(ref.k), "learning_rate": 0.2, "trees": []}
            )

        monkeypatch.setattr(ray, "get", fake_get)
        mp._REF_CACHE.clear()
        refs = [FakeRef(i) for i in range(mp._REF_CACHE_MAX + 3)]
        for r in refs:
            assert model_from_ref(r).base_score == r.k
        assert len(mp._REF_CACHE) == mp._REF_CACHE_MAX
        assert model_from_ref(refs[-1]) is model_from_ref(refs[-1])
        assert fetches == [r.k for r in refs]
        assert model_from_ref(refs[0]).base_score == 0
        assert fetches[-1] == 0 and len(fetches) == len(refs) + 1
        mp._REF_CACHE.clear()


class TestPackedTfidfTransport:
    """tfidf ships as ONE uint32 list (idx | tf<<16) + a float32 norm;
    features._unpack_tfidf must rebuild the exact float32 weights the
    two-column transport used to carry (same ops, same operand order)."""

    def _mentions(self, idf, texts):
        mp_get = mp.get_broadcast
        mp.get_broadcast = lambda r: r
        try:
            return mp.normalize_batch(_batch(texts), idf)
        finally:
            mp.get_broadcast = mp_get

    def test_unpack_bit_exact_vs_legacy_weights(self):
        from pubmed_and_method_ray.functions.tfidf import ngram_indices
        from pubmed_and_method_ray.stages.features import _unpack_tfidf

        rng = np.random.default_rng(11)
        idf = (rng.random(N_FEATURES) * 4).astype(np.float32)
        texts = TEXTS + ["q" * 70_000]  # last doc saturates tf at 2^16-1
        out = self._mentions(idf, texts)
        off = np.asarray(out["tfidf_pk"].combine_chunks().offsets)
        o2, iv, wv = _unpack_tfidf(out["tfidf_pk"], out["tfidf_norm"], idf)
        assert np.array_equal(off, o2)
        saturated = False
        for i, t in enumerate(texts):
            idx = ngram_indices(t or "")
            if len(idx):
                uniq, counts = np.unique(idx, return_counts=True)
                saturated |= bool((counts > 0xFFFF).any())
                counts = np.minimum(counts, 0xFFFF)
                w = counts.astype(np.float32) * idf[uniq]
                if len(uniq) > TFIDF_TOP_K:
                    keep = np.argpartition(-w, TFIDF_TOP_K)[:TFIDF_TOP_K]
                    keep.sort()
                    uniq, w = uniq[keep], w[keep]
                norm = float(np.sqrt((w * w).sum()))
                if norm > 0:
                    w = w / norm
            else:
                uniq = np.empty(0, np.uint32)
                w = np.empty(0, np.float32)
            s, e = off[i], off[i + 1]
            assert np.array_equal(iv[s:e], uniq.astype(np.uint32))
            # bit-for-bit: compare the raw float32 words, not approx
            assert np.array_equal(
                wv[s:e].view(np.uint32), w.astype(np.float32).view(np.uint32)
            ), f"weights not bit-exact for doc {i}"
        assert saturated, "test corpus must exercise the tf saturation path"

    def test_unpack_requires_idf(self):
        import pytest as _pytest

        from pubmed_and_method_ray.stages.features import _unpack_tfidf

        idf = np.ones(N_FEATURES, np.float32)
        out = self._mentions(idf, ["hello world"])
        with _pytest.raises(ValueError, match="idf"):
            _unpack_tfidf(out["tfidf_pk"], out["tfidf_norm"], None)
