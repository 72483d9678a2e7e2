"""Seeded inputs for the benchmark.

The documents table has the shape of the repo's ``documents.parquet``
test tables (doc_id, text, lang, source, n_chars): texts of 10-100 words
drawn from the same 31-word vocabulary, the same language mix, and 5% of
the documents planted as exact copies of another document with `` dup``
appended. Pages come from ``sources.pages.pages_from_documents_batch``
after the doc_id namespace is shifted by the seed, so the seed changes
both the texts and the entity/host assignment of every page.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream "
    "table the value vector window"
).split()
LANGS = ["en", "zh", "es", "fr", "de"]
LANG_P = [0.41, 0.15, 0.15, 0.15, 0.14]
DUP_SHARE = 0.05
# doc_id namespace stride per seed (same device as ``repeat`` in
# sources/pages.py: a distinct id range gives distinct entities/hosts)
SEED_STRIDE = 1_000_000_000


def documents(seed: int, n_docs: int):
    """(documents table, set of planted (source doc_id, copy doc_id))."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(10, 101, size=n_docs)
    words = rng.integers(0, len(VOCAB), size=int(lens.sum()))
    offs = np.concatenate([[0], np.cumsum(lens)])
    texts = [
        " ".join(VOCAB[w] for w in words[offs[i] : offs[i + 1]])
        for i in range(n_docs)
    ]
    n_dup = int(n_docs * DUP_SHARE)
    dup_rows = rng.choice(np.arange(1, n_docs), size=n_dup, replace=False)
    planted = []
    for row in sorted(dup_rows.tolist()):
        src = int(rng.integers(0, row))
        texts[row] = texts[src] + " dup"
        planted.append((src, row))
    base = (seed % (1 << 31)) * SEED_STRIDE
    ids = base + np.arange(n_docs, dtype=np.int64)
    langs = rng.choice(LANGS, size=n_docs, p=LANG_P).tolist()
    table = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "source": pa.array([f"src{i % 20}" for i in range(n_docs)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    return table, {(int(ids[a]), int(ids[b])) for a, b in planted}


def pages(docs: pa.Table, expand_k: int, n_hosts: int, seed: int) -> pa.Table:
    from pubmed_and_method_ray.sources.pages import pages_from_documents_batch

    return pages_from_documents_batch(
        docs.select(["doc_id", "text", "lang"]), expand_k, n_hosts, seed
    )


def write(table: pa.Table, path: str) -> int:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path)
    return os.path.getsize(path)
