"""Fixed-input micro-timings of the hot kernels, in-process, no Ray.

Inputs come from one fixed seed (not the run's ``--seed``), so every run
times the same work. Each kernel is called until it has run for at
least ``min_s`` seconds; the median call time is divided by the number
of items per call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import corpus

KERNEL_SEED = 7
N_DOCS = 200
N_PAIRS = 4000


def _per_item_us(fn, n_items: int, min_s: float) -> float:
    times = []
    t_end = time.perf_counter() + min_s
    while len(times) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / n_items * 1e6


def inputs(idf):
    """Mentions table plus seeded (left, right) candidate pairs."""
    from pubmed_and_method_ray.stages.mention_prep import extract_stage, normalize_batch

    docs, _ = corpus.documents(KERNEL_SEED, N_DOCS)
    extracted = extract_stage(corpus.pages(docs, 4, 4, KERNEL_SEED))
    mentions = normalize_batch(extracted, idf_ref=idf)
    rng = np.random.default_rng(KERNEL_SEED)
    n = mentions.num_rows
    li = np.sort(rng.integers(0, n, N_PAIRS))
    ri = rng.integers(0, n, N_PAIRS)
    return extracted, mentions, li, ri


def micro_timings(min_s: float = 0.2) -> dict[str, float]:
    from pubmed_and_method_ray.functions.gbt import GBTClassifier
    from pubmed_and_method_ray.functions.simhash import simhash_from_hashes_segmented
    from pubmed_and_method_ray.functions.textkernels import (
        jaro_winkler_batch,
        levenshtein_batch,
    )
    from pubmed_and_method_ray.stages.features import (
        FEATURE_NAMES,
        _list_view,
        _unpack_tfidf,
        features_from_indices,
        pairwise_jaccard,
        pairwise_sparse_dot,
    )
    from pubmed_and_method_ray.stages.mention_prep import normalize_batch
    from pubmed_and_method_ray.state import (
        load_pretrained_idf,
        load_pretrained_model_json,
    )

    idf = load_pretrained_idf()
    extracted, mentions, li, ri = inputs(idf)
    titles = mentions["title"].to_pylist()
    paths = mentions["path"].to_pylist()
    ta, tb = [titles[i] for i in li], [titles[i] for i in ri]
    pa_, pb = [paths[i] for i in li], [paths[i] for i in ri]
    so, sv = _list_view(mentions["sh_hashes"])
    to, tv = _list_view(mentions["tok_hashes"])
    tv64 = tv.astype(np.uint64)
    io_, iv, wv = _unpack_tfidf(mentions["tfidf_pk"], mentions["tfidf_norm"], idf)
    feats = features_from_indices(
        mentions, li, ri, np.full(len(li), 8), np.zeros(len(li), np.int8), idf
    )
    X = np.column_stack([feats[c].to_numpy() for c in FEATURE_NAMES])
    model = GBTClassifier.from_json(load_pretrained_model_json())
    n_rows = extracted.num_rows
    return {
        "functions.levenshtein_us_per_pair": _per_item_us(
            lambda: levenshtein_batch(pa_, pb), len(li), min_s
        ),
        "functions.jaro_winkler_us_per_pair": _per_item_us(
            lambda: jaro_winkler_batch(ta, tb), len(li), min_s
        ),
        "functions.simhash_us_per_doc": _per_item_us(
            lambda: simhash_from_hashes_segmented(tv64, to), len(to) - 1, min_s
        ),
        "functions.gbt_us_per_row": _per_item_us(
            lambda: model.predict_proba(X), len(X), min_s
        ),
        "features.sparse_dot_us_per_pair": _per_item_us(
            lambda: pairwise_sparse_dot(io_, iv, io_, wv, li, io_, iv, io_, wv, ri),
            len(li),
            min_s,
        ),
        "features.jaccard_us_per_pair": _per_item_us(
            lambda: pairwise_jaccard(so, sv, li, so, sv, ri), len(li), min_s
        ),
        "mention_prep.normalize_us_per_row": _per_item_us(
            lambda: normalize_batch(extracted, idf_ref=idf), n_rows, min_s
        ),
    }
