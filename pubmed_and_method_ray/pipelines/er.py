"""Flagship entity-resolution pipeline (BASELINE.json north_star):

    pages -> extract_text -> normalize(+tfidf) -> blocking(+salting)
          -> pair-gen + pair features (+ GBT scoring) -> match edges
          -> connected components -> clusters -> eval

Mirrors the reference lifecycle (SURVEY.md §3.3): ClickHouse MV
checkpoints become per-stage Parquet checkpoints with lineage manifests;
the iterrows feature extractor becomes a vectorized kernel fused into
the pair task; the sklearn model zoo becomes a driver-trained numpy GBT
that scores in map tasks (inside the pair task for a given model);
gold-IDX label equality becomes explicit connected components. Every
stage runs on Ray tasks and starts no actor, distributed connected
components included.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.gbt import GBTClassifier
from ..functions.metrics import (
    calc_metrics,
    cluster_full_gold_metrics,
    cluster_pairwise_metrics,
)
from .. import rayutil
from ..rayutil import known_size, sized_groupby_agg
from ..sources import checkpoint as ckpt
from ..stages.blocking import generate_pair_features
from ..stages.cluster import assign_clusters
from ..stages.features import (
    FEATURE_NAMES,
    append_scores,
    edges_from_scores,
    model_from_ref,
)
from ..stages.mention_prep import extract_stage, fit_idf, normalize_batch

# r2.0: packed tfidf transport (tfidf_pk+norm); r2.1: a pretrained model's
# scored stage keeps only (url_1, url_2, label, score), as a trained one's
PIPELINE_VERSION = "r2.1"


def prepare_mentions(pages_ds, use_tfidf: bool = True, idf_sample_mod: int = 1,
                     idf=None, return_idf: bool = False):
    """pages -> normalized mentions with similarity payloads. Pass a
    pretrained ``idf`` vector to skip the fitting pass (production path:
    the idf ships with the model in state/). Task-based stages: state
    arrives as a broadcast ref, so Ray's prestarted workers do the work
    with no actor-pool spin-up."""
    import ray

    extracted = pages_ds.map_batches(extract_stage, batch_format="pyarrow")
    idf_ref = None
    if use_tfidf:
        if idf is None:
            idf, _ = fit_idf(extracted, sample_mod=idf_sample_mod)
        # float32 before the put: producer top-k/norm selection and the
        # consumer-side weight recompute must share one precision
        idf_ref = ray.put(np.asarray(idf, dtype=np.float32))
    ds = extracted.map_batches(
        normalize_batch,
        fn_kwargs={"idf_ref": idf_ref},
        batch_format="pyarrow",
        batch_size=512,
    )
    # ``return_idf``: the score stage recomputes tf-idf weights from the
    # packed transport (features._unpack_tfidf) and needs the SAME idf —
    # hand back the existing broadcast ref (one plasma copy, one
    # per-worker cache slot) alongside the dataset.
    return (ds, idf_ref) if return_idf else ds


def train_pairwise_model(features_ds, seed: int = 42) -> str:
    """Driver-side GBT fit on the (small) labeled feature set — the
    reference trains on <60k labeled pairs (BASELINE.md), so collecting
    to the driver matches its scale contract; scoring stays distributed.
    Rows are sorted by (url_1, url_2) before the fit, since the dataset's
    row order is not fixed and the fit depends on it. Returns the
    serialized model JSON."""
    df = (
        features_ds.select_columns(["url_1", "url_2"] + FEATURE_NAMES + ["label"])
        .to_pandas()
        .sort_values(["url_1", "url_2"], kind="stable")
    )
    X = df[FEATURE_NAMES].to_numpy(dtype=np.float64)
    y = df["label"].to_numpy(dtype=np.float64)
    model = GBTClassifier(n_estimators=60, learning_rate=0.2, max_depth=3)
    model.fit(X, y)
    return model.to_json()


def _stage_counters(name: str, threshold: float):
    """Golden per-stage counts (the reference asserts stage cardinalities
    after every SQL step, database/pubmed_inner_outer_feature.sql:106-108)
    as ``ckpt.checkpoint``'s ``(partial, merge)``. A write task returns
    counts and sums, and each distinct column's unique values or, above
    its cap, None: then ``sized_groupby_agg`` counts it over the
    read-back. Task i's cap is budget / (2 (i+1)^2): with any task count
    a counter's values total at most pi^2/12 of ``rayutil.DRIVER_BYTES``
    (read here, on the driver; ``partial`` runs in the write tasks)."""
    budget = rayutil.DRIVER_BYTES
    rows_key, sums, distincts = {
        "mentions": ("mentions", {}, {"distinct_hosts": "host"}),
        "features": ("pairs", {"gold_pairs": lambda t: t["label"]}, {}),
        # ``>`` as in edges_from_scores: the edges CC clusters on
        "scored": (
            "pairs", {"match_edges": lambda t: pc.greater(t["score"], threshold)}, {}
        ),
        "clusters": ("nodes", {}, {"clusters": "cluster_id"}),
    }[name]

    def partial(t, task_idx):
        out = {rows_key: t.num_rows}
        out.update((k, pc.sum(fn(t)).as_py() or 0) for k, fn in sums.items())
        cap = budget // (2 * (task_idx + 1) ** 2)
        for k, col in distincts.items():
            u = pc.unique(t[col])
            out[k] = u if u.nbytes <= cap else None
        return out

    def merge(parts, read):
        out = {k: sum(p[k] for p in parts) for k in (rows_key, *sums)}
        for k, col in distincts.items():
            vals = [p[k] for p in parts]
            if any(v is None for v in vals):
                ds = read()
                out[k] = sized_groupby_agg(
                    ds.select_columns([col]), [col], [], n_bytes=known_size(ds)[1]
                ).count()
            else:
                out[k] = len(pc.unique(pa.chunked_array(vals))) if vals else 0
        return out

    return partial, merge


def run_er_pipeline(
    pages_ds,
    model_json: str | None = None,
    workdir: str | None = None,
    n_max: int = 512,
    threshold: float = 0.5,
    use_tfidf: bool = True,
    idf_sample_mod: int = 1,
    idf=None,
    keep_gold: bool = True,
    cc_method: str = "auto",
    evaluate: bool = True,
    prune_hamming: int | None = 16,
):
    """Run the full pipeline. Returns a dict with the clusters Dataset,
    scored-pairs Dataset, trained model JSON, the clusters stage's
    fingerprint (``clusters_fp``) and (if labeled) metrics.

    With ``workdir`` set, each stage checkpoints to
    ``{workdir}/{stage}/`` with a lineage manifest; a rerun with the same
    fingerprints resumes from the last complete stage. Fingerprints fold
    in the INPUT identity (``checkpoint.input_identity``), the idf vector
    and the model weights, and chain per stage — rerunning the same
    workdir with a different input/model/param invalidates every
    downstream checkpoint instead of silently reusing stale data
    (checkpoint.py contract).
    """
    input_id = ckpt.input_identity(pages_ds)
    idf_id = ckpt.content_digest(idf.tobytes()) if idf is not None else None
    model_id = ckpt.content_digest(model_json.encode()) if model_json else None
    fp_mentions = ckpt.fingerprint(
        PIPELINE_VERSION, "mentions", input_id, use_tfidf, idf_sample_mod, idf_id
    )
    fp_scored = ckpt.fingerprint(
        fp_mentions, "scored", n_max, keep_gold, model_id, threshold,
        prune_hamming,
    )
    fp_clusters = ckpt.fingerprint(fp_scored, "clusters", cc_method)
    stage_fps = {
        "mentions": fp_mentions,
        "features": fp_scored,
        "scored": fp_scored,
        "clusters": fp_clusters,
    }

    def persist(build, name):
        """Break lineage once per stage: the stage is materialized in the
        object store, and with workdir set also written as a Parquet
        checkpoint (resumable) that a cold run does not read back. A
        stage whose checkpoint is complete resumes as a lazy read of its
        files without calling ``build()``, because building can run
        eager work (the pair stage's skew census, auto CC's edge
        collection)."""
        if workdir:
            stage_dir = os.path.join(workdir, name)
            fp = stage_fps[name]
            ds = None if ckpt.is_complete(stage_dir, fp) else build()
            return ckpt.checkpoint(
                ds, stage_dir, name, fp, summary=_stage_counters(name, threshold)
            )
        return build().materialize()

    def persist_if_reused(build, name):
        """Stages consumed exactly once in the streaming production path
        (no workdir, no eval) stay LAZY — their one consumer drives them
        with no extra barrier/materialization."""
        if workdir or evaluate:
            return persist(build, name)
        return build()

    import ray

    mentions_lazy, idf_ref = prepare_mentions(
        pages_ds,
        use_tfidf=use_tfidf,
        idf_sample_mod=idf_sample_mod,
        idf=idf,
        return_idf=True,
    )
    mentions = persist(lambda: mentions_lazy, "mentions")
    # the fused score stage rebuilds tf-idf weights from the packed
    # transport, reusing the SAME broadcast ref the mentions were
    # built with (one plasma copy)
    # fused pair-gen + featurization: one keyed exchange, no wide pair rows
    if model_json is not None:
        # production path: scoring fused into the same bucket task
        scored = persist_if_reused(
            lambda: generate_pair_features(
                mentions,
                n_max=n_max,
                keep_gold=keep_gold,
                model_ref=ray.put(model_json),
                prune_hamming=prune_hamming,
                idf_ref=idf_ref,
            ),
            "scored",
        )
    else:
        if not keep_gold:
            raise ValueError("model_json required when gold labels absent")
        features = persist(
            lambda: generate_pair_features(
                mentions,
                n_max=n_max,
                keep_gold=keep_gold,
                prune_hamming=prune_hamming,
                idf_ref=idf_ref,
            ),
            "features",
        )
        model_json = train_pairwise_model(features)
        model_ref = ray.put(model_json)
        scored = persist(
            lambda: features.map_batches(
                lambda t: append_scores(t, model_from_ref(model_ref)).select(
                    ["url_1", "url_2", "label", "score"]
                ),
                batch_format="pyarrow",
                batch_size=None,
            ),
            "scored",
        )
    clusters = persist_if_reused(
        lambda: assign_clusters(
            mentions, edges_from_scores(scored, threshold=threshold), method=cc_method
        ),
        "clusters",
    )

    out = {
        "clusters": clusters,
        "scored": scored,
        "model_json": model_json,
        "clusters_fp": fp_clusters,
    }

    if evaluate and keep_gold:
        # one read of scored (every column: url_1, url_2, label, score):
        # pairwise metrics at threshold (reference metric.py semantics)
        # and the candidate-conditional co-membership metrics (scored
        # pairs only)
        # reindex: Ray makes a Dataset without rows a frame without columns
        sdf = scored.to_pandas().reindex(columns=["url_1", "url_2", "label", "score"])
        out["pair_metrics"] = calc_metrics(sdf["label"], sdf["score"], prob=threshold)
        cdf = clusters.to_pandas()
        cluster_of = dict(zip(cdf["url"], cdf["cluster_id"]))
        out["cluster_metrics_candidates"] = cluster_pairwise_metrics(
            zip(sdf["url_1"], sdf["url_2"], sdf["label"]), cluster_of
        )
        # FULL-gold-pair metrics: every gold co-entity pair counts, even
        # ones blocking never surfaced — a recall miss in blocking shows
        # up here instead of being silently excluded
        mdf = mentions.select_columns(["url", "entity_id"]).to_pandas()
        out["cluster_metrics"] = cluster_full_gold_metrics(
            dict(zip(mdf["url"], mdf["entity_id"])), cluster_of
        )
    return out
