"""Experiment & error-analysis surface.

Recasts the reference's experiment matrix runner and error analysis
(/root/reference/src/main_app.py:4-67,
src/comparison/inner_outer_feature_method.py:33-65,
src/error_analysis.py:19-69): grouped cross-validated evaluation over
named feature sets and the model zoo, plus worst-error inspection with
feature importances.
"""

from __future__ import annotations

import numpy as np

from ..functions.feature_groups import get_feature_set
from ..functions.metrics import calc_metrics
from ..functions.models import use_classifier
from ..functions.scaling import MinMaxStandardScaler
from ..functions.splits import assert_no_leakage, grouped_folds, split_group_column


def run_experiment(
    features_df,
    feature_set: str = "all_features",
    model: str = "gbt",
    n_splits: int = 5,
):
    """The ``run(method=…, dataset=…)`` step (SURVEY.md §3.1): project a
    named feature set, leakage-free grouped CV by host hash, scale, fit,
    score, average fold metrics. ``features_df`` is the (small) labeled
    feature table collected to the driver — the reference's scale contract.
    Returns {metric: mean over folds}."""
    cols = get_feature_set(feature_set)
    X = features_df[cols].to_numpy(dtype=np.float64)
    y = features_df["label"].to_numpy(dtype=np.int64)
    hosts = [u.split("/")[2] for u in features_df["url_1"]]
    groups = split_group_column(hosts)

    fold_metrics = []
    for train, test in grouped_folds(groups, n_splits=n_splits):
        if test.sum() == 0 or train.sum() == 0:
            continue
        assert_no_leakage(groups[train], groups[test])
        scaler = MinMaxStandardScaler().fit(X[train])
        _, proba = use_classifier(
            model, scaler.transform(X[train]), y[train], scaler.transform(X[test])
        )
        fold_metrics.append(calc_metrics(y[test], proba))
    keys = fold_metrics[0].keys()
    return {k: float(np.mean([m[k] for m in fold_metrics])) for k in keys}


def error_analysis(scored_df, feature_names: list[str], model=None, top_n: int = 20):
    """Worst-error inspection (src/error_analysis.py:19-69 analog):
    labeled scored pairs -> top |score - label| rows + (if a fitted GBT is
    given) gain-based feature importances."""
    df = scored_df.copy()
    df["error"] = (df["score"] - df["label"]).abs()
    worst = df.sort_values("error", ascending=False).head(top_n)
    out = {"worst": worst, "n_errors_at_0.5": int((df["error"] > 0.5).sum())}
    if model is not None and getattr(model, "feature_importances_", None) is not None:
        imp = model.feature_importances_
        total = imp.sum() or 1.0
        out["feature_importances"] = dict(
            sorted(
                zip(feature_names, (imp / total).tolist()),
                key=lambda kv: -kv[1],
            )
        )
    return out


def pair_sums(h, e, r, c):
    """(tp, pred, gold, total) within-host pair counts from UNIQUE
    (host, ent, rid) triple counts — C(m,2) sums over (h,e,r) / (h,r) /
    (h,e) / (h) group sizes. Exact-integer equivalent of enumerating
    every within-host pair (tp: both sides equal; pred: rid equal;
    gold: ent equal; total: all pairs) in O(rows log rows). Requires
    host-complete rows (all triples of a host present)."""
    h, e, r = np.asarray(h), np.asarray(e), np.asarray(r)
    c = np.asarray(c, dtype=np.int64)
    if len(c) == 0:
        return 0, 0, 0, 0

    def grp_pairs(*keys):
        order = np.lexsort(tuple(reversed(keys)))
        change = np.zeros(len(c), dtype=bool)
        change[0] = True
        for k in keys:
            ks = k[order]
            change[1:] |= ks[1:] != ks[:-1]
        m = np.add.reduceat(c[order], np.nonzero(change)[0])
        return int(np.sum(m * (m - 1) // 2))

    tp = int(np.sum(c * (c - 1) // 2))
    return tp, grp_pairs(h, r), grp_pairs(h, e), grp_pairs(h)


def external_id_baseline(sf_dir: str, expand_k: int = 3):
    """E5 — the external-ID trivial baseline
    (/root/reference/src/comparison/author_id_baseline.py:19-35): predict
    same_entity := same registry id, DROP pairs where either side's id is
    unknown (the reference's −1 filter), and score the prediction against
    gold over the labeled pair universe (all within-host page pairs — the
    blocking universe, positives + hard negatives).

    The synthetic registry is a pure function of the page url (md5 hex:
    pages with first hex digit > 'b' are unregistered ≈ 25%; registered
    ids are the true entity except when the second hex digit is 'f',
    which corrupts the id to a neighboring entity ≈ 6%), so the whole
    baseline — including its imperfection — is SQL-checkable.

    Distributed shape: the pairwise confusion counts are pure functions
    of (host, ent, rid) GROUP SIZES — tp = Σ C(m_her, 2), pred =
    Σ C(m_hr, 2), gold = Σ C(m_he, 2), total = Σ C(n_h, 2) — so no pair
    is ever enumerated: registry lookup + unknown-filter per batch, a
    per-batch np.unique pre-aggregation to (host, ent, rid, cnt) rows,
    then ONE budget-guarded grouped sum over unique triples
    (``sized_groupby_agg``: driver merge up to ``rayutil.DRIVER_BYTES``
    of partials, keyed exchange otherwise). The exchange carries triple
    counts, not page rows, and the count algebra is O(rows), not
    O(pairs) — at web scale a mega-host costs the same as any other.
    Returns a one-row frame: counts + accuracy/precision/recall/f1
    (exact integers, identical to the oracle's pairwise enumeration).
    """
    import hashlib
    import re

    import pandas as pd
    import pyarrow as pa

    from .. import rayutil
    from ..rayutil import (
        keyed_repartition,
        known_size,
        shuffle_partitions,
        sized_groupby_agg,
    )
    from ..sources.pages import build_pages_dataset

    url_re = re.compile(r"site(\d+)\.example\.org/e(\d+)/")

    def registry(t: pa.Table) -> pa.Table:
        host, ent, rid = [], [], []
        for u in t["url"].to_pylist():
            h = hashlib.md5(u.encode()).hexdigest()
            if h[0] > "b":  # unregistered — reference's id == −1 filter
                continue
            m = url_re.search(u)
            e = int(m.group(2))
            host.append(int(m.group(1)))
            ent.append(e)
            rid.append(e + 1 if h[1] == "f" else e)
        return pa.table(
            {
                "host_id": pa.array(host, pa.int64()),
                "ent": pa.array(ent, pa.int64()),
                "rid": pa.array(rid, pa.int64()),
            }
        )

    _EMPTY_TRIPLES = pa.table(
        {
            "host_id": pa.array([], pa.int64()),
            "ent": pa.array([], pa.int64()),
            "rid": pa.array([], pa.int64()),
            "cnt": pa.array([], pa.int64()),
        }
    )

    def triple_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY_TRIPLES
        trip = np.stack(
            [
                t["host_id"].to_numpy(zero_copy_only=False),
                t["ent"].to_numpy(zero_copy_only=False),
                t["rid"].to_numpy(zero_copy_only=False),
            ],
            axis=1,
        )
        uniq, cnt = np.unique(trip, axis=0, return_counts=True)
        return pa.table(
            {
                "host_id": pa.array(uniq[:, 0], pa.int64()),
                "ent": pa.array(uniq[:, 1], pa.int64()),
                "rid": pa.array(uniq[:, 2], pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def _cols(t: pa.Table):
        return (
            t["host_id"].to_numpy(zero_copy_only=False),
            t["ent"].to_numpy(zero_copy_only=False),
            t["rid"].to_numpy(zero_copy_only=False),
            t["cnt"].to_numpy(zero_copy_only=False),
        )

    partials = (
        build_pages_dataset(sf_dir, expand_k=expand_k)
        .select_columns(["url"])
        .map_batches(registry, batch_format="pyarrow")
        .map_batches(triple_partial, batch_format="pyarrow")
        .materialize()
    )
    _, n_bytes = known_size(partials)
    driver_ok = rayutil.on_driver(n_bytes, rayutil.DRIVER_BYTES)
    merged = sized_groupby_agg(
        partials,
        ["host_id", "ent", "rid"],
        [("cnt", "sum", "cnt")],
        n_bytes=n_bytes,
        driver=driver_ok,
    )
    if driver_ok:
        import ray

        t = pa.concat_tables(
            ray.get(merged.to_arrow_refs()), promote_options="default"
        )
        tp, pred, gold, total = pair_sums(*_cols(t))
    else:
        # host-keyed repartition co-locates each host's triples; one
        # 4-count row per block, summed on the driver (<= #blocks rows)
        def conf_batch(t: pa.Table) -> pa.Table:
            a, b_, g_, n_ = pair_sums(*_cols(t))
            return pa.table(
                {
                    "tp": pa.array([a], pa.int64()),
                    "pred": pa.array([b_], pa.int64()),
                    "gold": pa.array([g_], pa.int64()),
                    "total": pa.array([n_], pa.int64()),
                }
            )

        per = keyed_repartition(merged, ["host_id"], shuffle_partitions()).map_batches(
            conf_batch, batch_format="pyarrow", batch_size=None
        )
        tp = pred = gold = total = 0
        for b in per.iter_batches(batch_format="pyarrow", batch_size=None):
            tp += int(np.sum(b["tp"].to_numpy(zero_copy_only=False)))
            pred += int(np.sum(b["pred"].to_numpy(zero_copy_only=False)))
            gold += int(np.sum(b["gold"].to_numpy(zero_copy_only=False)))
            total += int(np.sum(b["total"].to_numpy(zero_copy_only=False)))
    fp = pred - tp
    fn = gold - tp
    tn = total - tp - fp - fn
    n = tp + fp + fn + tn
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    return pd.DataFrame(
        {
            "n_pairs": [int(n)],
            "tp": [int(tp)],
            "fp": [int(fp)],
            "fn": [int(fn)],
            "tn": [int(tn)],
            "accuracy": [float((tp + tn) / n) if n else 0.0],
            "precision": [float(prec)],
            "recall": [float(rec)],
            # single int->double division: bit-identical to the SQL oracle
            "f1": [
                float(2 * tp / (2 * tp + fp + fn)) if 2 * tp + fp + fn else 0.0
            ],
        }
    )
