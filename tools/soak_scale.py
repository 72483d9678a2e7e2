"""Bench-scale soak of the distributed fallback paths (VERDICT r4 #4).

The budget-guarded operators (driver CC, driver LSH verify) take their
DISTRIBUTED fallbacks only past driver budgets, so until now those paths
ran only in sf0.001 unit tests. This soak exercises them at bench scale
and asserts they agree with the driver paths on the same input:

1. flagship ER at ~2M pages (GRAFT_SOAK_REPEAT=160 x sf0.1 docs) with
   cc_method='distributed' FORCED — the sorted (url, cluster_id)
   assignments must equal the auto/driver-path run's on the identical
   corpus;
2. MinHash-LSH with ``rayutil.LSH_DRIVER_PAIRS`` at 0 (forces the
   two-round task verify: the candidate pairs split by doc_id1,
   deduped and given doc_id1's sketch, then by doc_id2 and checked
   against its sketch, ``dedup._verify_pairs_exchange``) —
   row-identical to the driver-verify run;
3. canonical-docs with ``rayutil.DRIVER_EDGES`` at 0 (forces
   ``assign_clusters``' distributed min-label CC) — row-identical to its
   driver-path run;
4. flagship ER again with ``rayutil.DRIVER_ROWS`` at 0, so the heavy-key
   census merges in its keyed exchange — the sorted (url, cluster_id)
   assignments must equal the auto run's.

Legs 2-4 force a guard with ``_forced``, which sets one of rayutil's
driver budgets for the leg and restores it after.

Usage: python tools/soak_scale.py  (env: GRAFT_SF_DIR, RAY_GRAFT_CPUS,
GRAFT_SOAK_REPEAT). Prints one JSON line; record in BASELINE.md.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
REPEAT = int(os.environ.get("GRAFT_SOAK_REPEAT", "160"))


@contextmanager
def _forced(name: str, value: int):
    """``rayutil.<name>`` (a driver budget) set to ``value`` inside the
    block, restored after it."""
    from pubmed_and_method_ray import rayutil

    old = getattr(rayutil, name)
    setattr(rayutil, name, value)
    try:
        yield
    finally:
        setattr(rayutil, name, old)


def main() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pubmed_and_method_ray.pipelines import dedup
    from pubmed_and_method_ray.pipelines.er import run_er_pipeline
    from pubmed_and_method_ray.sources.io import read_parquet_clean
    from pubmed_and_method_ray.sources.pages import build_pages_dataset
    from pubmed_and_method_ray.state import (
        load_pretrained_idf,
        load_pretrained_model_json,
    )

    out: dict = {"sf": SF_DIR, "num_cpus": NUM_CPUS, "repeat": REPEAT}

    pages_dir = f"/tmp/soak_pages_{os.path.basename(SF_DIR)}_{REPEAT}"
    if not os.path.exists(os.path.join(pages_dir, "_done")):
        import shutil

        shutil.rmtree(pages_dir, ignore_errors=True)
        build_pages_dataset(SF_DIR, expand_k=4, repeat=REPEAT).write_parquet(
            pages_dir
        )
        open(os.path.join(pages_dir, "_done"), "w").close()
    n_pages = read_parquet_clean(pages_dir, file_extensions=["parquet"]).count()
    out["pages"] = int(n_pages)

    model = load_pretrained_model_json()
    idf = load_pretrained_idf()

    def canon(df):
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    def er_run(cc_method: str, name: str | None = None):
        pages = read_parquet_clean(pages_dir, file_extensions=["parquet"])
        t0 = time.perf_counter()
        res = run_er_pipeline(
            pages, model_json=model, idf=idf, n_max=512,
            evaluate=False, keep_gold=True, cc_method=cc_method,
        )
        clusters = res["clusters"].select_columns(["url", "cluster_id"]).to_pandas()
        sec = time.perf_counter() - t0
        out[f"er_{name or cc_method}"] = {
            "sec": round(sec, 2),
            "rows": len(clusters),
            "clusters": int(clusters["cluster_id"].nunique()),
            "pages_per_sec": round(n_pages / sec, 1),
        }
        return canon(clusters)

    er_dist = er_run("distributed")
    er_auto = er_run("auto")
    assert len(er_auto) == n_pages, (len(er_auto), n_pages)
    assert er_dist.equals(er_auto), "ER cluster assignments disagree"

    with _forced("DRIVER_ROWS", 0):
        er_census = er_run("auto", "exchange_census")
    assert er_census.equals(er_auto), "ER census merge paths disagree"

    t0 = time.perf_counter()
    with _forced("LSH_DRIVER_PAIRS", 0):
        lsh_dist = canon(dedup.dedup_minhash_lsh(SF_DIR).to_pandas())
    out["lsh_distributed_verify_sec"] = round(time.perf_counter() - t0, 2)
    t0 = time.perf_counter()
    lsh_drv = canon(dedup.dedup_minhash_lsh(SF_DIR).to_pandas())
    out["lsh_driver_verify_sec"] = round(time.perf_counter() - t0, 2)
    assert lsh_dist.equals(lsh_drv), "LSH verify paths disagree"
    out["lsh_pairs"] = int(len(lsh_drv))

    t0 = time.perf_counter()
    with _forced("DRIVER_EDGES", 0):
        can_dist = canon(dedup.dedup_canonical_docs(SF_DIR).to_pandas())
    out["canonical_distributed_cc_sec"] = round(time.perf_counter() - t0, 2)
    t0 = time.perf_counter()
    can_drv = canon(dedup.dedup_canonical_docs(SF_DIR).to_pandas())
    out["canonical_driver_cc_sec"] = round(time.perf_counter() - t0, 2)
    assert can_dist.equals(can_drv), "canonical CC paths disagree"
    out["canonical_rows"] = int(len(can_drv))

    ray.shutdown()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
