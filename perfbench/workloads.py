"""The benchmark workloads: seeded inputs, one job, its traced run and
its output checks.

A job returns ``(times, result)``: ``times`` are the timed spans of the
job in seconds, ``result`` holds the consumed outputs that ``check``
inspects after the clock has stopped.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import corpus
import tracing

N_MAX = 512
THRESHOLD = 0.5
MIN_CLUSTER_F1 = 0.99
# warm-up jobs run the same calls on the first WARM_ROWS input rows:
# enough to start and import into every worker, a fraction of a job
WARM_ROWS = 300
# the DuckDB MinHash-LSH oracle takes ~77 s at 2,000 documents on one
# core; above this size the dedup outputs are checked for planted
# duplicates and for identity across the run's jobs instead
ORACLE_MAX_DOCS = 300

# benchmark input sizes per workload, and the smoke test's (--tiny)
SIZES = {
    "er_checkpoint": dict(n_docs=1500, expand_k=4, n_hosts=12),
    "dedup_docs": dict(n_docs=8000),
}
TINY = {
    "er_checkpoint": dict(n_docs=120, expand_k=4, n_hosts=2),
    "dedup_docs": dict(n_docs=200),
}


def consume(ds) -> pa.Table:
    """Pull a Dataset's rows to the driver (the result a caller reads)."""
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    if not batches:
        return ds.schema().empty_table() if ds.schema() else pa.table({})
    return pa.concat_tables(batches).combine_chunks()


def _sorted(t: pa.Table, keys) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in keys])


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


def _block_rows(ds) -> list[int]:
    return [
        m.num_rows or 0
        for bundle in ds.iter_internal_ref_bundles()
        for m in bundle.metadata
    ]


@contextlib.contextmanager
def _er_layer_spans(tr, seen: dict):
    """Wrap the callees ``run_er_pipeline`` looks up at module level, and
    the census ``stages.blocking._keyed_buckets`` runs, in spans while
    the block runs. Each wrapper calls the real function with the
    arguments the program gave it and hands its return value on; a
    Dataset a layer returns is materialized inside the layer's span (the
    layer boundary). ``seen`` keeps what the layer facts are computed
    from, and the open eval span: ``run_er_pipeline`` evaluates right
    after it has checkpointed the clusters."""
    from pubmed_and_method_ray.pipelines import er
    from pubmed_and_method_ray.sources import checkpoint as ckpt
    from pubmed_and_method_ray.stages import blocking

    real = {
        "prepare_mentions": er.prepare_mentions,
        "generate_pair_features": er.generate_pair_features,
        "edges_from_scores": er.edges_from_scores,
        "assign_clusters": er.assign_clusters,
        "skew_table_fast": blocking.skew_table_fast,
        "checkpoint": ckpt.checkpoint,
    }

    def prepare_mentions(*a, **kw):
        with tr.span("stages.mention_prep"):
            ds, idf_ref = real["prepare_mentions"](*a, **kw)
            seen["mentions"] = ds = ds.materialize()
        return ds, idf_ref

    def generate_pair_features(*a, **kw):
        with tr.span("stages.blocking.pair_score"):
            seen["scored"] = ds = real["generate_pair_features"](*a, **kw).materialize()
        return ds

    def skew_table_fast(*a, **kw):
        with tr.span("stages.blocking.census"):
            seen["census"] = out = real["skew_table_fast"](*a, **kw)
        return out

    def edges_from_scores(*a, **kw):
        with tr.span("stages.features.edges"):
            seen["edges"] = ds = real["edges_from_scores"](*a, **kw).materialize()
        return ds

    def assign_clusters(*a, **kw):
        with tr.span("stages.cluster"):
            ds = real["assign_clusters"](*a, **kw).materialize()
        return ds

    def checkpoint(ds, stage_dir, stage_name, *a, **kw):
        with tr.span("sources.checkpoint", stage=stage_name):
            out = real["checkpoint"](ds, stage_dir, stage_name, *a, **kw)
        seen["checkpoint.bytes"] = seen.get("checkpoint.bytes", 0) + _dir_bytes(stage_dir)
        if stage_name == "clusters":
            seen["eval"] = tr.begin("pipelines.er.eval")
            tracing.reset_own_peak_rss()
        return out

    patches = [
        (er, prepare_mentions),
        (er, generate_pair_features),
        (er, edges_from_scores),
        (er, assign_clusters),
        (blocking, skew_table_fast),
        (ckpt, checkpoint),
    ]
    for module, fn in patches:
        setattr(module, fn.__name__, fn)
    try:
        yield
    finally:
        for module, fn in patches:
            setattr(module, fn.__name__, real[fn.__name__])


class Er:
    """Flagship ER (``pipelines.er.run_er_pipeline``, auto CC) over
    seeded pages, checkpointed into a fresh workdir with evaluation on,
    then re-run into the complete workdir."""

    def __init__(self, n_docs, expand_k, n_hosts):
        self.n_docs, self.expand_k, self.n_hosts = n_docs, expand_k, n_hosts

    def generate(self, seed: int) -> pa.Table:
        docs, _ = corpus.documents(seed, self.n_docs)
        return corpus.pages(docs, self.expand_k, self.n_hosts, seed)

    def install(self, ctx, pages: pa.Table) -> None:
        self.ctx = ctx
        self.pages_dir = os.path.join(ctx.work, "pages")
        self.warm_dir = os.path.join(ctx.work, "warm")
        corpus.write(pages, os.path.join(self.pages_dir, "pages.parquet"))
        corpus.write(pages.slice(0, WARM_ROWS), os.path.join(self.warm_dir, "pages.parquet"))
        urls = pages["url"].to_pylist()
        self.n_inputs = len(urls)
        self.urls = set(urls)
        self.entity_of = dict(zip(urls, pages["entity_id"].to_pylist()))
        self.max_host_rows = max(Counter(u.split("/")[2] for u in urls).values())

    def info(self) -> dict:
        return {"max_host_rows": self.max_host_rows}

    def prepare_checks(self) -> None:
        pass

    def _read(self, pages_dir=None):
        from pubmed_and_method_ray.sources.io import read_parquet_clean

        return read_parquet_clean(pages_dir or self.pages_dir, file_extensions=["parquet"])

    def _run(self, pages, evaluate: bool, workdir):
        from pubmed_and_method_ray.pipelines.er import run_er_pipeline

        return run_er_pipeline(
            pages,
            model_json=self.ctx.model_json,
            idf=self.ctx.idf,
            n_max=N_MAX,
            threshold=THRESHOLD,
            keep_gold=True,
            evaluate=evaluate,
            workdir=workdir,
        )

    def warmup(self):
        consume(self._run(self._read(self.warm_dir), False, None)["clusters"])

    def _workdir(self):
        self.ctx.job_no += 1
        return os.path.join(self.ctx.work, f"ckpt{self.ctx.job_no}")

    def job(self):
        workdir = self._workdir()
        t0 = time.perf_counter()
        out = self._run(self._read(), True, workdir)
        clusters = consume(out["clusters"])
        times = {"job_s": time.perf_counter() - t0}
        result = {"clusters": clusters, "pair_f1": out["pair_metrics"]["f1"]}
        t0 = time.perf_counter()
        again = self._run(self._read(), True, workdir)
        result["resumed"] = consume(again["clusters"])
        times["resume_s"] = time.perf_counter() - t0
        shutil.rmtree(workdir, ignore_errors=True)
        return times, result

    def traced_job(self, tr):
        """The job's cold run, traced: the pages are read and
        materialized in their own span, then ``run_er_pipeline`` runs
        with its layer calls wrapped in spans (``_er_layer_spans``).
        Returns (times, result, layer facts)."""
        workdir = self._workdir()
        seen: dict = {}
        t0 = time.perf_counter()
        with tr.span("job"):
            with tr.span("sources.io"):
                pages = self._read().materialize()
            with _er_layer_spans(tr, seen):
                out = self._run(pages, True, workdir)
            tr.end(seen["eval"])
            driver_peak = tracing.own_peak_rss_mb()
            clusters = consume(out["clusters"])
        times = {"job_s": time.perf_counter() - t0}
        shutil.rmtree(workdir, ignore_errors=True)
        mentions, scored, edges = seen["mentions"], seen["scored"], seen["edges"]
        _, counts = seen["census"]
        pairs = scored.count()
        edge_urls = consume(edges.select_columns(["url_1", "url_2"]))
        blocks = _block_rows(scored)
        facts = {
            "io.bytes": pages.size_bytes(),
            "mention_prep.rows": mentions.count(),
            "mention_prep.out_bytes": mentions.size_bytes(),
            "blocking.max_host_rows": int(counts.max()) if len(counts) else 0,
            "blocking.salted_hosts": int((counts > N_MAX).sum()),
            "blocking.candidate_pairs": pairs,
            "blocking.pairs_per_page": pairs / self.n_inputs,
            "blocking.bucket_skew": max(blocks) / (sum(blocks) / len(blocks))
            if blocks and sum(blocks)
            else 0.0,
            "features.match_edges": edge_urls.num_rows,
            "features.match_yield": edge_urls.num_rows / pairs if pairs else 0.0,
            "cluster.clusters": len(pc.unique(clusters["cluster_id"])),
            "cluster.edge_nodes": len(
                pc.unique(pa.chunked_array([edge_urls["url_1"], edge_urls["url_2"]]))
            ),
            "checkpoint.bytes": seen["checkpoint.bytes"],
            "er.driver_peak_rss_mb": driver_peak,
        }
        return times, {"clusters": clusters, "pair_f1": out["pair_metrics"]["f1"]}, facts

    def check(self, result) -> tuple[list[str], dict]:
        from pubmed_and_method_ray.functions.metrics import cluster_full_gold_metrics

        errors, quality = [], {}
        for key in ("clusters", "resumed"):
            t = result.get(key)
            if t is None:
                continue
            if t.num_rows != self.n_inputs:
                errors.append(f"{key}: {t.num_rows} rows for {self.n_inputs} pages")
            elif set(t["url"].to_pylist()) != self.urls:
                errors.append(f"{key}: urls differ from the input pages")
        if errors:
            return errors, quality
        t = result["clusters"]
        cluster_of = dict(zip(t["url"].to_pylist(), t["cluster_id"].to_pylist()))
        quality["cluster_f1"] = cluster_full_gold_metrics(self.entity_of, cluster_of)["f1"]
        if quality["cluster_f1"] < MIN_CLUSTER_F1:
            errors.append(f"cluster_f1 {quality['cluster_f1']:.5f} < {MIN_CLUSTER_F1}")
        if "pair_f1" in result:
            quality["pair_f1"] = result["pair_f1"]
        if "resumed" in result:
            a = _sorted(t, ["url"])
            b = _sorted(result["resumed"], ["url"])
            if not a["cluster_id"].equals(b["cluster_id"]):
                errors.append("resumed clusters differ from the cold run")
        return errors, quality


class Dedup:
    """``pipelines.dedup`` shared-window and MinHash-LSH near-dup search
    over a seeded documents table with planted duplicates."""

    def __init__(self, n_docs):
        self.n_docs = n_docs

    def generate(self, seed: int) -> pa.Table:
        self.docs, self.planted = corpus.documents(seed, self.n_docs)
        return self.docs

    def install(self, ctx, docs: pa.Table) -> None:
        self.ctx = ctx
        self.docs_dir = os.path.join(ctx.work, "docs")
        self.warm_dir = os.path.join(ctx.work, "warm")
        corpus.write(docs, os.path.join(self.docs_dir, "documents.parquet"))
        corpus.write(docs.slice(0, WARM_ROWS), os.path.join(self.warm_dir, "documents.parquet"))
        self.n_inputs = docs.num_rows

    def prepare_checks(self) -> None:
        """The DuckDB oracle result, where it runs in reasonable time."""
        self.oracle = self._oracle() if self.n_inputs <= ORACLE_MAX_DOCS else None

    def _oracle(self):
        """DuckDB MinHash-LSH oracle result."""
        import __ray_entry__ as entry
        import duckdb

        con = duckdb.connect()
        con.register("documents", self.docs)
        t = con.execute(entry.oracle_sql()["dedup_minhash_lsh"]).arrow()
        con.close()
        return _sorted(t.select(["doc_id1", "doc_id2", "jaccard"]), ["doc_id1", "doc_id2"])

    def _calls(self, docs_dir=None):
        from pubmed_and_method_ray.pipelines import dedup

        docs_dir = docs_dir or self.docs_dir
        return {
            "shared_window": lambda: dedup.dedup_shared_window(docs_dir),
            "minhash_lsh": lambda: dedup.dedup_minhash_lsh(docs_dir),
        }

    def warmup(self):
        for call in self._calls(self.warm_dir).values():
            consume(call())

    def job(self):
        times, result = {}, {}
        t_start = time.perf_counter()
        for name, call in self._calls().items():
            t0 = time.perf_counter()
            result[name] = consume(call())
            times[f"{name}_s"] = time.perf_counter() - t0
        times["job_s"] = time.perf_counter() - t_start
        return times, result

    def traced_job(self, tr):
        times, result = {}, {}
        t0 = time.perf_counter()
        with tr.span("job"):
            for name, call in self._calls().items():
                with tr.span(f"pipelines.dedup.{name}"):
                    result[name] = consume(call())
        times["job_s"] = time.perf_counter() - t0
        facts = {f"dedup.{k}_pairs": t.num_rows for k, t in result.items()}
        return times, result, facts

    def check(self, result) -> tuple[list[str], dict]:
        errors = []
        for name, t in result.items():
            t = _sorted(t, ["doc_id1", "doc_id2"])
            found = set(zip(t["doc_id1"].to_pylist(), t["doc_id2"].to_pylist()))
            missing = self.planted - found
            if missing:
                errors.append(f"{name}: {len(missing)} planted duplicates missed")
        quality = {"oracle_checked": float(self.oracle is not None)}
        if self.oracle is not None:
            got = _sorted(result["minhash_lsh"], ["doc_id1", "doc_id2"])
            same_pairs = got.select(["doc_id1", "doc_id2"]).equals(
                self.oracle.select(["doc_id1", "doc_id2"])
            )
            if not same_pairs or not np.allclose(
                got["jaccard"].to_numpy(), self.oracle["jaccard"].to_numpy(), atol=1e-12
            ):
                errors.append("minhash_lsh differs from the DuckDB oracle")
        return errors, quality

    def info(self) -> dict:
        return {"planted_dups": len(self.planted)}


def make(name: str, tiny: bool = False):
    params = (TINY if tiny else SIZES)[name]
    return Dedup(**params) if name == "dedup_docs" else Er(**params)
