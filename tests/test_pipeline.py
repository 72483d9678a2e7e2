"""End-to-end pipeline tests: F1 ≥ 0.99 acceptance, golden counters,
grouped-split leakage, checkpoint/resume (FIXTURES.md F5, SURVEY.md §5)."""

import json
import os
import shutil

import numpy as np
import pytest
import ray.data as rd

from pubmed_and_method_ray.functions.splits import (
    assert_no_leakage,
    grouped_folds,
    split_group_column,
)
from pubmed_and_method_ray import rayutil
from pubmed_and_method_ray.pipelines import er
from pubmed_and_method_ray.pipelines.er import run_er_pipeline
from pubmed_and_method_ray.sources import checkpoint as ckpt
from pubmed_and_method_ray.sources.pages import build_pages_dataset
from pubmed_and_method_ray.stages.features import edges_from_scores

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def pages():
    return build_pages_dataset(SF, expand_k=4)


@pytest.fixture(scope="module")
def pages_file(pages, tmp_path_factory):
    """The fixture pages read back from parquet files: a file input
    resumes its checkpoints, an in-memory pipeline never does."""
    from pubmed_and_method_ray.sources.io import read_parquet_clean

    d = str(tmp_path_factory.mktemp("pages_file"))
    pages.write_parquet(d)
    return read_parquet_clean(d, file_extensions=["parquet"])


@pytest.fixture(scope="module")
def result(pages):
    return run_er_pipeline(pages, n_max=256)


class TestEndToEnd:
    def test_pairwise_f1_acceptance(self, result):
        assert result["pair_metrics"]["f1"] >= 0.99  # BASELINE.md target

    def test_cluster_f1_acceptance(self, result):
        assert result["cluster_metrics"]["f1"] >= 0.99

    def test_every_page_clustered(self, result, pages):
        assert result["clusters"].count() == pages.count()

    def test_cluster_partition_matches_gold(self, result, pages):
        """Predicted clusters == gold entity partition up to relabeling."""
        gold = pages.select_columns(["url", "entity_id"]).to_pandas()
        pred = result["clusters"].to_pandas()
        m = gold.merge(pred, on="url")
        # each gold entity maps to exactly one predicted cluster and
        # each predicted cluster to exactly one entity
        assert (m.groupby("entity_id")["cluster_id"].nunique() == 1).all()
        assert (m.groupby("cluster_id")["entity_id"].nunique() == 1).all()

    def test_scores_deterministic(self, pages, result):
        out2 = run_er_pipeline(pages, n_max=256, model_json=result["model_json"])
        # the fused pretrained path writes the trained path's scored schema
        trained, pretrained = result["scored"].schema(), out2["scored"].schema()
        assert pretrained.names == trained.names == ["url_1", "url_2", "label", "score"]
        assert pretrained.types == trained.types
        a = (
            result["scored"]
            .select_columns(["url_1", "url_2", "score"])
            .to_pandas()
            .sort_values(["url_1", "url_2"])
            .reset_index(drop=True)
        )
        b = (
            out2["scored"]
            .select_columns(["url_1", "url_2", "score"])
            .to_pandas()
            .sort_values(["url_1", "url_2"])
            .reset_index(drop=True)
        )
        assert (a["url_1"] == b["url_1"]).all()
        assert np.allclose(a["score"], b["score"])

    def test_training_ignores_block_order(self):
        """The same labeled features in reversed block order train the
        same model: the fit must not depend on the dataset's row order."""
        import pyarrow as pa

        from pubmed_and_method_ray.pipelines.er import train_pairwise_model
        from pubmed_and_method_ray.stages.features import FEATURE_NAMES

        rng = np.random.default_rng(3)
        n = 600
        cols = {
            "url_1": [f"http://h{i % 17}/a{i}" for i in range(n)],
            "url_2": [f"http://h{i % 17}/b{i}" for i in range(n)],
            "label": rng.integers(0, 2, n).astype(np.int8),
        }
        for f in FEATURE_NAMES:
            cols[f] = rng.random(n).astype(np.float32)
        t = pa.table(cols)
        blocks = [t.slice(0, 150), t.slice(150, 250), t.slice(400)]
        fwd = train_pairwise_model(rd.from_arrow(blocks))
        rev = train_pairwise_model(rd.from_arrow(blocks[::-1]))
        assert fwd == rev


class TestNoActors:
    def test_trained_run_starts_no_actors(self, pages, tmp_path_factory):
        """The trained path scores its features stage in map tasks, as
        the fused pretrained path does: a checkpointed, evaluated run
        creates no Ray actor (shuffle aggregator, actor-pool worker)."""
        import ray._private.state as ray_state

        rd.range(4).materialize()  # Ray Data's own per-session actors
        before = set(ray_state.actors())
        workdir = str(tmp_path_factory.mktemp("ckpt_no_actors"))
        out = run_er_pipeline(pages, n_max=256, workdir=workdir)
        assert out["scored"].schema().names == ["url_1", "url_2", "label", "score"]
        assert out["cluster_metrics"]["f1"] >= 0.99
        assert set(ray_state.actors()) - before == set()

    def test_distributed_cc_run_starts_no_actors(self, pages, result):
        """Forced distributed connected components runs on plain tasks."""
        import ray._private.state as ray_state

        rd.range(4).materialize()  # Ray Data's own per-session actors
        before = set(ray_state.actors())
        out = run_er_pipeline(
            pages, n_max=256, model_json=result["model_json"], cc_method="distributed"
        )
        assert out["cluster_metrics"]["f1"] >= 0.99
        assert set(ray_state.actors()) - before == set()


class TestGroupedSplit:
    def test_no_leakage_any_fold(self, result):
        sdf = result["scored"].to_pandas()
        hosts = [u.split("/")[2] for u in sdf["url_1"]]
        groups = split_group_column(hosts)
        for train, test in grouped_folds(groups, n_splits=5):
            assert_no_leakage(groups[train], groups[test])

    def test_leakage_assert_fires(self):
        with pytest.raises(AssertionError):
            assert_no_leakage([1, 2], [2, 3])


class TestCheckpointResume:
    def test_resume_skips_completed_stages(self, pages_file, tmp_path_factory):
        pages = pages_file
        workdir = str(tmp_path_factory.mktemp("ckpt"))
        out1 = run_er_pipeline(pages, n_max=256, workdir=workdir)
        clusters1 = out1["clusters"].to_pandas()  # snapshot before "crash"
        man1 = ckpt.read_manifest(os.path.join(workdir, "features"))
        assert man1 and man1["complete"] and man1["rows"] > 0
        assert man1["counters"]["pairs"] == man1["rows"]
        labels = rd.read_parquet(os.path.join(workdir, "features")).to_pandas()["label"]
        assert man1["counters"]["gold_pairs"] == int(labels.sum()) > 0
        wrote_at = man1["written_at"]

        # simulate a crash after 'features': later stages lost
        shutil.rmtree(os.path.join(workdir, "scored"))
        shutil.rmtree(os.path.join(workdir, "clusters"))
        out2 = run_er_pipeline(
            pages, n_max=256, workdir=workdir, model_json=out1["model_json"]
        )
        # features stage was NOT recomputed (manifest untouched) and its
        # golden counters survived the resume intact
        man2 = ckpt.read_manifest(os.path.join(workdir, "features"))
        assert man2["written_at"] == wrote_at
        assert man2["counters"] == man1["counters"]
        # identical final clusters
        a = clusters1.sort_values("url").reset_index(drop=True)
        b = out2["clusters"].to_pandas().sort_values("url").reset_index(drop=True)
        assert (a["cluster_id"] == b["cluster_id"]).all()

    def test_full_resume_builds_no_pair_stage(
        self, pages_file, result, tmp_path_factory, monkeypatch
    ):
        """A rerun into a complete workdir reads the checkpoints back
        without building the pair stage, whose skew census runs eagerly
        while its plan is built."""
        from pubmed_and_method_ray.stages import blocking

        pages = pages_file

        calls = []
        real = blocking.skew_table_fast

        def counting(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(blocking, "skew_table_fast", counting)
        workdir = str(tmp_path_factory.mktemp("ckpt_full"))
        kw = dict(n_max=256, workdir=workdir, model_json=result["model_json"])
        cold = run_er_pipeline(pages, **kw)["clusters"].to_pandas()
        assert calls, "the cold run must run the census"
        del calls[:]
        resumed = run_er_pipeline(pages, **kw)["clusters"].to_pandas()
        assert not calls
        a = cold.sort_values("url").reset_index(drop=True)
        b = resumed.sort_values("url").reset_index(drop=True)
        assert a.equals(b)

    def test_full_resume_checks_each_stage_once(
        self, pages_file, result, tmp_path_factory, monkeypatch
    ):
        """A resumed stage reads its manifest and file footers once."""
        import collections

        calls = collections.Counter()
        real = ckpt.is_complete

        def counting(stage_dir, fp):
            calls[os.path.basename(stage_dir)] += 1
            return real(stage_dir, fp)

        workdir = str(tmp_path_factory.mktemp("ckpt_checks"))
        kw = dict(n_max=256, workdir=workdir, model_json=result["model_json"])
        run_er_pipeline(pages_file, **kw)
        monkeypatch.setattr(ckpt, "is_complete", counting)
        resumed = run_er_pipeline(pages_file, **kw)
        assert resumed["cluster_metrics"]["f1"] >= 0.99
        assert calls == {"mentions": 1, "scored": 1, "clusters": 1}

    def test_changed_input_invalidates_checkpoints(self, pages, tmp_path_factory):
        """Same workdir + DIFFERENT input must recompute, not silently
        reuse stale stages (checkpoint fingerprints fold in the input
        identity — the checkpoint.py contract)."""
        import pyarrow as pa
        import ray.data as rd

        workdir = str(tmp_path_factory.mktemp("ckpt_inv"))
        half_dir = str(tmp_path_factory.mktemp("pages_half"))
        full_dir = str(tmp_path_factory.mktemp("pages_full"))
        full = pages.to_pandas()
        rd.from_pandas(full.iloc[: len(full) // 2]).write_parquet(half_dir)
        rd.from_pandas(full).write_parquet(full_dir)

        out1 = run_er_pipeline(
            rd.read_parquet(half_dir), n_max=256, workdir=workdir, evaluate=False
        )
        n1 = out1["clusters"].count()
        out2 = run_er_pipeline(
            rd.read_parquet(full_dir), n_max=256, workdir=workdir, evaluate=False
        )
        n2 = out2["clusters"].count()
        assert n1 == len(full) // 2
        assert n2 == len(full)  # stale mentions NOT reused

    def test_rewritten_input_file_recomputes(self, pages, tmp_path_factory):
        """Same workdir + the SAME input file rewritten with twice the
        rows must recompute: the input identity folds each file's size
        and footer row count, not just its name."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pubmed_and_method_ray.sources.io import read_parquet_clean

        workdir = str(tmp_path_factory.mktemp("ckpt_rewrite"))
        in_dir = str(tmp_path_factory.mktemp("pages_rewrite"))
        full = pa.Table.from_pandas(pages.to_pandas(), preserve_index=False)
        half = full.slice(0, full.num_rows // 2)
        full = full.slice(0, 2 * half.num_rows)

        def n_clusters(table):
            pq.write_table(table, os.path.join(in_dir, "pages.parquet"))
            pages_ds = read_parquet_clean(in_dir, file_extensions=["parquet"])
            out = run_er_pipeline(pages_ds, n_max=256, workdir=workdir, evaluate=False)
            return out["clusters"].count()

        assert n_clusters(half) == half.num_rows
        assert n_clusters(full) == full.num_rows  # stale stages NOT resumed
        # an input without source files has no stable identity
        mem = rd.from_arrow(half)
        assert ckpt.input_identity(mem) != ckpt.input_identity(mem)

    def test_lost_checkpoint_file_recomputes(self, pages, tmp_path_factory):
        """A manifest-complete stage dir with a missing parquet file must
        recompute instead of resuming with partial data."""
        workdir = str(tmp_path_factory.mktemp("ckpt_lost"))
        run_er_pipeline(pages, n_max=256, workdir=workdir)
        mdir = os.path.join(workdir, "mentions")
        man = ckpt.read_manifest(mdir)
        victim = sorted(man["files"])[0]
        os.remove(os.path.join(mdir, victim))
        assert not ckpt.is_complete(mdir, man["fingerprint"])
        out = run_er_pipeline(pages, n_max=256, workdir=workdir)
        assert out["clusters"].count() == pages.count()

    def test_manifest_lineage_counters(self, pages, tmp_path_factory):
        workdir = str(tmp_path_factory.mktemp("ckpt2"))
        out = run_er_pipeline(pages, n_max=256, workdir=workdir)
        for stage in ["mentions", "features", "scored", "clusters"]:
            man = ckpt.read_manifest(os.path.join(workdir, stage))
            assert man["stage"] == stage
            assert man["rows"] == sum(man["files"].values())
            assert man["fingerprint"]
            assert man["counters"], f"{stage} manifest has no golden counters"
        # counters are stage-semantic, not just row counts
        mman = ckpt.read_manifest(os.path.join(workdir, "mentions"))
        assert mman["counters"]["mentions"] == mman["rows"]
        assert 0 < mman["counters"]["distinct_hosts"] <= mman["rows"]
        sman = ckpt.read_manifest(os.path.join(workdir, "scored"))
        edges = edges_from_scores(out["scored"], threshold=0.5).count()
        assert sman["counters"]["match_edges"] == edges
        cman = ckpt.read_manifest(os.path.join(workdir, "clusters"))
        cdf = out["clusters"].to_pandas()
        assert cman["counters"]["nodes"] == len(cdf)
        assert cman["counters"]["clusters"] == cdf["cluster_id"].nunique()

        # the distinct counters agree on both sized_groupby_agg paths
        from pubmed_and_method_ray.rayutil import sized_groupby_agg

        for stage, col, key in (
            ("mentions", "host", "distinct_hosts"),
            ("clusters", "cluster_id", "clusters"),
        ):
            ds = rd.read_parquet(os.path.join(workdir, stage)).select_columns([col])
            n = {
                driver: sized_groupby_agg(ds, [col], [], driver=driver).count()
                for driver in (True, False)
            }
            man = ckpt.read_manifest(os.path.join(workdir, stage))
            assert n[True] == n[False] == man["counters"][key]


def _recomputed_counters(workdir):
    """Each stage's golden counters recomputed from its parquet files."""
    import pyarrow.parquet as pq

    def read(stage):
        return pq.read_table(os.path.join(workdir, stage)).to_pandas()

    out = {}
    for stage, rows_key, fn in (
        ("mentions", "mentions", lambda d: {"distinct_hosts": d["host"].nunique()}),
        ("features", "pairs", lambda d: {"gold_pairs": d["label"].sum()}),
        ("scored", "pairs", lambda d: {"match_edges": (d["score"] > 0.5).sum()}),
        ("clusters", "nodes", lambda d: {"clusters": d["cluster_id"].nunique()}),
    ):
        if os.path.isdir(os.path.join(workdir, stage)):
            d = read(stage)
            out[stage] = {rows_key: len(d), **{k: int(v) for k, v in fn(d).items()}}
    return out


def _manifest_counters(workdir):
    return {
        stage: ckpt.read_manifest(os.path.join(workdir, stage))["counters"]
        for stage in ("mentions", "features", "scored", "clusters")
        if os.path.isdir(os.path.join(workdir, stage))
    }


class TestWriteTaskCounters:
    """The manifest facts come back from the checkpoint write tasks: a
    cold run re-reads no stage for bookkeeping."""

    def test_cold_run_reads_no_stage_back(self, pages_file, tmp_path_factory, monkeypatch):
        """A cold, evaluated run hands each checkpointed stage on from
        memory: no stage dir is read and no footer opened, and with a
        given model and idf it starts 7 Ray Data plans (mention prep,
        census, pair keys, fused pair score, edges, cluster assign,
        eval's mention projection). A resume of the same workdir reads
        each stage back once."""
        import collections

        import pyarrow.parquet as pq
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        from pubmed_and_method_ray.sources import io
        from pubmed_and_method_ray.state import load_pretrained_idf, load_pretrained_model_json

        reads, footers, plans = collections.Counter(), [], []
        real_read, real_meta = io.read_parquet_clean, pq.read_metadata
        real_execute = StreamingExecutor.execute

        def counting_read(paths, **kw):
            reads[paths] += 1
            return real_read(paths, **kw)

        def counting_meta(*a, **kw):
            footers.append(a)
            return real_meta(*a, **kw)

        def counting_execute(self, dag, *a, **kw):
            plans.append(str(dag))
            return real_execute(self, dag, *a, **kw)

        monkeypatch.setattr(io, "read_parquet_clean", counting_read)
        monkeypatch.setattr(pq, "read_metadata", counting_meta)
        monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
        workdir = str(tmp_path_factory.mktemp("ckpt_reads"))
        kw = dict(
            n_max=256, workdir=workdir, model_json=load_pretrained_model_json(),
            idf=load_pretrained_idf(),
        )
        out = run_er_pipeline(pages_file, **kw)
        n_clustered = len(out["clusters"].to_pandas())
        assert len(plans) <= 7, plans
        assert reads == {} and footers == []
        assert n_clustered == pages_file.count()
        assert out["cluster_metrics"]["f1"] > 0.9

        again = run_er_pipeline(pages_file, **kw)
        stages = ("mentions", "scored", "clusters")
        assert reads == {os.path.join(workdir, s): 1 for s in stages}
        assert again["cluster_metrics"] == out["cluster_metrics"]

    @pytest.mark.parametrize("cc_method", ["driver", "distributed"])
    def test_counters_match_read_back(self, pages, result, tmp_path_factory, cc_method):
        workdir = str(tmp_path_factory.mktemp(f"ckpt_{cc_method}"))
        run_er_pipeline(
            pages, n_max=256, workdir=workdir, model_json=result["model_json"],
            cc_method=cc_method, evaluate=False,
        )
        want = _recomputed_counters(workdir)
        assert set(want) == {"mentions", "scored", "clusters"}
        assert _manifest_counters(workdir) == want

    def test_trained_path_counters_match_read_back(self, pages, tmp_path_factory):
        workdir = str(tmp_path_factory.mktemp("ckpt_trained"))
        run_er_pipeline(pages, n_max=256, workdir=workdir, evaluate=False)
        want = _recomputed_counters(workdir)
        assert len(want) == 4 and want["features"]["gold_pairs"] > 0
        assert _manifest_counters(workdir) == want

    def test_distinct_overflow_falls_back_to_read_back(
        self, pages, result, tmp_path_factory, monkeypatch
    ):
        """With a 0-byte budget every write task returns the overflow
        marker, and both distinct counters are counted over the
        read-back instead: the same counters come out."""
        calls = []
        real = er.sized_groupby_agg

        def counting(ds, keys, *a, **kw):
            calls.append(tuple(keys))
            return real(ds, keys, *a, **kw)

        monkeypatch.setattr(er, "sized_groupby_agg", counting)
        monkeypatch.setattr(rayutil, "DRIVER_BYTES", 0)
        workdir = str(tmp_path_factory.mktemp("ckpt_overflow"))
        run_er_pipeline(
            pages, n_max=256, workdir=workdir, model_json=result["model_json"],
            evaluate=False,
        )
        assert sorted(calls) == [("cluster_id",), ("host",)]
        assert _manifest_counters(workdir) == _recomputed_counters(workdir)

    def test_distinct_partials_stay_under_the_stage_budget(self, tmp_path, monkeypatch):
        """Eight write tasks whose unique hosts each fit in half the
        budget but together pass it: the driver gets under the budget of
        unique values in all, the rest count over the read-back, and the
        counters are right."""
        import pyarrow as pa
        import pyarrow.compute as pc

        blocks = [
            pa.table({"host": [f"h{b}-{i % 50:03d}.example" for i in range(200)]})
            for b in range(8)
        ]
        per_task = pc.unique(blocks[0]["host"]).nbytes
        monkeypatch.setattr(rayutil, "DRIVER_BYTES", 3 * per_task)
        partial, merge = er._stage_counters("mentions", 0.5)
        seen = []

        def recording_merge(parts, read):
            seen.extend(p["distinct_hosts"] for p in parts)
            return merge(parts, read)

        stage_dir = str(tmp_path / "mentions")
        ckpt.checkpoint(
            rd.from_arrow(blocks), stage_dir, "mentions", "fp",
            summary=(partial, recording_merge),
        )
        assert len(seen) == 8 and None in seen
        assert sum(v.nbytes for v in seen if v is not None) <= 3 * per_task
        man = ckpt.read_manifest(stage_dir)
        assert man["counters"] == {"mentions": 1600, "distinct_hosts": 400}

    def test_match_edges_counts_the_edges_cc_uses(self, tmp_path):
        """A score exactly at the threshold is not an edge
        (``edges_from_scores`` keeps ``score > threshold``), so it is not
        counted as a match edge either."""
        import pyarrow as pa

        t = pa.table(
            {
                "url_1": ["a", "b", "c", "d"],
                "url_2": ["e", "f", "g", "h"],
                "label": pa.array([0, 1, 1, 1], pa.int8()),
                "score": [0.2, 0.5, 0.5, 0.9],
            }
        )
        stage_dir = str(tmp_path / "scored")
        stage = ckpt.checkpoint(
            rd.from_arrow(t), stage_dir, "scored", "fp",
            summary=er._stage_counters("scored", 0.5),
        )
        man = ckpt.read_manifest(stage_dir)
        assert man["counters"] == {"pairs": 4, "match_edges": 1}
        assert edges_from_scores(stage, threshold=0.5).count() == 1


def _record_stages(monkeypatch):
    """Wrap ``ckpt.checkpoint`` (looked up through its module) to keep
    each stage's returned Dataset by stage dir."""
    returned, real = {}, ckpt.checkpoint

    def recording(ds, stage_dir, *a, **kw):
        returned[stage_dir] = out = real(ds, stage_dir, *a, **kw)
        return out

    monkeypatch.setattr(ckpt, "checkpoint", recording)
    return returned


def _assert_memory_equals_files(ds, stage_dir, keys):
    """The rows a cold checkpoint hands on equal the rows it wrote."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    files = pq.read_table(stage_dir)
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    if not tables:  # Ray keeps a stage without rows as column-less blocks
        assert files.num_rows == 0
        return
    mem = pa.concat_tables(tables)
    assert mem.num_rows == files.num_rows
    assert mem.sort_by([(k, "ascending") for k in keys]).equals(
        files.sort_by([(k, "ascending") for k in keys])
    )


_STAGE_KEYS = {
    "mentions": ["url"],
    "features": ["url_1", "url_2"],
    "scored": ["url_1", "url_2"],
    "clusters": ["url"],
}


class TestColdCheckpointInMemory:
    """A cold checkpoint returns its materialized stage, not a read of
    the files: memory and disk are two copies of one stage."""

    @pytest.mark.parametrize("trained", [False, True], ids=["pretrained", "trained"])
    def test_returned_stage_equals_its_files(
        self, pages, result, tmp_path_factory, monkeypatch, trained
    ):
        returned = _record_stages(monkeypatch)
        workdir = str(tmp_path_factory.mktemp("ckpt_in_memory"))
        model = None if trained else result["model_json"]
        out = run_er_pipeline(
            pages, n_max=256, workdir=workdir, model_json=model, evaluate=False
        )
        stages = ["mentions", "scored", "clusters"] + (["features"] if trained else [])
        assert sorted(returned) == sorted(os.path.join(workdir, s) for s in stages)
        for name in stages:
            stage_dir = os.path.join(workdir, name)
            _assert_memory_equals_files(returned[stage_dir], stage_dir, _STAGE_KEYS[name])
        assert out["clusters"] is returned[os.path.join(workdir, "clusters")]


class TestNoCandidatePairs:
    """22 pages on 22 distinct hosts give no candidate pair at all."""

    @pytest.fixture(scope="class")
    def pages22(self, tmp_path_factory):
        import pyarrow.parquet as pq

        from pubmed_and_method_ray.sources.io import read_parquet_clean
        from pubmed_and_method_ray.sources.pages import pages_from_documents_batch

        docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text", "lang"])
        t = pages_from_documents_batch(docs, expand_k=1, n_hosts=5000, seed=1)
        first = {}
        for i, url in enumerate(t["url"].to_pylist()):
            first.setdefault(url.split("/")[2], i)
        t = t.take(sorted(first.values())[:22])
        assert len({u.split("/")[2] for u in t["url"].to_pylist()}) == 22
        d = str(tmp_path_factory.mktemp("pages22"))
        pq.write_table(t, os.path.join(d, "pages.parquet"))
        return read_parquet_clean(d, file_extensions=["parquet"])

    def test_singletons_with_and_without_workdir(
        self, pages22, tmp_path_factory, monkeypatch
    ):
        from pubmed_and_method_ray.state import (
            load_pretrained_idf,
            load_pretrained_model_json,
        )

        kw = dict(
            model_json=load_pretrained_model_json(), idf=load_pretrained_idf(), n_max=64
        )
        workdir = str(tmp_path_factory.mktemp("ckpt_empty"))
        returned = _record_stages(monkeypatch)
        runs = [
            run_er_pipeline(pages22, **kw),
            run_er_pipeline(pages22, workdir=workdir, **kw),
        ]
        # the cold run hands on what it wrote, the 0-row scored stage too
        for name in ("mentions", "scored", "clusters"):
            stage_dir = os.path.join(workdir, name)
            _assert_memory_equals_files(returned[stage_dir], stage_dir, _STAGE_KEYS[name])
        man = ckpt.read_manifest(os.path.join(workdir, "scored"))
        assert man["rows"] == 0 and man["counters"] == {"pairs": 0, "match_edges": 0}
        runs.append(run_er_pipeline(pages22, workdir=workdir, **kw))  # resume
        assert ckpt.read_manifest(os.path.join(workdir, "scored")) == man
        for out in runs:
            c = out["clusters"].to_pandas()
            assert len(c) == 22 and (c["cluster_id"] == c["url"]).all()
            assert out["scored"].count() == 0
            assert out["pair_metrics"]["f1"] == 0.0
            assert out["cluster_metrics_candidates"]["f1"] == 0.0
        assert "score" in runs[2]["scored"].schema().names
        assert ckpt.read_manifest(os.path.join(workdir, "clusters"))["counters"] == {
            "nodes": 22, "clusters": 22,
        }

    def test_stage_without_rows_or_columns_resumes(self, tmp_path):
        """Ray hands a fully filtered-out Dataset to the write tasks as
        0-row blocks without columns: the stage is still one 0-row file,
        and it resumes."""
        stage_dir = str(tmp_path / "empty")
        ds = rd.range(10).filter(lambda r: False)
        assert ckpt.checkpoint(ds, stage_dir, "empty", "fp").count() == 0
        man = ckpt.read_manifest(stage_dir)
        assert man["rows"] == 0 and list(man["files"].values()) == [0]
        assert ckpt.is_complete(stage_dir, "fp")
        assert ckpt.checkpoint(None, stage_dir, "empty", "fp").count() == 0

class TestRunEntry:
    def test_rerun_with_other_model_recomputes_output(self, pages, tmp_path_factory):
        """``run.py`` into the same --output with a different model must
        recompute the clusters, not return the old model's."""
        from pubmed_and_method_ray import run
        from pubmed_and_method_ray.state import MODEL_PATH

        tmp = tmp_path_factory.mktemp("run_entry")
        in_dir, out_dir = str(tmp / "pages"), str(tmp / "out")
        rd.from_pandas(pages.to_pandas()).write_parquet(in_dir)
        never = tmp / "never_match.json"
        never.write_text(
            json.dumps({"base_score": -50.0, "learning_rate": 0.2, "trees": []})
        )

        def n_clusters(model_path):
            argv = ["--input", in_dir, "--output", out_dir, "--model", model_path]
            assert run.main(argv) == 0
            cdf = rd.read_parquet(out_dir).to_pandas()
            assert len(cdf) == pages.count()
            return cdf["cluster_id"].nunique()

        assert n_clusters(MODEL_PATH) < pages.count()
        # a model that matches nothing leaves every page a singleton
        assert n_clusters(str(never)) == pages.count()

    def test_output_fingerprint_is_the_clusters_fingerprint(self, pages, tmp_path_factory):
        """``--output`` is fingerprinted with the pipeline's own clusters
        stage fingerprint, not a second hand-built chain."""
        from pubmed_and_method_ray import run

        tmp = tmp_path_factory.mktemp("run_entry_fp")
        in_dir, out_dir, workdir = (str(tmp / d) for d in ("pages", "out", "ckpt"))
        rd.from_pandas(pages.to_pandas()).write_parquet(in_dir)
        argv = ["--input", in_dir, "--output", out_dir, "--workdir", workdir]
        assert run.main(argv) == 0
        out_fp = ckpt.read_manifest(out_dir)["fingerprint"]
        assert out_fp == ckpt.read_manifest(os.path.join(workdir, "clusters"))["fingerprint"]


class TestOneCpuCluster:
    def test_generate_pairs_finishes_on_one_cpu(self, pages):
        """The pair stage and distributed connected components run on a
        1-CPU Ray cluster (no exchange actor holds a CPU their tasks
        need) and give the same pairs and clusters as on the test
        session's cluster."""
        import signal
        import subprocess
        import sys

        from pubmed_and_method_ray.pipelines.er import prepare_mentions
        from pubmed_and_method_ray.stages.blocking import generate_pairs
        from pubmed_and_method_ray.stages.cluster import assign_clusters

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = (
            "import ray, ray.data\n"
            "ray.init(address='local', num_cpus=1, include_dashboard=False,"
            " logging_level='ERROR')\n"
            "ray.data.DataContext.get_current().enable_progress_bars = False\n"
            "from pubmed_and_method_ray.pipelines.er import prepare_mentions\n"
            "from pubmed_and_method_ray.sources.pages import build_pages_dataset\n"
            "from pubmed_and_method_ray.stages.blocking import generate_pairs\n"
            f"pages = build_pages_dataset({SF!r}, expand_k=4)\n"
            "mentions = prepare_mentions(pages).materialize()\n"
            "print('PAIRS', generate_pairs(mentions, n_max=256).count())\n"
            "from tests.test_pipeline import _chain_edges, _digest\n"
            "from pubmed_and_method_ray.stages.cluster import assign_clusters\n"
            "cc = assign_clusters(mentions, _chain_edges(mentions), method='distributed')\n"
            "print('CLUSTERS', _digest(cc))\n"
            "ray.shutdown()\n"
        )
        env = dict(os.environ, PYTHONPATH=repo)
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=repo,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=180)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("generate_pairs did not finish on 1 Ray CPU in 180 s")
        assert proc.returncode == 0
        (line,) = [ln for ln in out.splitlines() if ln.startswith("PAIRS")]
        mentions = prepare_mentions(pages).materialize()
        assert int(line.split()[1]) == generate_pairs(mentions, n_max=256).count()
        (line,) = [ln for ln in out.splitlines() if ln.startswith("CLUSTERS")]
        drv = assign_clusters(mentions, _chain_edges(mentions), method="driver")
        assert line.split()[1] == _digest(drv)


def _chain_edges(mentions):
    """Chains of 5 consecutive urls (in sorted order) as match edges."""
    import pyarrow as pa

    urls = sorted(mentions.select_columns(["url"]).to_pandas()["url"])
    keep = [i for i in range(len(urls) - 1) if i % 5 != 4]
    return rd.from_arrow(
        pa.table({"url_1": [urls[i] for i in keep], "url_2": [urls[i + 1] for i in keep]})
    )


def _digest(clusters) -> str:
    import hashlib

    df = clusters.to_pandas().sort_values("url")
    lines = "\n".join(f"{u}\t{c}" for u, c in zip(df["url"], df["cluster_id"]))
    return hashlib.sha1(lines.encode()).hexdigest()


def _nodes_ds(nodes, col="url"):
    import pyarrow as pa

    return rd.from_arrow(pa.table({col: nodes}))


def _labels(ds, node_col="url", label_col="cluster_id"):
    df = ds.to_pandas()
    return dict(zip(df[node_col], df[label_col]))


class TestConnectedComponents:
    def test_distributed_matches_driver(self, pages, result):
        from pubmed_and_method_ray.stages.cluster import (
            connected_components_distributed,
            connected_components_driver,
        )
        from pubmed_and_method_ray.stages.features import edges_from_scores

        edges = edges_from_scores(result["scored"], 0.5).materialize()
        drv = connected_components_driver(edges)
        dist = connected_components_distributed(_nodes_ds(sorted(drv)), edges)
        assert _labels(dist) == drv  # same minimal-url labels

    def test_distributed_non_ascii_labels(self):
        """Convergence detection must not rely on an ASCII sentinel: labels
        containing codepoints >= U+0080 previously never converged."""
        import ray
        import pyarrow as pa

        from pubmed_and_method_ray.stages.cluster import (
            connected_components_distributed,
        )

        # chain of non-ASCII urls: é < ê < ë, plus a disjoint pair
        t = pa.Table.from_pydict(
            {
                "url_1": ["é", "ê", "ü1"],
                "url_2": ["ê", "ë", "ü2"],
            }
        )
        nodes = _nodes_ds(["é", "ê", "ë", "ü1", "ü2"])
        out = connected_components_distributed(nodes, ray.data.from_arrow(t))
        assert _labels(out) == {"é": "é", "ê": "é", "ë": "é", "ü1": "ü1", "ü2": "ü1"}

    def test_distributed_green_at_forced_high_partitions(self, monkeypatch):
        """assign_clusters' distributed path labels every mention (the
        singletons too) when the partition count is forced far above the
        data: most partitions receive no edge, and some no row at all."""
        import ray
        import pyarrow as pa

        import pubmed_and_method_ray.stages.cluster as cluster

        monkeypatch.setattr(cluster, "shuffle_partitions", lambda *a, **k: 37)

        # 3 chain components of 4 urls + 100 singleton mentions
        u = [f"u{i:03d}" for i in range(12)]
        edges = ray.data.from_arrow(
            pa.table(
                {
                    "url_1": [u[0], u[1], u[2], u[4], u[5], u[6], u[8], u[9], u[10]],
                    "url_2": [u[1], u[2], u[3], u[5], u[6], u[7], u[9], u[10], u[11]],
                }
            )
        )
        singles = [f"s{i:03d}" for i in range(100)]
        mentions = ray.data.from_arrow(
            pa.table({"url": u + singles, "x": list(range(112))})
        )
        out = cluster.assign_clusters(mentions, edges, method="distributed")
        want = {x: u[(i // 4) * 4] for i, x in enumerate(u)}
        want.update({s: s for s in singles})
        assert _labels(out) == want

    def test_partitions_without_rows_and_edges_without_nodes(self, monkeypatch):
        """8 partitions for 3 nodes leave at least 5 with no row. An edge
        endpoint missing from the nodes (``hub``) still carries labels
        but gets no row; a node repeated in the nodes gets a row each."""
        import ray
        import pyarrow as pa

        import pubmed_and_method_ray.stages.cluster as cluster

        monkeypatch.setattr(cluster, "shuffle_partitions", lambda *a, **k: 8)
        edges = ray.data.from_arrow(
            pa.table({"url_1": ["hub", "hub"], "url_2": ["b", "c"]})
        )
        out = cluster.connected_components_distributed(
            _nodes_ds(["c", "b", "c"]), edges
        ).to_pandas()
        assert sorted(zip(out["url"], out["cluster_id"])) == [
            ("b", "b"), ("c", "b"), ("c", "b")
        ]

    def test_distributed_without_edges(self):
        """0 edges: every node labels itself, on both entry points."""
        import ray
        import pyarrow as pa

        from pubmed_and_method_ray.stages.cluster import (
            assign_clusters,
            connected_components_distributed,
        )

        empty = pa.array([], pa.string())
        edges = ray.data.from_arrow(pa.table({"url_1": empty, "url_2": empty}))
        nodes = _nodes_ds(["x", "y", "z"])
        want = {"x": "x", "y": "y", "z": "z"}
        assert _labels(connected_components_distributed(nodes, edges)) == want
        assert _labels(assign_clusters(nodes, edges, method="distributed")) == want

    def test_distributed_long_chain(self):
        """An 8-node chain needs 8 rounds with shrinking frontiers."""
        import ray
        import pyarrow as pa

        from pubmed_and_method_ray.stages.cluster import (
            connected_components_distributed,
        )

        n = 8
        u = [f"c{i:02d}" for i in range(n)]
        t = pa.Table.from_pydict({"url_1": u[:-1], "url_2": u[1:]})
        out = connected_components_distributed(_nodes_ds(u), ray.data.from_arrow(t))
        assert _labels(out) == {x: u[0] for x in u}

    def test_sixty_node_chain_reaches_the_fixpoint(self):
        """A 60-node chain takes 60 rounds; the distributed path must run
        to the fixpoint and give the driver path's clusters."""
        import pyarrow as pa

        from pubmed_and_method_ray.stages.cluster import assign_clusters

        u = [f"k{(37 * i) % 60:02d}" for i in range(60)]  # k00 at one end
        edges = rd.from_arrow(pa.table({"url_1": u[:-1], "url_2": u[1:]}))
        mentions = _nodes_ds(u + ["alone"])
        drv = _labels(assign_clusters(mentions, edges, method="driver"))
        assert set(drv.values()) == {"k00", "alone"}
        assert _labels(assign_clusters(mentions, edges, method="distributed")) == drv

    def test_distributed_star(self):
        """A 100-leaf star: the hub's first message reaches every leaf,
        and the minimal leaf wins back through the hub."""
        import ray
        import pyarrow as pa

        from pubmed_and_method_ray.stages.cluster import (
            connected_components_distributed,
        )

        leaves = [f"a{i:02d}" for i in range(100)]
        t = pa.Table.from_pydict(
            {"url_1": ["z"] * 100, "url_2": leaves}
        )
        out = connected_components_distributed(
            _nodes_ds(leaves + ["z"]), ray.data.from_arrow(t)
        )
        assert _labels(out) == {x: "a00" for x in leaves + ["z"]}

    def test_distributed_consumes_edges_once(self, counting_ds):
        """The (possibly lazy) edge dataset's upstream must execute
        exactly once: one split pass seeds the partition state.
        Consuming edges twice re-executes the whole fused
        pair-gen/featurize/score exchange in the streaming production
        path (measured as ~2x flagship CC wall-time at 2M pages)."""
        from pubmed_and_method_ray.stages.cluster import (
            connected_components_distributed,
        )

        edges, runs = counting_ds({"url_1": ["a", "b"], "url_2": ["b", "c"]})
        out = connected_components_distributed(_nodes_ds(["a", "b", "c"]), edges)
        assert _labels(out) == {"a": "a", "b": "a", "c": "a"}
        assert runs() == 1

    def test_auto_over_budget_runs_edges_once(self, counting_ds, monkeypatch):
        """``auto`` past ``rayutil.DRIVER_EDGES`` hands the blocks it
        counted to the distributed path: the lazy edge upstream runs
        once, not once to count and again to cluster."""
        from pubmed_and_method_ray.stages.cluster import assign_clusters

        edges, runs = counting_ds({"url_1": ["a", "b", "d"], "url_2": ["b", "c", "e"]})
        nodes = _nodes_ds(["a", "b", "c", "d", "e", "f"])
        monkeypatch.setattr(rayutil, "DRIVER_EDGES", 1)
        out = assign_clusters(nodes, edges, method="auto")
        want = {"a": "a", "b": "a", "c": "a", "d": "d", "e": "d", "f": "f"}
        assert _labels(out) == want
        assert runs() == 1

    def test_driver_int_node_ids_without_edges(self):
        """Dedup's no-pairs case: int64 node ids, an empty edge set, the
        driver path; every node labels itself."""
        import pyarrow as pa

        from pubmed_and_method_ray.stages.cluster import assign_clusters

        ids = pa.array([3, 1, 2], pa.int64())
        empty = pa.array([], pa.int64())
        for edges in (
            rd.from_arrow(pa.table({"doc_id1": empty, "doc_id2": empty})),
            rd.from_items([]),
        ):
            out = assign_clusters(
                _nodes_ds(ids, "doc_id"),
                edges,
                method="driver",
                node_col="doc_id",
                edge_cols=("doc_id1", "doc_id2"),
                label_col="canonical_id",
            ).materialize()
            assert out.schema().base_schema.field("canonical_id").type == pa.int64()
            assert _labels(out, "doc_id", "canonical_id") == {1: 1, 2: 2, 3: 3}

    def test_distributed_int_node_ids(self):
        """Generic edge/node columns: int64 doc ids instead of url strings."""
        import ray
        import pyarrow as pa

        from pubmed_and_method_ray.stages.cluster import (
            connected_components_distributed,
        )

        t = pa.Table.from_pydict(
            {"a": pa.array([1, 2, 10], pa.int64()), "b": pa.array([2, 3, 11], pa.int64())}
        )
        nodes = _nodes_ds(pa.array([1, 2, 3, 10, 11, 12], pa.int64()), "doc_id")
        out = connected_components_distributed(
            nodes,
            ray.data.from_arrow(t),
            edge_cols=("a", "b"),
            node_col="doc_id",
            label_col="root",
        )
        got = _labels(out, "doc_id", "root")
        assert got == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 12: 12}


class TestClusterPairs:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pairs_match_brute_force(self, monkeypatch, n):
        """cluster_pairs gives every within-cluster pair (url_1 < url_2)
        once, for 1, 2 and 3 partitions; singleton clusters give none."""
        import itertools

        import pyarrow as pa

        import pubmed_and_method_ray.stages.cluster as cluster

        monkeypatch.setattr(cluster, "shuffle_partitions", lambda *a, **k: n)
        rng = np.random.default_rng(n)
        urls = [f"http://h{i % 7}/p{i:03d}" for i in range(120)]
        cids = [f"c{int(c):02d}" for c in rng.integers(0, 40, len(urls))]
        cids[:10] = [f"solo{i}" for i in range(10)]
        order = rng.permutation(len(urls))
        t = pa.table({"url": [urls[i] for i in order], "cluster_id": [cids[i] for i in order]})
        members: dict = {}
        for u, c in zip(urls, cids):
            members.setdefault(c, []).append(u)
        want = sorted(
            p for m in members.values() for p in itertools.combinations(sorted(m), 2)
        )
        ds = rd.from_arrow([t.slice(0, 50), t.slice(50)])
        df = cluster.cluster_pairs(ds).to_pandas()
        assert sorted(zip(df["url_1"], df["url_2"])) == want
