"""Tests for the extension surface: feature groups, scalers, ascii
folding / text cleaning kernels."""

import numpy as np
import pytest

from pubmed_and_method_ray.functions.feature_groups import (
    FEATURE_GROUPS,
    get_feature_set,
    select_features,
)
from pubmed_and_method_ray.functions.scaling import (
    MinMaxStandardScaler,
    fit_scaler_distributed,
    transform_features,
)
from pubmed_and_method_ray.functions.textkernels import ascii_fold, clean_text
from pubmed_and_method_ray.stages.features import FEATURE_NAMES


class TestTextKernels:
    def test_ascii_fold(self):
        assert ascii_fold("Crème Brûlée") == "creme brulee"
        assert ascii_fold("Ångström") == "angstrom"
        assert ascii_fold(None) == ""

    def test_clean_text(self):
        assert clean_text("AbC-12 d;;e!") == "abc d e"
        assert clean_text("") == ""
        assert clean_text("  x   Y  ") == "x y"


class TestFeatureGroups:
    def test_all_groups_subset_of_features(self):
        for name, cols in FEATURE_GROUPS.items():
            assert set(cols) <= set(FEATURE_NAMES), name

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_feature_set("nope")

    def test_select_features(self):
        import ray.data as rd
        import pandas as pd

        df = pd.DataFrame(
            {"url_1": ["a"], "url_2": ["b"], "label": [1], **{c: [0.5] for c in FEATURE_NAMES}}
        )
        out = select_features(rd.from_pandas(df), "text_features")
        assert set(out.schema().names) == {
            "url_1", "url_2", "label",
            "jaccard_tokens", "jaccard_shingles", "tfidf_cosine", "simhash_sim",
        }


class TestScaler:
    def test_driver_roundtrip(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3)) * [1, 10, 100] + [0, 5, -50]
        Z = MinMaxStandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1, atol=1e-9)

    def test_constant_column_safe(self):
        X = np.ones((10, 2))
        Z = MinMaxStandardScaler().fit_transform(X)
        assert np.isfinite(Z).all()

    def test_distributed_matches_driver(self):
        import ray.data as rd
        import pandas as pd

        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 2)) * [3, 7] + [1, -2]
        cols = ["a", "b"]
        df = pd.DataFrame(X, columns=cols)
        ds = rd.from_pandas(df)
        sc_d = fit_scaler_distributed(ds, cols)
        sc_l = MinMaxStandardScaler().fit(X)
        assert np.allclose(sc_d.min_, sc_l.min_)
        assert np.allclose(sc_d.mean_, sc_l.mean_, atol=1e-12)
        assert np.allclose(sc_d.std_, sc_l.std_, atol=1e-9)
        out = transform_features(ds, sc_d, cols).to_pandas()
        assert np.allclose(
            out[cols].to_numpy(), sc_l.transform(X), atol=1e-9
        )


class TestRedactPii:
    def test_kernel_counts_and_masks(self):
        import pyarrow as pa

        from pubmed_and_method_ray.pipelines.text_analysis import redact_pii_batch

        texts = pa.array(
            [
                "mail a.b-c+1@x.example.org now",
                "call 555-123-4567 or 555-000-1111",
                "both: z@y.io and 555-999-0000",
                "clean text, no pii",
                "at sign only @ not an email; 555-12-34 not a phone",
            ],
            pa.large_string(),
        )
        red, n_em, n_ph = redact_pii_batch(texts)
        assert n_em.to_pylist() == [1, 0, 1, 0, 0]
        assert n_ph.to_pylist() == [0, 2, 1, 0, 0]
        out = red.to_pylist()
        assert out[0] == "mail [EMAIL] now"
        assert out[1] == "call [PHONE] or [PHONE]"
        assert out[2] == "both: [EMAIL] and [PHONE]"
        assert out[3] == "clean text, no pii"
        assert out[4] == "at sign only @ not an email; 555-12-34 not a phone"


class TestHllSketch:
    def test_estimate_within_error_bound(self):
        import numpy as np

        from pubmed_and_method_ray.pipelines.text_analysis import (
            HLL_M,
            HLL_REG_CAP,
            hll_estimate,
            hll_partial_registers,
        )

        n = 100_000
        regs = np.zeros(HLL_M, dtype=np.uint8)
        for lo in range(0, n, 20_000):  # merge across batches by max
            batch = [f"tok{i}" for i in range(lo, min(n, lo + 20_000))]
            regs = np.maximum(regs, hll_partial_registers(batch))
        n_zero = int((regs == 0).sum())
        harmonic = n_zero * (1 << HLL_REG_CAP) + int(
            np.sum(1 << (HLL_REG_CAP - regs[regs > 0].astype(np.int64)))
        )
        est = hll_estimate(n_zero, harmonic)
        # std error for m=4096 is ~1.04/sqrt(m) = 1.6%; allow 5%
        assert abs(est - n) / n < 0.05

    def test_registers_merge_by_max_and_dedupe(self):
        import numpy as np

        from pubmed_and_method_ray.pipelines.text_analysis import (
            hll_partial_registers,
        )

        a = [f"t{i}" for i in range(500)]
        b = [f"t{i}" for i in range(250, 750)]
        merged = np.maximum(hll_partial_registers(a), hll_partial_registers(b))
        whole = hll_partial_registers(a + b)
        assert np.array_equal(merged, whole)
        # duplicates are free: register state is max-idempotent
        assert np.array_equal(whole, hll_partial_registers(a + b + a))


class TestBloomSemiJoin:
    def test_no_false_negatives_and_multiplicity(self):
        import pyarrow.parquet as pq

        from pubmed_and_method_ray.pipelines.relational import bloom_semi_join

        sf = "/root/testdata/sf0.001"
        out = bloom_semi_join(sf).to_pandas()
        orders = pq.read_table(
            f"{sf}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
        ).to_pandas()
        li = pq.read_table(
            f"{sf}/lineitem.parquet", columns=["l_orderkey"]
        ).to_pandas()
        urgent = set(
            orders[orders.o_orderpriority == "1-URGENT"].o_orderkey
        ) & set(li.l_orderkey)
        got = set(out.l_orderkey)
        # Bloom guarantee: every true member passes
        assert urgent <= got
        # pass set stays close to truth (fp rate ~(1-e^-kn/m)^k, tiny here)
        assert len(got) <= len(urgent) * 1.05 + 10
        # probe is a row filter: multiplicity of passing keys preserved
        assert len(out) == int(li.l_orderkey.isin(got).sum())


class TestCmsHeavyHitters:
    def test_never_underestimates_and_finds_head(self):
        from collections import Counter

        import pyarrow.parquet as pq

        from pubmed_and_method_ray.pipelines.text_analysis import heavy_hitters_cms

        sf = "/root/testdata/sf0.001"
        out = heavy_hitters_cms(sf, k=10)
        texts = pq.read_table(f"{sf}/documents.parquet", columns=["text"])[
            "text"
        ].to_pylist()
        truth = Counter(w for t in texts for w in (t or "").split(" "))
        assert len(out) == 10
        for token, est in zip(out.token, out.est_count):
            assert est >= truth[token]  # CMS one-sided error
        # the true most frequent token survives sketching into the top set
        top_true = max(truth, key=lambda w: (truth[w], w))
        assert top_true in set(out.token)


class TestCleanParquetReads:
    def test_no_raw_read_parquet_in_package(self):
        """Every parquet read must go through sources.io.read_parquet_clean:
        a schema still carrying the writer's b'pandas' metadata is
        unhashable and makes every hash-shuffle aggregator log 'Failed to
        hash the schemas' and fall through to the slow unify path."""
        import pathlib

        pkg = pathlib.Path("pubmed_and_method_ray")
        offenders = []
        for p in pkg.rglob("*.py"):
            if p.name == "io.py" and p.parent.name == "sources":
                continue
            for i, line in enumerate(p.read_text().splitlines(), 1):
                if "rd.read_parquet(" in line or "ray.data.read_parquet(" in line:
                    offenders.append(f"{p}:{i}")
        assert not offenders, f"raw read_parquet calls: {offenders}"


class TestSchemaCleanReads:
    def test_dirty_file_reads_clean_with_input_files(self, ray_session):
        """Files with pandas writer metadata must yield metadata-free
        blocks AT THE READ (schema= pushdown, no strip stage) so Ray's
        block-schema dedup never logs 'Failed to hash the schemas' from
        inside the fused ReadParquet task — and input_files() stays
        visible for partition-pruned reads."""
        import pyarrow.parquet as pq

        from pubmed_and_method_ray.sources.io import read_parquet_clean

        src = "/root/testdata/sf0.001/region.parquet"
        assert pq.ParquetFile(src).schema_arrow.metadata is not None
        ds = read_parquet_clean(src)
        assert ds.input_files() == [src]
        b = ds.take_batch(5, batch_format="pyarrow")
        assert b.schema.metadata is None
        hash(b.schema)  # the exact op Ray's dedup needs to not raise

    def test_column_pruned_dirty_read(self, ray_session):
        from pubmed_and_method_ray.sources.io import read_parquet_clean

        ds = read_parquet_clean(
            "/root/testdata/sf0.001/region.parquet", columns=["r_name"]
        )
        b = ds.take_batch(3, batch_format="pyarrow")
        assert b.column_names == ["r_name"] and b.schema.metadata is None

    def test_no_raw_from_pandas_in_package(self):
        """Blocks born INSIDE map stages must also be metadata-free:
        pa.Table.from_pandas attaches b'pandas' schema metadata, which
        re-dirties partial-aggregate outputs and makes downstream
        join/shuffle aggregators log 'Failed to hash the schemas'.
        Stages must use relational._from_pandas (or strip explicitly)."""
        import pathlib

        offenders = []
        for p in pathlib.Path("pubmed_and_method_ray").rglob("*.py"):
            for i, line in enumerate(p.read_text().splitlines(), 1):
                if "pa.Table.from_pandas(" in line and "replace_schema_metadata" not in line:
                    offenders.append(f"{p}:{i}")
        assert not offenders, f"raw from_pandas calls: {offenders}"

    def test_from_pandas_helper_is_clean(self):
        import pandas as pd

        from pubmed_and_method_ray.pipelines.relational import _from_pandas

        t = _from_pandas(pd.DataFrame({"a": [1, 2]}))
        assert t.schema.metadata is None
        hash(t.schema)


class TestAnnIndexedAtRest:
    def test_indexed_read_touches_only_probed_partitions(self, ray_session):
        """The bucket-partitioned ANN variant must READ only the probed
        lsh_bucket= partitions (partition-filter pushdown at rest), and
        return exactly the filtered-scan variant's rows."""
        import os

        from pubmed_and_method_ray.pipelines.similarity import (
            _load_query_vec,
            ann_topk_lsh,
            ann_topk_lsh_indexed,
            build_lsh_index,
            probed_partition_files,
        )
        from pubmed_and_method_ray.sources.io import read_parquet_clean

        sf = "/root/testdata/sf0.001"
        idx_dir = build_lsh_index(sf)
        total_parts = sum(
            1 for d in os.listdir(idx_dir) if d.startswith("lsh_bucket=")
        )
        q = _load_query_vec(sf, 0)
        paths = probed_partition_files(idx_dir, q, 8)
        assert paths, "indexed read found no partitions"
        touched = {f.split("lsh_bucket=")[1].split("/")[0] for f in paths}
        # probe set is qsig + 8 single-bit flips = at most 9 buckets
        assert len(touched) <= 9 < total_parts
        # the physical read plan sees exactly those files (index files are
        # metadata-free, so read_parquet_clean skips the strip stage and
        # input_files() stays visible)
        assert sorted(read_parquet_clean(paths).input_files()) == sorted(paths)
        got = ann_topk_lsh_indexed(sf).to_pandas().reset_index(drop=True)
        want = ann_topk_lsh(sf).to_pandas().reset_index(drop=True)
        assert got.equals(want)

    def test_index_reused_and_invalidated(self, ray_session):
        import os

        from pubmed_and_method_ray.pipelines.similarity import build_lsh_index

        sf = "/root/testdata/sf0.001"
        d1 = build_lsh_index(sf)
        m = os.path.join(d1, "_index_fingerprint")
        t1 = os.path.getmtime(m)
        d2 = build_lsh_index(sf)  # reuse: marker untouched
        assert d1 == d2 and os.path.getmtime(m) == t1
        with open(m, "w") as f:
            f.write("stale")  # corrupt -> rebuild
        build_lsh_index(sf)
        assert open(m).read() != "stale"

    def test_ivf_indexed_read_touches_only_probed_partitions(self, ray_session):
        """IVF at rest: the read set is bounded by n_probe of n_lists
        ivf_list= partitions and the result equals the filtered-scan
        variant exactly."""
        import os

        from pubmed_and_method_ray.pipelines.similarity import (
            _load_query_vec,
            ann_topk_ivf,
            ann_topk_ivf_indexed,
            build_ivf_index,
            ivf_probed_partition_files,
        )
        from pubmed_and_method_ray.sources.io import read_parquet_clean

        sf = "/root/testdata/sf0.001"
        idx_dir = build_ivf_index(sf)
        total_parts = sum(
            1 for d in os.listdir(idx_dir) if d.startswith("ivf_list=")
        )
        q = _load_query_vec(sf, 0)
        paths, _ = ivf_probed_partition_files(idx_dir, q, 4)
        assert paths, "indexed read found no partitions"
        touched = {f.split("ivf_list=")[1].split("/")[0] for f in paths}
        assert len(touched) <= 4 < total_parts
        assert sorted(read_parquet_clean(paths).input_files()) == sorted(paths)
        got = ann_topk_ivf_indexed(sf).to_pandas().reset_index(drop=True)
        want = ann_topk_ivf(sf).to_pandas().reset_index(drop=True)
        assert got.equals(want)


class TestSizedReadBlocks:
    """Bytes-aware read parallelism for exchange-bound relational reads
    (sources.io.sized_read_blocks): push cost in Ray's hash shuffle is
    blocks x partitions, so tiny tables must not be shredded to the
    2-blocks/CPU floor, while huge inputs must still grow block counts
    (anti-OOM)."""

    def test_small_table_floors_at_quarter_cpus(self):
        from pubmed_and_method_ray.sources.io import sized_read_blocks

        # 2 MB events table at 32 cpus: ceil(2MB/1MiB)=2 -> floor cpus//4
        n = sized_read_blocks("/root/testdata/sf0.001/events.parquet", cpus=32)
        assert n == 8

    def test_medium_table_scales_with_bytes(self):
        from pubmed_and_method_ray.sources.io import sized_read_blocks

        n = sized_read_blocks(
            "/root/testdata/sf0.001/events.parquet",
            cpus=32,
            bytes_per_block=256,
        )
        # bytes/256B far exceeds 2*cpus: capped at the global read floor
        assert n == 64

    def test_huge_input_grows_past_cap(self):
        from pubmed_and_method_ray.sources.io import sized_read_blocks

        # force the anti-OOM term: max_block_bytes of 256 B means even
        # the cap cannot hold the block count down
        n = sized_read_blocks(
            "/root/testdata/sf0.001/events.parquet",
            cpus=32,
            max_block_bytes=256,
        )
        import os

        sz = os.path.getsize("/root/testdata/sf0.001/events.parquet")
        assert n == -(-sz // 256) and n > 64

    def test_unknowable_returns_none(self):
        from pubmed_and_method_ray.sources.io import sized_read_blocks

        assert sized_read_blocks("/no/such/file.parquet") is None
        assert sized_read_blocks(["/no/such/dir/"]) is None

    def test_sized_read_matches_clean_read(self, ray_session):
        from pubmed_and_method_ray.sources.io import (
            read_parquet_clean,
            read_parquet_sized,
        )

        src = "/root/testdata/sf0.001/events.parquet"
        a = read_parquet_clean(src).to_pandas().sort_values("event_id")
        b = read_parquet_sized(src).to_pandas().sort_values("event_id")
        assert a.reset_index(drop=True).equals(b.reset_index(drop=True))
        bl = read_parquet_sized(src).take_batch(5, batch_format="pyarrow")
        assert bl.schema.metadata is None


class TestSizedGroupbyAgg:
    """Budget-guarded grouped aggregate (rayutil.sized_groupby_agg):
    the driver pyarrow merge and the distributed hash-aggregate exchange
    must be row- and value-identical for every supported fn, and the
    auto path must route on the byte budget."""

    def _ds(self):
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "k": ["a", "b", "a", "c", "b", "a"],
                    "k2": [1, 1, 2, 1, 1, 2],
                    "v": [5, 2, 3, 4, 1, 9],
                }
            )
        )

    def test_forced_paths_identical_all_fns(self, ray_session):
        from pubmed_and_method_ray.rayutil import sized_groupby_agg

        specs = [
            ("v", "sum", "v_sum"),
            ("v", "min", "v_min"),
            ("v", "max", "v_max"),
            ("", "count", "n"),
        ]
        out = {}
        for forced in (True, False):
            df = (
                sized_groupby_agg(
                    self._ds(), ["k", "k2"], specs, driver=forced,
                    num_partitions=2,
                )
                .to_pandas()
                .sort_values(["k", "k2"])
                .reset_index(drop=True)
            )
            out[forced] = df[sorted(df.columns)]
        assert out[True].equals(out[False])
        assert list(out[True]["n"]) == [1, 2, 2, 1]

    def test_forced_paths_identical_distinct(self, ray_session):
        from pubmed_and_method_ray.rayutil import sized_groupby_agg

        outs = [
            sized_groupby_agg(
                self._ds().select_columns(["k", "k2"]), ["k", "k2"], [],
                driver=forced, num_partitions=2,
            )
            .to_pandas()
            .sort_values(["k", "k2"])
            .reset_index(drop=True)
            for forced in (True, False)
        ]
        assert outs[0].equals(outs[1]) and len(outs[0]) == 4

    def test_auto_routes_on_budget(self, ray_session):
        from pubmed_and_method_ray.rayutil import sized_groupby_agg

        small = sized_groupby_agg(
            self._ds(), ["k"], [("v", "sum", "s")], n_bytes=100
        )
        big = sized_groupby_agg(
            self._ds(), ["k"], [("v", "sum", "s")], n_bytes=1 << 40,
            num_partitions=2,
        )
        # driver path materializes eagerly to a single from_arrow block;
        # the exchange path stays a lazy plan
        from ray.data.dataset import MaterializedDataset

        assert isinstance(small, MaterializedDataset)
        assert not isinstance(big, MaterializedDataset)
        a = small.to_pandas().sort_values("k").reset_index(drop=True)
        b = big.to_pandas().sort_values("k").reset_index(drop=True)
        assert a.equals(b)


class TestDocKeywordsPaths:
    """doc_keywords' broadcast-DF small path and join-based distributed
    fallback (forced via rayutil.DRIVER_BYTES = 0) must be row-identical."""

    def test_forced_paths_identical(self, ray_session, monkeypatch):
        from pubmed_and_method_ray import rayutil
        from pubmed_and_method_ray.pipelines.text_analysis import doc_keywords

        sf = "/root/testdata/sf0.001"
        a = (
            doc_keywords(sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        monkeypatch.setattr(rayutil, "DRIVER_BYTES", 0)
        b = (
            doc_keywords(sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert len(a) == 500 and a.equals(b)


class TestSizedBroadcastJoin:
    """Budget-guarded broadcast inner join (rayutil.sized_broadcast_join):
    the searchsorted broadcast path and Dataset.join must agree, misses
    must drop, and duplicate right keys must fall back to the real join."""

    def _sides(self):
        import pyarrow as pa
        import ray.data as rd

        left = rd.from_arrow(
            pa.table({"k": [1, 2, 3, 4, 2], "lv": [10, 20, 30, 40, 21]})
        )
        right = rd.from_arrow(pa.table({"k": [2, 3, 9], "rv": ["b", "c", "z"]}))
        return left, right

    def test_forced_paths_identical(self, ray_session):
        from pubmed_and_method_ray.rayutil import sized_broadcast_join

        left, right = self._sides()
        outs = []
        for forced in (True, False):
            df = (
                sized_broadcast_join(
                    left, right, "k", driver=forced, num_partitions=2
                )
                .to_pandas()
                .sort_values(["k", "lv"])
                .reset_index(drop=True)
            )
            outs.append(df[sorted(df.columns)])
        assert outs[0].equals(outs[1])
        # inner semantics: k=1,4 dropped; k=2 matches twice on the left
        assert list(outs[0]["k"]) == [2, 2, 3]

    def test_duplicate_right_keys_fall_back(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from pubmed_and_method_ray.rayutil import sized_broadcast_join

        left = rd.from_arrow(pa.table({"k": [1, 2], "lv": [10, 20]}))
        right = rd.from_arrow(pa.table({"k": [2, 2], "rv": ["x", "y"]}))
        out = (
            sized_broadcast_join(left, right, "k", driver=True, num_partitions=2)
            .to_pandas()
            .sort_values(["k", "rv"])
            .reset_index(drop=True)
        )
        # multiplicity preserved: the dup-key right side forces the real
        # join, which emits BOTH matches for k=2
        assert list(out["rv"]) == ["x", "y"]

    def test_gathered_right_side_runs_once(self, ray_session, counting_ds):
        """A dup-key right side falls back to the keyed join on the blocks
        it gathered: its plan runs once."""
        import pyarrow as pa
        import ray.data as rd

        from pubmed_and_method_ray.rayutil import sized_broadcast_join

        left = rd.from_arrow(pa.table({"k": [1, 2], "lv": [10, 20]}))
        right, runs = counting_ds({"k": [2, 2], "rv": ["x", "y"]})
        out = sized_broadcast_join(left, right, "k", driver=True, num_partitions=2)
        assert sorted(out.to_pandas()["rv"]) == ["x", "y"]
        assert runs() == 1


class TestHeavyKeyCensus:
    """``rayutil.heavy_key_census``: the driver merge and the keyed
    exchange (budget patched to 0) agree on every key kind the skew
    guards feed it."""

    @staticmethod
    def _partials(keys, typ):
        import pyarrow as pa

        rng = np.random.RandomState(5)
        blocks = []
        for b in range(4):
            pick = rng.randint(0, len(keys), 60)
            ks, ns = np.unique(pick, return_counts=True)
            blocks.append(
                pa.table(
                    {
                        "key": pa.array([keys[i] for i in ks], typ),
                        "n": pa.array(ns, pa.int64()),
                    }
                )
            )
        return blocks

    @pytest.mark.parametrize("kind", ["uint64", "int64", "string", "empty"])
    def test_forced_exchange_matches_driver(self, ray_session, monkeypatch, kind):
        from collections import Counter

        import pyarrow as pa
        import ray.data as rd

        from pubmed_and_method_ray import rayutil

        keys, typ = {
            # pair-gen host hashes (top bit set on three), asof keys
            "uint64": ([(1 << 63) + 7, 3, (1 << 64) - 1, 1 << 63, 11], pa.uint64()),
            "int64": ([-5, 0, 7, 1 << 40, 2], pa.int64()),
            "string": (["b", "a", "ü", "", "zz"], pa.string()),
            "empty": ([], pa.int64()),
        }[kind]
        blocks = self._partials(keys, typ) if keys else [
            pa.table({"key": pa.array([], typ), "n": pa.array([], pa.int64())})
        ]
        want = Counter()
        for t in blocks:
            for k, n in zip(t["key"].to_pylist(), t["n"].to_pylist()):
                want[k] += n * 2
        want = {k: n for k, n in want.items() if n > 90}

        def census():
            k, n = rayutil.heavy_key_census(rd.from_arrow(blocks), 90, 2)
            return k.to_pylist(), n.tolist()

        auto = census()
        monkeypatch.setattr(rayutil, "DRIVER_ROWS", 0)
        assert census() == auto
        assert auto == (sorted(want), [want[k] for k in sorted(want)])
        assert bool(want) == bool(keys)


def _keyed_rows():
    """Hypothesis rows for the keyed primitives: a nullable string key, a
    nullable uint64 key with values past 2^63, an int value."""
    from hypothesis import strategies as st

    return st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "cc", "", None]),
            st.sampled_from([0, 1, 2**63, 2**64 - 1, None]),
            st.integers(-5, 5),
        ),
        max_size=24,
    )


def _sorted_rows(t):
    return sorted(map(repr, t.to_pylist()))


class TestKeyedPrimitives:
    """The keyed exchange primitives against one driver-side pyarrow
    group_by/join over the concatenated input: string + uint64 keys
    (values >= 2^63 included), null keys, partitions that get no row
    (more partitions than keys, and an empty input block)."""

    def _ds(self, rows, cut):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table(
            {
                "k": pa.array([r[0] for r in rows], pa.string()),
                "u": pa.array([r[1] for r in rows], pa.uint64()),
                "v": pa.array([r[2] for r in rows], pa.int64()),
            }
        )
        cut = min(cut, t.num_rows)
        return t, rd.from_arrow([t.slice(0, cut), t.slice(0, 0), t.slice(cut)])

    @staticmethod
    def _table(ds):
        import pyarrow as pa
        import ray

        return pa.concat_tables(ray.get(ds.to_arrow_refs()), promote_options="default")

    def test_grouped_aggregate_and_map_groups_match_pyarrow(self, ray_session):
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        import pyarrow as pa

        from pubmed_and_method_ray.rayutil import keyed_map_groups, sized_groupby_agg

        specs = [("v", "sum", "s"), ("v", "min", "lo"), ("", "count", "n")]

        @given(_keyed_rows(), st.integers(0, 24), st.integers(1, 7))
        @example(  # null keys in both blocks, more partitions than keys
            [(None, None, 1), (None, None, 2), ("a", 2**63, 3), (None, 2**63, 4)]
            + [(None, None, 5), ("a", 2**63, 6), ("", None, 7), (None, None, 8)],
            3,
            7,
        )
        @settings(max_examples=20, deadline=None)
        def check(rows, cut, n_parts):
            t, ds = self._ds(rows, cut)
            want = t.group_by(["k", "u"]).aggregate(
                [("v", "sum"), ("v", "min"), ([], "count_all")]
            ).rename_columns(["k", "u", "s", "lo", "n"])
            if not want.num_rows:
                assert self._table(sized_groupby_agg(ds, ["k"], specs, driver=False)).num_rows == 0
                return
            got = self._table(
                sized_groupby_agg(ds, ["k", "u"], specs, driver=False, num_partitions=n_parts)
            )
            assert _sorted_rows(got.select(want.column_names)) == _sorted_rows(want)
            distinct = self._table(
                sized_groupby_agg(ds, ["k", "u"], [], driver=False, num_partitions=n_parts)
            )
            assert _sorted_rows(distinct) == _sorted_rows(want.select(["k", "u"]))

            def one_row(g):
                return pa.table({"k": g["k"].slice(0, 1), "u": g["u"].slice(0, 1), "n": [g.num_rows]})

            groups = self._table(keyed_map_groups(ds, ["k", "u"], one_row, n_parts))
            assert _sorted_rows(groups.select(["k", "u", "n"])) == _sorted_rows(
                want.select(["k", "u", "n"])
            )

        check()

    def test_keyed_join_matches_pyarrow(self, ray_session):
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from pubmed_and_method_ray.rayutil import keyed_join

        right_rows = st.lists(
            st.tuples(st.sampled_from([0, 1, 2**63, 2**64 - 1, None]), st.integers(0, 9)),
            max_size=8,
        )

        @given(_keyed_rows(), right_rows, st.integers(0, 24), st.integers(1, 7))
        @example(  # a repeated right key >= 2^63 multiplies its left rows
            [("a", 2**63, 1), ("b", None, 2), ("c", 1, 3), ("d", 2**63, 4)],
            [(2**63, 5), (2**63, 6), (None, 7)],
            1,
            5,
        )
        @settings(max_examples=10, deadline=None)
        def check(rows, rrows, cut, n_parts):
            t, _ = self._ds(rows, cut)
            # a list-typed non-key column on the left
            t = t.append_column(
                "l", pa.array([[i] * (i % 3) for i in range(t.num_rows)], pa.list_(pa.uint32()))
            )
            cut = min(cut, t.num_rows)
            left = rd.from_arrow([t.slice(0, cut), t.slice(cut)])
            rt = pa.table(
                {
                    "u": pa.array([r[0] for r in rrows], pa.uint64()),
                    "w": pa.array([r[1] for r in rrows], pa.int64()),
                }
            )
            got = self._table(keyed_join(left, rd.from_arrow(rt), "u", n_parts))
            # reference: one pyarrow join of the whole sides; the list
            # column rides as its row index (pyarrow rejects it in a join)
            lt = t.drop_columns(["l"]).append_column(
                "row", pa.array(np.arange(t.num_rows), pa.int64())
            )
            j = lt.join(rt, "u", join_type="inner")
            want = j.append_column("l", t["l"].take(j["row"])).drop_columns(["row"])
            if not want.num_rows:
                assert got.num_rows == 0
                return
            assert _sorted_rows(got.select(want.column_names)) == _sorted_rows(want)

        check()


class TestRepetitionMetrics:
    """Gopher-style within-doc repetition metrics certified inside
    quality_score: the segment kernel must match a per-doc scalar
    reference on newline-heavy / repetitive texts the synthetic corpus
    doesn't contain."""

    TEXTS = [
        "spam spam spam spam",                      # one token dominates
        "a b c d e",                                # all distinct
        "line one\nline one\nline two",             # duplicate lines
        "x\nx\nx\nx",                               # all-dup lines
        "",                                         # empty -> [''] both
        "Mixed CASE mixed case\nMixed CASE mixed case",  # lower() folds tokens
        "solo",
    ]

    def _expected(self, text):
        toks = (text or "").lower().split(" ")
        lines = (text or "").split("\n")
        from collections import Counter

        tc = Counter(toks)
        return {
            "n_tokens": len(toks),
            "n_lines": len(lines),
            "dup_line_frac": (len(lines) - len(set(lines))) / len(lines),
            "dup_token_frac": (len(toks) - len(set(toks))) / len(toks),
            "top_token_frac": max(tc.values()) / len(toks),
        }

    def test_segment_kernel_matches_scalar(self):
        import pyarrow as pa

        from pubmed_and_method_ray.pipelines import text_analysis as ta

        t = pa.table(
            {
                "doc_id": pa.array(range(len(self.TEXTS)), pa.int64()),
                "text": pa.array(self.TEXTS, pa.string()),
            }
        )
        # drive the batch fn exactly as the query does
        captured = {}
        orig = ta._read_documents

        class FakeDS:
            def map_batches(self, f, **kw):
                captured["out"] = f(t)
                return self

        try:
            ta._read_documents = lambda sf, cols=None: FakeDS()
            ta.quality_score("unused")
        finally:
            ta._read_documents = orig
        out = captured["out"].to_pydict()
        for i, text in enumerate(self.TEXTS):
            want = self._expected(text)
            for k, v in want.items():
                assert out[k][i] == v, (k, i, out[k][i], v)

    def test_segment_distinct_top_empty_rows(self):
        import pyarrow as pa

        from pubmed_and_method_ray.pipelines.text_analysis import (
            _segment_distinct_top,
        )

        vals = pa.array(["a", "a", "b"], pa.string())
        offs = np.array([0, 0, 2, 2, 3], dtype=np.int64)  # rows 0,2 empty
        d, top = _segment_distinct_top(vals, offs)
        assert d.tolist() == [0, 1, 0, 1]
        assert top.tolist() == [0, 2, 0, 1]


class TestDriverBudgetTable:
    """Every driver-or-exchange limit lives in rayutil's budget table:
    no other package file spells a budget value, and no package
    function takes a budget parameter (a test or a soak forces a path
    by setting the rayutil constant)."""

    def test_budgets_live_in_rayutil(self):
        import ast
        import pathlib
        import re

        import pubmed_and_method_ray as pkg

        values = ("32 << 20", "5_000_000", "2_000_000", "250_000", "4_000_000")
        param = re.compile(r"budget|^driver_max_|^broadcast_max_|^band_driver_rows$")
        files = sorted(pathlib.Path(pkg.__file__).parent.rglob("*.py"))
        assert any(f.name == "rayutil.py" for f in files)
        for path in files:
            src = path.read_text()
            if path.name != "rayutil.py":
                assert [v for v in values if v in src] == [], path
            funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            for node in ast.walk(ast.parse(src)):
                if not isinstance(node, funcs):
                    continue
                a = node.args
                args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                bad = [x.arg for x in args if x is not None and param.search(x.arg)]
                assert bad == [], (path, getattr(node, "name", "<lambda>"))
