"""Pair-generation cross-implementation oracle (the reference's own test
pattern: SQL pair-gen checked against an independent Python script,
/root/reference/database/and_datasets.sql:87-105). Brute-force itertools
per (host, any-band-agreement) must equal the pipeline output exactly —
including when mega-block salting kicks in."""

import itertools

import pytest
import ray.data as rd

from pubmed_and_method_ray.sources.pages import pages_from_documents_batch
from pubmed_and_method_ray.stages.blocking import generate_pairs
from pubmed_and_method_ray.stages.mention_prep import extract_stage, normalize_batch

import numpy as np
import pyarrow as pa


def _mentions_table(n_docs=40, expand_k=4):
    batch = pa.Table.from_pydict(
        {
            "doc_id": list(range(n_docs)),
            "text": [
                " ".join(f"w{i % 7}t{j}" for j in range(50)) for i in range(n_docs)
            ],
            "lang": ["en"] * n_docs,
        }
    )
    pages = pages_from_documents_batch(batch, expand_k=expand_k, n_hosts=5)
    return normalize_batch(extract_stage(pages))


def _brute_force_pairs(mentions: pa.Table) -> set[tuple[str, str]]:
    rows = list(
        zip(
            mentions["url"].to_pylist(),
            mentions["host"].to_pylist(),
            mentions["bands"].to_pylist(),
        )
    )
    expected = set()
    for (u1, h1, b1), (u2, h2, b2) in itertools.combinations(rows, 2):
        if h1 == h2 and any(x == y for x, y in zip(b1, b2)):
            expected.add((min(u1, u2), max(u1, u2)))
    return expected


@pytest.fixture(scope="module")
def mentions():
    return _mentions_table()


class TestPairGeneration:
    def _run(self, mentions, n_max):
        ds = rd.from_arrow(mentions)
        pairs = generate_pairs(ds, n_max=n_max, keep_gold=True)
        t = pairs.select_columns(["url_1", "url_2", "label"]).to_pandas()
        got = set(zip(t["url_1"], t["url_2"]))
        assert len(got) == len(t), "duplicate pairs emitted"
        return got, t

    def test_matches_brute_force_unsalted(self, mentions):
        got, _ = self._run(mentions, n_max=100_000)
        assert got == _brute_force_pairs(mentions)

    def test_matches_brute_force_salted(self, mentions):
        """Tiny n_max forces S>1 salting on every real block; coverage and
        dedup must still be exact (the hard part of SURVEY.md §7.4)."""
        got, _ = self._run(mentions, n_max=8)
        assert got == _brute_force_pairs(mentions)

    def test_canonical_order(self, mentions):
        _, t = self._run(mentions, n_max=64)
        assert (t["url_1"] < t["url_2"]).all()

    def test_labels_match_entity_equality(self, mentions):
        ds = rd.from_arrow(mentions)
        pairs = generate_pairs(ds, n_max=100_000, keep_gold=True)
        t = pairs.select_columns(["url_1", "url_2", "label"]).to_pandas()
        ent = dict(
            zip(mentions["url"].to_pylist(), mentions["entity_id"].to_pylist())
        )
        for u1, u2, lab in zip(t["url_1"], t["url_2"], t["label"]):
            assert lab == (1 if ent[u1] == ent[u2] else 0)

    def test_block_size_is_host_size(self, mentions):
        """block_size (the trained path's ``ambiguity`` = log1p of it) is
        the pair's host mention count: exact for every unsalted host, the
        census count for a host the census salts."""
        from pubmed_and_method_ray.stages import blocking

        hh = blocking._host_hashes(mentions)
        host_of = dict(zip(mentions["url"].to_pylist(), hh.tolist()))
        keys, n_hosts = np.unique(hh, return_counts=True)
        exact = dict(zip(keys.tolist(), n_hosts.tolist()))
        ds = rd.from_arrow(mentions)
        census_k, census_n = blocking.skew_table_fast(ds, 8)
        salted = {
            k: n for k, n in zip(census_k.tolist(), census_n.tolist()) if n > 8
        }
        assert salted  # n_max=8 salts the fixture's hosts
        for n_max, census in ((100_000, {}), (8, salted)):
            t = generate_pairs(ds, n_max=n_max, keep_gold=True).select_columns(
                ["url_1", "block_size"]
            ).to_pandas()
            assert len(t)
            for u, size in zip(t["url_1"], t["block_size"]):
                h = host_of[u]
                assert size == census.get(h, exact[h])

    def test_gold_entities_connected_by_blocking(self, mentions):
        """Blocking recall on planted clusters: transitive clustering only
        needs every entity's pages to form ONE connected component in the
        candidate-pair graph (the SONG same-lastname-block property;
        direct-pair misses healed by transitivity are fine)."""
        blocked = _brute_force_pairs(mentions)
        ent = dict(
            zip(mentions["url"].to_pylist(), mentions["entity_id"].to_pylist())
        )
        urls_by_ent = {}
        for u, e in ent.items():
            urls_by_ent.setdefault(e, []).append(u)

        direct_total = direct_hit = 0
        for e, urls in urls_by_ent.items():
            urls = sorted(urls)
            for u1, u2 in itertools.combinations(urls, 2):
                direct_total += 1
                direct_hit += (u1, u2) in blocked
            # connectivity within the entity through blocked pairs
            if len(urls) > 1:
                comp = {urls[0]}
                frontier = [urls[0]]
                while frontier:
                    x = frontier.pop()
                    for y in urls:
                        if y not in comp and (min(x, y), max(x, y)) in blocked:
                            comp.add(y)
                            frontier.append(y)
                assert comp == set(urls), f"entity {e} split by blocking"
        assert direct_total > 0
        assert direct_hit / direct_total >= 0.90  # direct-pair recall floor


class TestPartitionScaling:
    def test_partition_counts_grow_past_64(self):
        """Exchange sizing must scale with the CLUSTER, not cap at a
        constant tuned for this 32-cpu box (at 100 TB a 64-way cap means
        ~1.6 TB per pair partition)."""
        from pubmed_and_method_ray.rayutil import shuffle_partitions
        from pubmed_and_method_ray.stages.blocking import (
            PAIR_BUCKET_BYTES,
            n_pair_buckets,
        )

        # small-box behavior: two pair buckets per CPU (measured — see
        # n_pair_buckets docstring tuning history)
        assert shuffle_partitions(cpus=32) == 32
        assert n_pair_buckets(cpus=32) == 64
        # big simulated clusters blow straight past 64
        assert shuffle_partitions(cpus=1024) == 1024
        assert shuffle_partitions(factor=2, cpus=4096) == 8192
        assert n_pair_buckets(cpus=2048) == 4096
        # data-aware: known volume grows buckets past the CPU count so a
        # partition block stays bounded at ~PAIR_BUCKET_BYTES
        assert n_pair_buckets(cpus=32, n_bytes=PAIR_BUCKET_BYTES * 100) == 100
        assert n_pair_buckets(cpus=32, n_bytes=1 << 20) == 64
        # rows-aware interpolation inside the [cpus, 2*cpus] clamp
        # (measured operating points: ~200k mentions -> ~cpus buckets,
        # ~400k -> 2*cpus; tiny inputs floor at one per CPU)
        assert n_pair_buckets(cpus=32, n_rows=199_826) == 34
        assert n_pair_buckets(cpus=32, n_rows=399_714) == 64
        assert n_pair_buckets(cpus=32, n_rows=1_210) == 32

    def test_sized_partitions_bytes_target(self):
        from pubmed_and_method_ray.rayutil import sized_partitions

        # small exchange shrinks below one-per-cpu
        assert sized_partitions(10_000, hi=64) == 2
        # byte volume grows the count past the cpu cap
        assert (
            sized_partitions(10_000, hi=64, n_bytes=(256 << 20) * 500) == 500
        )

    def test_pairs_green_at_forced_high_partitions(self, mentions, monkeypatch):
        """Brute-force pair oracle must hold when the exchange runs with
        far more partitions than CPUs or data (mostly-empty partitions +
        salting both active)."""
        import pubmed_and_method_ray.stages.blocking as blocking

        monkeypatch.setattr(blocking, "n_pair_buckets", lambda **kw: 48)
        ds = rd.from_arrow(mentions)
        pairs = blocking.generate_pairs(ds, n_max=8, keep_gold=True)
        t = pairs.select_columns(["url_1", "url_2"]).to_pandas()
        got = set(zip(t["url_1"], t["url_2"]))
        assert len(got) == len(t), "duplicate pairs emitted"
        assert got == _brute_force_pairs(mentions)


def _blocks(ds):
    import ray

    return [ray.get(ref) for ref in ds.to_arrow_refs()]


class TestKeyedExchange:
    """rayutil.keyed_exchange: block i of the output holds exactly the
    rows whose partition column is i, as one contiguous block."""

    def _table(self, n_rows, n_parts):
        import numpy as np

        rng = np.random.default_rng(5)
        return pa.table(
            {
                "x": pa.array(np.arange(n_rows), pa.int64()),
                "s": pa.array([f"r{i}" for i in range(n_rows)], pa.string()),
                # values skip some partitions: those blocks come back empty
                "part": pa.array(
                    rng.integers(0, n_parts, n_rows) // 2 * 2, pa.int32()
                ),
            }
        )

    def test_rows_land_in_their_block(self):
        from pubmed_and_method_ray.rayutil import keyed_exchange

        n = 9
        t = self._table(300, n)
        ds = rd.from_arrow([t.slice(0, 70), t.slice(70, 130), t.slice(200)])
        blocks = _blocks(keyed_exchange(ds, "part", n))
        assert len(blocks) == n
        for i, b in enumerate(blocks):
            assert b.schema == t.schema
            assert set(b["part"].to_pylist()) <= {i}
            assert all(c.num_chunks <= 1 for c in b.columns)
        assert sorted(x for b in blocks for x in b["x"].to_pylist()) == list(range(300))
        assert any(b.num_rows == 0 for b in blocks)
        with pytest.raises(Exception):
            _blocks(keyed_exchange(ds, "part", n - 1))

    def test_single_partition_empty_and_multi_chunk_inputs(self):
        from pubmed_and_method_ray.rayutil import keyed_exchange

        t = self._table(120, 1)
        (one,) = _blocks(keyed_exchange(rd.from_arrow(t), "part", 1))
        assert one.equals(t)

        # one empty block, and no block at all
        for ds in (rd.from_arrow(t.slice(0, 0)), rd.from_arrow(t).limit(0)):
            empty = _blocks(keyed_exchange(ds, "part", 4))
            assert [b.num_rows for b in empty] == [0] * 4
            assert all(b.schema == t.schema for b in empty)

        t = self._table(200, 6)
        chunked = pa.concat_tables([t.slice(0, 50), t.slice(50, 50), t.slice(100)])
        assert chunked["x"].num_chunks == 3
        blocks = _blocks(keyed_exchange(rd.from_arrow(chunked), "part", 6))
        for i, b in enumerate(blocks):
            want = t.filter(pa.compute.equal(t["part"], i))
            assert b.equals(want)  # input order kept within a block

    def test_groups_equal_ray_keyed_repartition(self):
        """Same rows, same grouping as Ray's own keyed repartition (used
        here only as the reference)."""
        from pubmed_and_method_ray.rayutil import keyed_exchange

        n = 8
        t = self._table(400, n)
        ds = rd.from_arrow([t.slice(0, 150), t.slice(150)])

        def groups(blocks):
            out = {}
            for b in blocks:
                for p in set(b["part"].to_pylist()):
                    assert p not in out, "a partition value split over blocks"
                    rows = b.filter(pa.compute.equal(b["part"], p))
                    out[p] = sorted(rows["x"].to_pylist())
            return out

        ours = groups(_blocks(keyed_exchange(ds, "part", n)))
        # the engine leaves Ray's shuffle strategy at its default, under
        # which a keyed repartition raises; the reference opts in to the
        # hash shuffle for this one Dataset (contexts snapshot at creation)
        from ray.data.context import DataContext, ShuffleStrategy

        ctx = DataContext.get_current()
        saved = ctx.shuffle_strategy
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        try:
            ref_ds = rd.from_arrow([t.slice(0, 150), t.slice(150)])
            ref = groups(_blocks(ref_ds.repartition(num_blocks=n, keys=["part"])))
        finally:
            ctx.shuffle_strategy = saved
        assert ours == ref

    def test_chained_exchanges_with_an_empty_partition(self):
        """A map between two exchanges hands an empty partition on as a
        0-row block without columns; the second exchange must take it
        as n_parts empty slices, while bad values still raise."""
        import numpy as np

        from pubmed_and_method_ray.rayutil import _split_by_part, keyed_exchange

        t = self._table(200, 6)  # even partition values only: 1, 3, 5 empty
        first = keyed_exchange(rd.from_arrow([t.slice(0, 90), t.slice(90)]), "part", 6)
        assert any(b.num_rows == 0 for b in _blocks(first))

        def rekey(b):  # partition by x instead
            return b.set_column(2, "part", pa.array(np.asarray(b["x"]) % 4, pa.int32()))

        second = keyed_exchange(
            first.map_batches(rekey, batch_format="pyarrow", batch_size=None), "part", 4
        )
        blocks = _blocks(second)
        assert len(blocks) == 4
        for i, b in enumerate(blocks):
            assert b.schema == t.schema
            assert [x % 4 for x in b["x"].to_pylist()] == [i] * b.num_rows
        assert sorted(x for b in blocks for x in b["x"].to_pylist()) == list(range(200))

        bare = pa.table({})
        assert [s.num_rows for s in _split_by_part(bare, "part", 3)] == [0, 0, 0]
        assert _split_by_part(bare, "part", 1).num_rows == 0
        for bad in ([0, 3], [0, None], [-1]):
            with pytest.raises(ValueError):
                _split_by_part(pa.table({"part": pa.array(bad, pa.int32())}), "part", 3)


class TestHeavyHostPacking:
    def test_lpt_pack_balances_quadratic_work(self):
        import numpy as np

        from pubmed_and_method_ray.rayutil import lpt_buckets

        # zipf-ish host sizes; hash assignment would lump the head
        counts = np.array([500, 400, 300, 200, 100, 100, 90, 80], np.int64)
        buckets = lpt_buckets(counts**2, 4)
        assert buckets.min() >= 0 and buckets.max() < 4
        w = counts.astype(float) ** 2
        loads = np.bincount(buckets, weights=w, minlength=4)
        # LPT guarantee: max load within 4/3 of optimum,
        # optimum >= max(mean load, largest single host)
        assert loads.max() <= (4 / 3) * max(w.sum() / 4, w.max()) + 1
        # the two biggest hosts must land in different buckets
        assert buckets[0] != buckets[1]


class TestSkewCensus:
    def test_distributed_census_matches_driver_merge(self, mentions, monkeypatch):
        """The off-driver (keyed-exchange) census path must agree exactly
        with the driver-merge path: only over-threshold hosts, sorted."""
        from pubmed_and_method_ray import rayutil
        from pubmed_and_method_ray.stages.blocking import skew_table_fast

        ds = rd.from_arrow(mentions)
        k_drv, n_drv = skew_table_fast(ds, n_max=8, sample_mod=1)
        monkeypatch.setattr(rayutil, "DRIVER_ROWS", 0)
        k_dst, n_dst = skew_table_fast(ds, n_max=8, sample_mod=1)
        assert k_drv.dtype == k_dst.dtype == np.uint64
        assert (k_drv == k_dst).all()
        assert (n_drv == n_dst).all()
        assert len(k_drv) > 0  # n_max=8 makes every real host heavy
        assert (np.diff(k_drv.astype(object)) > 0).all()  # sorted, unsigned

    def test_checkpoint_read_back_all_paths_agree(self, mentions, tmp_path, monkeypatch):
        """On a checkpoint read-back both merge paths agree."""
        from pubmed_and_method_ray import rayutil
        from pubmed_and_method_ray.stages import blocking

        ds = _checkpoint_read_back(mentions, str(tmp_path / "mentions"))
        k_auto, n_auto = blocking.skew_table_fast(ds, n_max=8)
        monkeypatch.setattr(rayutil, "DRIVER_ROWS", 0)
        k_dst, n_dst = blocking.skew_table_fast(ds, n_max=8)
        assert len(k_auto) > 0
        assert (k_dst == k_auto).all() and (n_dst == n_auto).all()


def _checkpoint_read_back(mentions, stage_dir):
    """Write ``mentions`` as a stage checkpoint (three files) and return
    the checkpoint's lazy parquet read-back, as a resume gets it."""
    from pubmed_and_method_ray.sources import checkpoint as ckpt

    ckpt.checkpoint(rd.from_arrow(mentions).repartition(3), stage_dir, "mentions", "fp")
    return ckpt.checkpoint(None, stage_dir, "mentions", "fp")


class TestKnownSize:
    def test_checkpoint_read_back_sized_from_footers(self, mentions, tmp_path):
        """A pure parquet read reports (rows, bytes) without executing:
        the sizes survive deleting the files, which an executed read
        could not."""
        import os

        from pubmed_and_method_ray.rayutil import known_size

        stage_dir = str(tmp_path / "mentions")
        ds = _checkpoint_read_back(mentions, stage_dir)
        expect_bytes = ds.size_bytes()
        for f in os.listdir(stage_dir):
            if f.endswith(".parquet"):
                os.remove(os.path.join(stage_dir, f))
        n_rows, n_bytes = known_size(ds)
        assert n_rows == mentions.num_rows
        assert n_bytes == expect_bytes > 0

    def test_read_then_map_is_unsized_and_not_executed(self, mentions, tmp_path):
        from pubmed_and_method_ray.rayutil import known_size

        marker = tmp_path / "executed"

        def touch(b):
            marker.write_text("x")
            return b

        ds = _checkpoint_read_back(mentions, str(tmp_path / "mentions"))
        mapped = ds.map_batches(touch, batch_format="pyarrow")
        assert known_size(mapped) == (None, None)
        assert not marker.exists()
