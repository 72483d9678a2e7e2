"""Brute-force parity for the near-dup dedup family on synthetic
corpora, including the adversarial shapes the oracles can't force:
mega (lang, source) blocks that trigger salting, '|' characters inside
block-key values, and degenerate LSH buckets."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pubmed_and_method_ray import rayutil
from pubmed_and_method_ray.pipelines import dedup


def _write_docs(tmp_path, rows):
    df = pd.DataFrame(rows)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def _brute_pairs(rows, threshold=None):
    """All within-(lang, source) pairs with token-set jaccard."""
    out = set()
    res = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            if (a["lang"], a["source"]) != (b["lang"], b["source"]):
                continue
            sa = set((a["text"] or "").lower().split(" "))
            sb = set((b["text"] or "").lower().split(" "))
            inter = len(sa & sb)
            union = len(sa | sb)
            jac = inter / union if union else 0.0
            if threshold is not None and jac < threshold:
                continue
            lo, hi = sorted((a["doc_id"], b["doc_id"]))
            key = (lo, hi)
            assert key not in out
            out.add(key)
            res.append((lo, hi, round(jac, 9)))
    return sorted(res)


def _got_pairs(ds):
    df = ds.to_pandas()
    got = sorted(
        (int(r.doc_id1), int(r.doc_id2), round(float(r.jaccard), 9))
        for r in df.itertuples(index=False)
    )
    # exactly-once emission
    assert len({(a, b) for a, b, _ in got}) == len(got)
    return got


def _mk_rows(rng, n, langs, sources, vocab=30):
    rows = []
    for i in range(n):
        toks = [f"w{rng.integers(0, vocab)}" for _ in range(rng.integers(1, 12))]
        rows.append(
            {
                "doc_id": int(i + 1),
                "text": " ".join(toks),
                "lang": langs[rng.integers(0, len(langs))],
                "source": sources[rng.integers(0, len(sources))],
            }
        )
    return rows


class TestPairJaccardDocs:
    def test_matches_brute_force_unsalted(self, ray_session, tmp_path):
        rng = np.random.default_rng(7)
        rows = _mk_rows(rng, 40, ["en", "de"], ["a", "b"])
        sf = _write_docs(tmp_path, rows)
        got = _got_pairs(dedup.pair_jaccard_docs(sf))
        assert got == _brute_pairs(rows)

    def test_matches_brute_force_salted(self, ray_session, tmp_path):
        """n_max=4 forces S>1 triangle replication on every block; pair
        coverage must stay exact and exactly-once."""
        rng = np.random.default_rng(11)
        rows = _mk_rows(rng, 50, ["en"], ["a", "b"])
        sf = _write_docs(tmp_path, rows)
        got = _got_pairs(dedup.pair_jaccard_docs(sf, n_max=4))
        assert got == _brute_pairs(rows)

    def test_thresholded_salted(self, ray_session, tmp_path):
        rng = np.random.default_rng(13)
        rows = _mk_rows(rng, 30, ["en"], ["a"], vocab=8)
        sf = _write_docs(tmp_path, rows)
        got = _got_pairs(dedup.pair_jaccard_docs(sf, threshold=0.5, n_max=4))
        assert got == _brute_pairs(rows, threshold=0.5)

    def test_pipe_in_block_values_does_not_collide(self, ray_session, tmp_path):
        """lang='a|b', source='c' must NOT pair with lang='a',
        source='b|c' (the round-2 delimiter-ambiguity advisory)."""
        rows = [
            {"doc_id": 1, "text": "x y z", "lang": "a|b", "source": "c"},
            {"doc_id": 2, "text": "x y z", "lang": "a", "source": "b|c"},
            {"doc_id": 3, "text": "x y w", "lang": "a|b", "source": "c"},
        ]
        sf = _write_docs(tmp_path, rows)
        got = _got_pairs(dedup.pair_jaccard_docs(sf))
        assert [(a, b) for a, b, _ in got] == [(1, 3)]


def _mk_cluster_rows(texts_by_cluster):
    """One row per (cluster, copy); identical text within a cluster."""
    rows, doc_id = [], 1
    for text, n in texts_by_cluster:
        for _ in range(n):
            rows.append(
                {"doc_id": doc_id, "text": text, "lang": "en", "source": "a"}
            )
            doc_id += 1
    return rows


class TestMinhashLsh:
    def test_band_rows_carry_no_sketch_payload(self, ray_session):
        """The LSH exchange schema is (band_key, doc_id) ONLY — the
        round-2 version shipped each doc's full shingle set on every
        band row (16x payload amplification)."""
        t = pa.table({"doc_id": [1, 2], "text": ["a b c d e", "a b c d f"]})
        sk = dedup._SketchBander()(t)
        assert sk.schema.names == ["doc_id", "sh", "bands"]
        assert sk.schema.field("sh").type == pa.large_binary()
        bands = dedup._explode_bands(sk)
        assert bands.schema.names == ["band_key", "doc_id"]
        assert bands.num_rows == 2 * 16

    def test_binary_u64_roundtrip_with_slice(self):
        off = np.array([0, 3, 3, 5], dtype=np.int64)
        flat = np.arange(5, dtype=np.uint64) * np.uint64(1 << 60)
        col = dedup._u64_rows_to_binary(off, flat)
        o2, v2 = dedup._binary_to_u64_rows(col)
        assert np.array_equal(o2, off)
        assert np.array_equal(v2[o2[0]:o2[-1]], flat)
        sl = col.slice(1, 2)  # rows 1..2
        o3, v3 = dedup._binary_to_u64_rows(sl)
        assert np.array_equal(o3, off[1:4])
        assert np.array_equal(v3[o3[0]:o3[-1]], flat[3:5])

    def test_adversarial_mega_bucket_salted(self, ray_session, tmp_path, monkeypatch):
        """60 identical docs collapse into ONE bucket per band; n_max=8
        forces triangle salting. All C(60,2) pairs must come out exactly
        once with jaccard 1.0, in bounded per-task work."""
        n = 60
        rows = [
            {"doc_id": i + 1, "text": "the quick brown fox jumps over the lazy dog"}
            for i in range(n)
        ]
        sf = _write_docs(tmp_path, rows)
        # LSH_BAND_DRIVER_ROWS = 0 forces the exchange path (the driver
        # band fast path would otherwise bypass salting entirely)
        monkeypatch.setattr(rayutil, "LSH_BAND_DRIVER_ROWS", 0)
        got = _got_pairs(dedup.dedup_minhash_lsh(sf, n_max=8))
        want = sorted(
            (i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        )
        assert got == want

    def test_mixed_corpus_unsalted_vs_salted_identical(
        self, ray_session, tmp_path, monkeypatch
    ):
        """Salting is a pure execution strategy: results must be
        byte-identical with and without forced bucket splitting."""
        rng = np.random.default_rng(23)
        rows = []
        for c in range(6):
            base = [f"tok{c}_{k}" for k in range(20)]
            for m in range(4):
                toks = list(base)
                if m:
                    toks[m] = f"mut{c}_{m}"
                rows.append({"doc_id": len(rows) + 1, "text": " ".join(toks)})
        for i in range(10):
            rows.append(
                {
                    "doc_id": len(rows) + 1,
                    "text": " ".join(f"uniq{i}_{k}" for k in range(15)),
                }
            )
        sf = _write_docs(tmp_path, rows)
        a = _got_pairs(dedup.dedup_minhash_lsh(sf))
        monkeypatch.setattr(rayutil, "LSH_BAND_DRIVER_ROWS", 0)
        b = _got_pairs(dedup.dedup_minhash_lsh(sf, n_max=2))
        assert a == b
        assert len(a) > 0

    def test_driver_band_path_matches_exchange_path(
        self, ray_session, tmp_path, monkeypatch
    ):
        """The driver band fast path (one driver sort instead of the band
        exchange) is a pure execution strategy: identical output to
        the forced exchange construction, including the over-pair-budget
        fall-through inside a small band table."""
        rng = np.random.default_rng(31)
        rows = []
        for c in range(5):
            base = [f"tok{c}_{k}" for k in range(20)]
            for m in range(3):
                toks = list(base)
                if m:
                    toks[m] = f"mut{c}_{m}"
                rows.append({"doc_id": len(rows) + 1, "text": " ".join(toks)})
        sf = _write_docs(tmp_path, rows)
        a = _got_pairs(dedup.dedup_minhash_lsh(sf))  # driver band path
        with monkeypatch.context() as m:
            m.setattr(rayutil, "LSH_BAND_DRIVER_ROWS", 0)
            b = _got_pairs(dedup.dedup_minhash_lsh(sf))
        assert a == b
        assert len(a) > 0
        # tiny pair budget: small band table but est_pairs over budget
        # falls through to the exchange construction — same rows again
        monkeypatch.setattr(rayutil, "LSH_DRIVER_PAIRS", 0)
        c = _got_pairs(dedup.dedup_minhash_lsh(sf))
        assert c == a


class TestCanonicalDocs:
    def _corpus(self, tmp_path):
        rows = _mk_cluster_rows(
            [
                ("alpha beta gamma delta epsilon zeta", 3),
                ("one two three four five six seven", 2),
                ("red orange yellow green blue indigo", 1),
            ]
        )
        return _write_docs(tmp_path, rows), rows

    def test_driver_and_distributed_paths_agree(
        self, ray_session, tmp_path, monkeypatch
    ):
        sf, rows = self._corpus(tmp_path)
        drv = (
            dedup.dedup_canonical_docs(sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # DRIVER_EDGES = 0 forces the distributed label-propagation path
        monkeypatch.setattr(rayutil, "DRIVER_EDGES", 0)
        dist = (
            dedup.dedup_canonical_docs(sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            drv, dist.astype(drv.dtypes.to_dict())
        )
        got = dict(zip(drv["doc_id"], drv["canonical_id"]))
        assert got == {1: 1, 2: 1, 3: 1, 4: 4, 5: 4, 6: 6}
        assert (
            drv.set_index("doc_id")["is_canonical"].to_dict()
            == {1: 1, 2: 0, 3: 0, 4: 1, 5: 0, 6: 1}
        )


def _near_dup_rows():
    """Five clusters of three near-copies plus unique docs, with repeated
    8-token spans for shared-window dedup and one bucket wide enough to
    be salted at n_max=2."""
    rows = []
    for c in range(5):
        base = [f"tok{c}_{k}" for k in range(20)]
        for m in range(3):
            toks = list(base)
            if m:
                toks[m] = f"mut{c}_{m}"
            rows.append({"doc_id": len(rows) + 1, "text": " ".join(toks)})
    for i in range(6):
        rows.append(
            {"doc_id": len(rows) + 1, "text": " ".join(f"u{i}_{k}" for k in range(12))}
        )
    return rows


def _window_rows(ds):
    df = ds.to_pandas()
    return sorted(
        (int(a), int(b), int(c))
        for a, b, c in zip(df["doc_id1"], df["doc_id2"], df["shared_windows"])
    )


class TestTaskExchanges:
    def test_shared_window_and_lsh_start_no_actors(
        self, ray_session, tmp_path, monkeypatch
    ):
        """Both dedup_docs operators run on plain tasks: no Ray actor
        (shuffle aggregator, actor-pool worker) is created."""
        import ray._private.state as ray_state
        import ray.data as rd

        sf = _write_docs(tmp_path, _near_dup_rows())
        rd.range(4).materialize()  # Ray Data's own per-session actors
        before = set(ray_state.actors())
        assert len(_window_rows(dedup.dedup_shared_window(sf))) > 0
        want = _got_pairs(dedup.dedup_minhash_lsh(sf))
        assert len(want) > 0
        # over the candidate budget: the two-round task verify
        monkeypatch.setattr(rayutil, "LSH_DRIVER_PAIRS", 0)
        assert _got_pairs(dedup.dedup_minhash_lsh(sf)) == want
        assert set(ray_state.actors()) - before == set()

    def test_distributed_canonical_docs_start_no_actors(
        self, ray_session, tmp_path, monkeypatch
    ):
        """Past its edge budget, canonical dedup runs connected
        components on plain tasks too."""
        import ray._private.state as ray_state
        import ray.data as rd

        def rows(ds):
            return sorted(map(tuple, ds.to_pandas().to_numpy().tolist()))

        sf = _write_docs(tmp_path, _near_dup_rows())
        want = rows(dedup.dedup_canonical_docs(sf))
        rd.range(4).materialize()  # Ray Data's own per-session actors
        before = set(ray_state.actors())
        monkeypatch.setattr(rayutil, "DRIVER_EDGES", 0)
        assert rows(dedup.dedup_canonical_docs(sf)) == want
        assert set(ray_state.actors()) - before == set()
        assert len(want) == 21 and sum(r[2] for r in want) < 21

    def test_over_budget_verify_forms_candidates_once(
        self, ray_session, tmp_path, monkeypatch
    ):
        """Past ``rayutil.LSH_DRIVER_PAIRS`` the task verify gets the candidate
        blocks the budget pass already made: the band pairing runs once
        per partition, not once more for the verify."""
        calls = tmp_path / "calls"
        calls.mkdir()
        pair_buckets = dedup._direct_bucket_pairs

        def counting(t, n_max):
            import uuid

            (calls / uuid.uuid4().hex).touch()
            return pair_buckets(t, n_max)

        sf = _write_docs(tmp_path, _near_dup_rows())
        want = _got_pairs(dedup.dedup_minhash_lsh(sf))
        monkeypatch.setattr(dedup, "_direct_bucket_pairs", counting)
        monkeypatch.setattr(dedup, "shuffle_partitions", lambda *a, **k: 2)
        monkeypatch.setattr(dedup, "sized_partitions", lambda *a, **k: 2)
        monkeypatch.setattr(rayutil, "LSH_BAND_DRIVER_ROWS", 0)
        monkeypatch.setattr(rayutil, "LSH_DRIVER_PAIRS", 0)
        got = dedup.dedup_minhash_lsh(sf)
        assert _got_pairs(got) == want and len(want) > 0
        assert len(list(calls.iterdir())) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_do_not_depend_on_partition_count(
        self, ray_session, tmp_path, monkeypatch, n
    ):
        """Every exchange of shared-window and forced-exchange LSH
        (band, salted overflow, candidate dedup) gives the same rows for
        1, 2 and 3 partitions."""
        rows = _near_dup_rows()
        sf = _write_docs(tmp_path, rows)
        want_sw = _window_rows(dedup.dedup_shared_window(sf))
        want_lsh = _got_pairs(dedup.dedup_minhash_lsh(sf))
        assert want_sw and want_lsh
        monkeypatch.setattr(dedup, "shuffle_partitions", lambda *a, **k: n)
        monkeypatch.setattr(dedup, "sized_partitions", lambda *a, **k: n)
        assert _window_rows(dedup.dedup_shared_window(sf)) == want_sw
        monkeypatch.setattr(rayutil, "LSH_BAND_DRIVER_ROWS", 0)
        monkeypatch.setattr(rayutil, "LSH_DRIVER_PAIRS", 0)
        got = dedup.dedup_minhash_lsh(sf, n_max=2)
        assert _got_pairs(got) == want_lsh


def _windows(text, k):
    """Brute-force window strings of ``str_split(lower(text), ' ')``."""
    toks = (text or "").lower().split(" ")
    if len(toks) < k:
        return {" ".join(toks)}
    return {" ".join(toks[j : j + k]) for j in range(len(toks) - k + 1)}


# DuckDB's window construction, as in test_certified (8-token windows)
_WINDOW_SQL = (
    "WITH t AS (SELECT doc_id, str_split(lower(text), ' ') AS toks FROM {tab}), "
    "g AS (SELECT doc_id, CASE WHEN len(toks) < 8 "
    "THEN [array_to_string(toks, ' ')] "
    "ELSE list_transform(generate_series(1, len(toks) - 7), "
    "i -> array_to_string(toks[i:i+7], ' ')) END AS grams FROM t) "
)


class TestGramKernel:
    def test_distinct_gram_count_matches_window_strings(self):
        """Per doc, ``_doc_grams`` returns as many sorted-distinct gram
        hashes as the doc has distinct window strings, for null, empty,
        short and repetitive docs and several window sizes."""
        rng = np.random.default_rng(5)
        texts = [None, "", "a", "a a", "x  y", "A b A b A b A b A b"]
        texts += [
            " ".join(f"w{v}" for v in rng.integers(0, 4, rng.integers(1, 25)))
            for _ in range(60)
        ]
        for k in (1, 2, 3, 8):
            distinct, ranks, off = dedup._doc_grams(
                pa.array(texts, pa.string()), k, 0x57
            )
            assert off[0] == 0 and off[-1] == len(ranks)
            assert np.all(distinct[1:] > distinct[:-1])
            flat = distinct[ranks]
            for i, text in enumerate(texts):
                row = flat[off[i] : off[i + 1]]
                assert len(row) == len(_windows(text, k)), (k, text)
                assert np.all(row[1:] > row[:-1])
        distinct, ranks, off = dedup._doc_grams(pa.array([], pa.string()), 8, 0x57)
        assert len(distinct) == len(ranks) == 0 and list(off) == [0]

    def test_lowering_matches_duckdb(self, tmp_path):
        """Docs that differ only by 'ΣΑΣ'/'σασ' (or 'İ'/'i') inside one
        8-token window share that window under DuckDB's ``lower``, so
        shared-window dedup pairs them and decontamination flags them,
        exactly as the DuckDB constructions do."""
        import duckdb

        tail = "b c d e f g h"
        rows = [
            {"doc_id": 1, "text": f"ΣΑΣ {tail}"},
            {"doc_id": 2, "text": f"σασ {tail}"},
            {"doc_id": 3, "text": f"İ {tail} z"},
            {"doc_id": 4, "text": f"i {tail} y"},
            {"doc_id": 5, "text": "unrelated words only here"},
        ]
        sf = _write_docs(tmp_path, rows)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')"
        )
        want_sw = sorted(
            tuple(map(int, r))
            for r in con.execute(
                _WINDOW_SQL.format(tab="documents")
                + ", h AS (SELECT DISTINCT doc_id, unnest(grams) AS gram FROM g) "
                "SELECT a.doc_id, b.doc_id, count(*) FROM h a JOIN h b "
                "USING (gram) WHERE a.doc_id < b.doc_id GROUP BY 1, 2"
            ).fetchall()
        )
        assert want_sw == [(1, 2, 1), (3, 4, 1)]
        assert _window_rows(dedup.dedup_shared_window(sf)) == want_sw

        bench = [f"σασ {tail}", f"i {tail}"]
        con.register("bench", pa.table({"doc_id": [0, 1], "text": bench}))
        want_dc = {
            int(d): int(n)
            for d, n in con.execute(
                _WINDOW_SQL.format(tab="documents")
                + ", b AS (SELECT list_distinct(flatten(list(grams))) AS bg "
                "FROM (" + _WINDOW_SQL.format(tab="bench") + "SELECT * FROM g)) "
                "SELECT doc_id, len(list_intersect(list_distinct(grams), bg)) "
                "FROM g, b"
            ).fetchall()
        }
        assert want_dc == {1: 1, 2: 1, 3: 1, 4: 1, 5: 0}
        got = dedup.decontaminate(sf, bench).to_pandas()
        assert dict(zip(got["doc_id"], got["n_hits"])) == want_dc
        assert (got["contaminated"] == (got["n_hits"] > 0)).all()


class TestArrowLowering:
    def test_sigma_docs_match_duckdb(self, ray_session, tmp_path):
        """'ΣΑΣ b' and 'σασ b' lower to the same text under DuckDB's
        ``lower`` (Python's ``str.lower`` gives 'σας b'): the pair
        jaccard is 1.0 and both fingerprints agree, as in the oracles."""
        import duckdb

        import __ray_entry__ as entry
        from pubmed_and_method_ray.pipelines import text_analysis

        rows = [
            {"doc_id": 1, "text": "ΣΑΣ b", "lang": "el", "source": "a"},
            {"doc_id": 2, "text": "σασ b", "lang": "el", "source": "a"},
        ]
        sf = _write_docs(tmp_path, rows)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')"
        )
        sql = entry.oracle_sql()
        rows = con.execute(sql["pair_jaccard_docs"]).fetchall()
        want = [(a, b, j) for a, b, _, _, j in rows]
        assert want == [(1, 2, 1.0)]
        assert _got_pairs(dedup.pair_jaccard_docs(sf)) == want

        want = sorted(con.execute(sql["doc_rolling_fingerprint"]).fetchall())
        assert want[0][1:] == want[1][1:]
        got = text_analysis.doc_rolling_fingerprint(sf).to_pandas()
        got = got[["doc_id", "rolling_fp", "fp"]].itertuples(index=False, name=None)
        assert sorted(got) == want
        got = text_analysis.doc_fingerprint(sf).to_pandas()
        assert sorted(got[["doc_id", "fp"]].itertuples(index=False, name=None)) == [
            (d, fp) for d, _, fp in want
        ]


class TestBandKeys:
    def _sketch(self):
        rows = _near_dup_rows()
        rows += [dict(r, doc_id=r["doc_id"] + 100) for r in rows[:6]]
        return dedup._SketchBander()(
            pa.table(
                {
                    "doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
                    "text": [r["text"] for r in rows],
                }
            )
        )

    def test_binary_keys_group_like_signature_strings(self):
        """Bucketing on the binary band keys groups docs exactly as the
        ``"b{i}:v,v,v,v"`` strings of the signature (recomputed here from
        each doc's gram hashes) do."""
        from pubmed_and_method_ray.functions.hashing import splitmix64

        sk = self._sketch()
        off, vals = dedup._binary_to_u64_rows(sk["sh"])
        seeds = splitmix64(np.arange(1, 65, dtype=np.uint64) * np.uint64(8))
        want = {}
        for i, doc in enumerate(sk["doc_id"].to_pylist()):
            grams = vals[off[i] : off[i + 1]]
            sig = [int(splitmix64(grams ^ s).min()) for s in seeds]
            for b in range(16):
                key = f"b{b}:" + ",".join(map(str, sig[4 * b : 4 * b + 4]))
                want.setdefault(key, set()).add(doc)

        bands = dedup._explode_bands(sk)
        assert bands.schema.field("band_key").type == pa.binary(40)
        got = {}
        for key, doc in zip(bands["band_key"].to_pylist(), bands["doc_id"].to_pylist()):
            got.setdefault(key, set()).add(doc)
        assert sorted(map(sorted, got.values())) == sorted(map(sorted, want.values()))
        assert max(len(g) for g in got.values()) >= 2  # planted copies meet

    def test_one_schema_on_empty_and_non_empty_input(self):
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
        )
        sk, sk0 = self._sketch(), dedup._SketchBander()(empty)
        assert sk0.num_rows == 0 and sk0.schema == sk.schema
        bands, bands0 = dedup._explode_bands(sk), dedup._explode_bands(sk0)
        salted = dedup._overflow_salt_rows(bands, n_max=1)
        salted0 = dedup._overflow_salt_rows(bands0, n_max=1)
        assert salted.num_rows > 0 and salted0.num_rows == 0
        assert salted0.schema == salted.schema
        # buckets within n_max emit no salt rows, with the same schema
        assert dedup._overflow_salt_rows(bands, n_max=10**6).schema == salted.schema
