"""As-of join: generic stage kernel + the events query, both checked
against pandas.merge_asof (an independent implementation of the same
public operator semantics)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from pubmed_and_method_ray.stages.asof import asof_join

SF = "/root/testdata/sf0.001"


def _expected_merge_asof(left, right, key, ts, right_cols, strict):
    l = left.sort_values(ts, kind="mergesort")
    r = right.sort_values(ts, kind="mergesort")
    m = pd.merge_asof(
        l,
        r[[key, ts] + [c for c in right_cols if c not in (key, ts)]],
        on=ts,
        by=key,
        direction="backward",
        allow_exact_matches=not strict,
        suffixes=("", "_prev"),
    )
    return m


class TestAsofJoin:
    def _run(self, ldf, rdf, strict, key="k", ts="t"):
        out = asof_join(
            rd.from_pandas(ldf),
            rd.from_pandas(rdf),
            key_col=key,
            ts_col=ts,
            right_cols=["rid", ts],
            strict=strict,
        ).to_pandas()
        return out.sort_values("lid").reset_index(drop=True)

    def test_matches_merge_asof(self):
        rng = np.random.RandomState(7)
        n_l, n_r = 400, 300
        ldf = pd.DataFrame(
            {
                "k": rng.randint(0, 12, n_l),
                "t": rng.randint(0, 10_000, n_l).astype(np.int64),
                "lid": np.arange(n_l),
            }
        )
        rdf = pd.DataFrame(
            {
                "k": rng.randint(0, 12, n_r),
                "t": rng.randint(0, 10_000, n_r).astype(np.int64),
                "rid": np.arange(n_r),
            }
        )
        # dedupe (k, t) on the right so the match target is unique
        rdf = rdf.drop_duplicates(["k", "t"]).reset_index(drop=True)
        for strict in (True, False):
            got = self._run(ldf, rdf, strict)
            exp = _expected_merge_asof(ldf, rdf, "k", "t", ["rid"], strict)
            exp = exp[exp["rid"].notna()].sort_values("lid").reset_index(drop=True)
            assert len(got) == len(exp), strict
            assert (got["lid"].to_numpy() == exp["lid"].to_numpy()).all()
            assert (
                got["rid_prev"].to_numpy() == exp["rid"].to_numpy().astype(np.int64)
            ).all()

    def test_string_keys_and_no_match_drop(self):
        ldf = pd.DataFrame(
            {"k": ["a", "a", "b", "c"], "t": [5, 1, 9, 4], "lid": [0, 1, 2, 3]}
        )
        rdf = pd.DataFrame({"k": ["a", "a", "b"], "t": [1, 3, 9], "rid": [10, 11, 12]})
        got = self._run(ldf, rdf, strict=True)
        # lid0 (a,5) -> rid11 (a,3); lid1 (a,1) no strict-prior; lid2 (b,9)
        # only right (b,9) not strictly before; lid3 key c absent
        assert got["lid"].tolist() == [0]
        assert got["rid_prev"].tolist() == [11]
        got_le = self._run(ldf, rdf, strict=False)
        assert got_le["lid"].tolist() == [0, 1, 2]
        assert got_le["rid_prev"].tolist() == [11, 10, 12]

    def test_null_keys_or_ts_raise(self):
        # nullable int -> to_numpy gives float64 NaN -> int64 cast would
        # yield INT64_MIN and silently wrong matches; must raise instead
        lt = pa.table({
            "k": pa.array([1, None], pa.int64()),
            "t": pa.array([5, 6], pa.int64()),
            "lid": pa.array([0, 1], pa.int64()),
        })
        rt = pa.table({
            "k": pa.array([1], pa.int64()),
            "t": pa.array([1], pa.int64()),
            "rid": pa.array([10], pa.int64()),
        })
        with pytest.raises(Exception, match="null"):
            asof_join(
                rd.from_arrow(lt), rd.from_arrow(rt),
                key_col="k", ts_col="t", right_cols=["rid"],
            ).to_pandas()
        from pubmed_and_method_ray.stages.asof import range_self_join

        nt = pa.table({
            "k": pa.array([1, 1], pa.int64()),
            "t": pa.array([5, None], pa.int64()),
            "eid": pa.array([0, 1], pa.int64()),
        })
        with pytest.raises(Exception, match="null"):
            range_self_join(
                rd.from_arrow(nt), key_col="k", ts_col="t",
                window=10, emit_cols=["eid"],
            ).to_pandas()

    def test_fallback_loop_path_matches_packed(self):
        # huge ts span forces the per-key-run fallback; compare vs packed
        ldf = pd.DataFrame(
            {
                "k": [0, 0, 1, 1],
                "t": np.array([10, 2**61, 5, 2**62], dtype=np.int64),
                "lid": [0, 1, 2, 3],
            }
        )
        rdf = pd.DataFrame(
            {
                "k": [0, 0, 1],
                "t": np.array([3, 2**60, 2**61], dtype=np.int64),
                "rid": [20, 21, 22],
            }
        )
        got = self._run(ldf, rdf, strict=True)
        assert got["lid"].tolist() == [0, 1, 3]
        assert got["rid_prev"].tolist() == [20, 21, 22]


class TestEventsAsofQuery:
    def test_against_merge_asof_oracle(self):
        from pubmed_and_method_ray.pipelines.relational import (
            events_asof_prev_click,
        )

        got = events_asof_prev_click(SF).to_pandas()
        ev = pd.read_parquet(
            f"{SF}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type"],
        )
        ev["ts_us"] = ev["ts"].astype("int64")
        p = ev[ev.event_type == "purchase"]
        c = ev[ev.event_type == "click"]
        c = c.assign(ts_us_r=c["ts_us"])  # merge_asof drops the right 'on' col
        exp = pd.merge_asof(
            p.sort_values("ts_us", kind="mergesort"),
            c[["user_id", "ts_us", "ts_us_r", "event_id"]].sort_values(
                "ts_us", kind="mergesort"
            ),
            on="ts_us",
            by="user_id",
            direction="backward",
            allow_exact_matches=False,
            suffixes=("", "_prev"),
        )
        exp = exp[exp["event_id_prev"].notna()].rename(
            columns={"ts_us_r": "ts_us_prev"}
        )
        got = got.sort_values("event_id").reset_index(drop=True)
        exp = exp.sort_values("event_id").reset_index(drop=True)
        assert len(got) == len(exp) > 0
        assert (got["event_id"].to_numpy() == exp["event_id"].to_numpy()).all()
        assert (
            got["event_id_prev"].to_numpy()
            == exp["event_id_prev"].to_numpy().astype(np.int64)
        ).all()
        assert (
            got["gap_us"].to_numpy()
            == (exp["ts_us"] - exp["ts_us_prev"]).to_numpy().astype(np.int64)
        ).all()


class TestRangeSelfJoin:
    def test_against_brute_force(self):
        from pubmed_and_method_ray.stages.asof import range_self_join

        rng = np.random.RandomState(11)
        n = 500
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 10, n),
                "t": rng.choice(100_000, n, replace=False).astype(np.int64),
                "id": np.arange(n),
            }
        )
        W = 5_000
        got = range_self_join(
            rd.from_pandas(df), key_col="k", ts_col="t", window=W,
            emit_cols=["id"],
        ).to_pandas()
        m = df.merge(df, on="k", suffixes=("_a", "_b"))
        m = m[(m.t_b > m.t_a) & (m.t_b <= m.t_a + W)]
        exp = set(zip(m.id_a, m.id_b))
        assert set(zip(got.id_a, got.id_b)) == exp and len(got) == len(exp) > 0
        assert (got.gap_us > 0).all() and (got.gap_us <= W).all()

    def test_equal_ts_never_pairs(self):
        from pubmed_and_method_ray.stages.asof import range_self_join

        df = pd.DataFrame({"k": [1, 1, 1], "t": [5, 5, 9], "id": [0, 1, 2]})
        got = range_self_join(
            rd.from_pandas(df), key_col="k", ts_col="t", window=10,
            emit_cols=["id"],
        ).to_pandas()
        assert sorted(zip(got.id_a, got.id_b)) == [(0, 2), (1, 2)]

    def test_events_query_matches_oracle_count(self):
        from pubmed_and_method_ray.pipelines.relational import (
            events_range_pairs_1h,
        )

        got = events_range_pairs_1h(SF).to_pandas()
        ev = pd.read_parquet(f"{SF}/events.parquet", columns=["event_id", "ts", "user_id"])
        ev["ts_us"] = ev["ts"].astype("int64")
        m = ev.merge(ev, on="user_id", suffixes=("_a", "_b"))
        m = m[(m.ts_us_b > m.ts_us_a) & (m.ts_us_b <= m.ts_us_a + 3_600_000_000)]
        assert len(got) == len(m) > 0
        assert set(zip(got.event_id_a, got.event_id_b)) == set(
            zip(m.event_id_a, m.event_id_b)
        )


class TestMegaKeySalting:
    def test_asof_single_hot_key_salted_matches_unsalted(self):
        """One key holding nearly all probe rows, salt_threshold far below
        its count: the (key, salt) exchange must reproduce the unsalted
        result exactly (right-side replication per salt group)."""
        rng = np.random.RandomState(11)
        n_l, n_r = 3000, 400
        ldf = pd.DataFrame({
            "k": np.r_[np.zeros(n_l - 10, np.int64), np.arange(1, 11)],
            "t": rng.randint(0, 100_000, n_l).astype(np.int64),
            "lid": np.arange(n_l),
        })
        rdf = pd.DataFrame({
            "k": np.r_[np.zeros(n_r - 5, np.int64), np.arange(1, 6)],
            "t": rng.randint(0, 100_000, n_r).astype(np.int64),
            "rid": np.arange(n_r),
        }).drop_duplicates(["k", "t"]).reset_index(drop=True)
        base = asof_join(
            rd.from_pandas(ldf), rd.from_pandas(rdf),
            key_col="k", ts_col="t", right_cols=["rid"],
        ).to_pandas().sort_values("lid").reset_index(drop=True)
        salted = asof_join(
            rd.from_pandas(ldf), rd.from_pandas(rdf),
            key_col="k", ts_col="t", right_cols=["rid"],
            salt_threshold=100,  # hot key -> ~30 salt groups
        ).to_pandas().sort_values("lid").reset_index(drop=True)
        assert base.equals(salted)
        assert len(base) > 1000

    def test_range_single_hot_key_salted_matches_unsalted(self):
        from pubmed_and_method_ray.stages.asof import range_self_join

        rng = np.random.RandomState(13)
        n = 1200
        df = pd.DataFrame({
            "k": np.r_[np.zeros(n - 8, np.int64), np.arange(1, 9)],
            "t": rng.choice(np.arange(0, 500_000, 7), n, replace=False).astype(np.int64),
            "eid": np.arange(n),
        })

        def run(thresh):
            out = range_self_join(
                rd.from_pandas(df), key_col="k", ts_col="t",
                window=3000, emit_cols=["eid"], salt_threshold=thresh,
            ).to_pandas().sort_values(["eid_a", "eid_b"]).reset_index(drop=True)
            return out

        base = run(None)
        salted = run(50)  # hot key of ~1192 rows -> ~24 salt groups
        assert len(base) > 500
        assert base.equals(salted)
        # exactly-once: no duplicate pairs
        assert not salted.duplicated(["eid_a", "eid_b"]).any()


class TestHeavyKeyCensus:
    """The mega-key census must give the same heavy map on both merge
    paths: the C-level driver group_by (up to rayutil.DRIVER_ROWS)
    and the distributed groupby-sum fallback (past it)."""

    def _ds(self):
        rng = np.random.RandomState(17)
        n = 4000
        return rd.from_pandas(
            pd.DataFrame(
                {
                    "k": np.r_[
                        np.zeros(n - 200, np.int64),
                        np.full(120, 7, np.int64),
                        rng.randint(100, 200, 80),
                    ],
                    "t": np.arange(n, dtype=np.int64),
                }
            )
        )

    def test_driver_and_distributed_paths_agree(self, monkeypatch):
        import pubmed_and_method_ray.stages.asof as asof_mod
        from pubmed_and_method_ray import rayutil

        driver = asof_mod._heavy_keys(self._ds(), "k", threshold=64, sample_mod=1)
        monkeypatch.setattr(rayutil, "DRIVER_ROWS", 0)
        dist = asof_mod._heavy_keys(self._ds(), "k", threshold=64, sample_mod=1)
        assert driver == dist
        assert set(driver) == {0, 7}
        assert driver[0] == 3800 and driver[7] == 120

    def test_sampled_counts_scale_up(self):
        from pubmed_and_method_ray.stages.asof import _heavy_keys

        heavy = _heavy_keys(self._ds(), "k", threshold=1000, sample_mod=4)
        assert set(heavy) == {0}
        # 3800 rows stride-sampled 1/4 inside each streamed batch, scaled
        # back x4: approximately the true count
        assert abs(heavy[0] - 3800) <= 3800 * 0.05

    def test_over_budget_census_runs_partials_once(self, monkeypatch, counting_ds):
        """Past the budget the exchange merge gets the blocks the census
        already ran: the partial kernel runs once per block."""
        from pubmed_and_method_ray import rayutil
        from pubmed_and_method_ray.stages.asof import _heavy_keys

        monkeypatch.setattr(rayutil, "DRIVER_ROWS", 0)
        blocks = [{"k": [0] * 50 + [b]} for b in range(1, 4)]
        ds, runs = counting_ds(blocks)
        assert _heavy_keys(ds, "k", threshold=40, sample_mod=1) == {0: 150}
        assert runs() == len(blocks)

    def test_asof_salted_with_forced_distributed_census(self, monkeypatch):
        from pubmed_and_method_ray import rayutil

        rng = np.random.RandomState(19)
        n_l, n_r = 1500, 300
        ldf = pd.DataFrame(
            {
                "k": np.r_[np.zeros(n_l - 5, np.int64), np.arange(1, 6)],
                "t": rng.randint(0, 50_000, n_l).astype(np.int64),
                "lid": np.arange(n_l),
            }
        )
        rdf = (
            pd.DataFrame(
                {
                    "k": np.r_[np.zeros(n_r - 3, np.int64), np.arange(1, 4)],
                    "t": rng.randint(0, 50_000, n_r).astype(np.int64),
                    "rid": np.arange(n_r),
                }
            )
            .drop_duplicates(["k", "t"])
            .reset_index(drop=True)
        )
        base = (
            asof_join(
                rd.from_pandas(ldf), rd.from_pandas(rdf),
                key_col="k", ts_col="t", right_cols=["rid"],
            )
            .to_pandas().sort_values("lid").reset_index(drop=True)
        )
        monkeypatch.setattr(rayutil, "DRIVER_ROWS", 0)
        salted = (
            asof_join(
                rd.from_pandas(ldf), rd.from_pandas(rdf),
                key_col="k", ts_col="t", right_cols=["rid"],
                salt_threshold=100,
            )
            .to_pandas().sort_values("lid").reset_index(drop=True)
        )
        assert len(base) > 500
        assert base.equals(salted)


class TestSidesRunOnce:
    """The schema, the mega-key census and the exchange read the blocks
    of one run of each side: every upstream block runs exactly once,
    unsalted and salted."""

    @staticmethod
    def _left_blocks():
        return [
            {
                "k": [0] * 50 + [b],
                "t": [b * 1000 + 10 * i for i in range(51)],
                "lid": [b * 100 + i for i in range(51)],
            }
            for b in range(1, 4)
        ]

    @pytest.mark.parametrize("salt_threshold", [None, 40])
    def test_asof_join(self, counting_ds, salt_threshold):
        right_blocks = [
            {"k": [0] * 20 + [1, 2, 3], "t": [r * 7 + 5 * i for i in range(23)],
             "rid": [r * 100 + i for i in range(23)]}
            for r in range(2)
        ]

        def run(left, right, thresh):
            out = asof_join(
                left, right, key_col="k", ts_col="t", right_cols=["rid"],
                salt_threshold=thresh,
            ).to_pandas()
            return out.sort_values("lid").reset_index(drop=True)

        left, left_runs = counting_ds(self._left_blocks())
        right, right_runs = counting_ds(right_blocks)
        got = run(left, right, salt_threshold)
        want = run(
            rd.from_arrow([pa.table(b) for b in self._left_blocks()]),
            rd.from_arrow([pa.table(b) for b in right_blocks]),
            None,
        )
        assert len(want) > 100 and got.equals(want)
        assert left_runs() == 3 and right_runs() == 2

    @pytest.mark.parametrize("salt_threshold", [None, 40])
    def test_range_self_join(self, counting_ds, salt_threshold):
        from pubmed_and_method_ray.stages.asof import range_self_join

        def run(ds, thresh):
            out = range_self_join(
                ds, key_col="k", ts_col="t", window=25, emit_cols=["lid"],
                salt_threshold=thresh,
            ).to_pandas()
            return out.sort_values(["lid_a", "lid_b"]).reset_index(drop=True)

        ds, runs = counting_ds(self._left_blocks())
        got = run(ds, salt_threshold)
        want = run(rd.from_arrow([pa.table(b) for b in self._left_blocks()]), None)
        assert len(want) > 100 and got.equals(want)
        assert runs() == 3
