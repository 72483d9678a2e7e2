"""Driver-contract correctness: every oracle-backed ``queries()`` entry
must match its ``oracle_sql()`` on row count, column names and
order-insensitive values (the CORRECTNESS_r{N}.json gate, run here at
sf0.001 for speed; the driver reruns at sf0.01)."""

import math

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF = "/root/testdata/sf0.001"
TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


def _to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module", autouse=True)
def actors_before():
    """Actors alive before the module's queries run, after Ray Data has
    started its own per-session ones (``rd.range(4).materialize()``)."""
    import ray._private.state as ray_state
    import ray.data as rd

    rd.range(4).materialize()
    return set(ray_state.actors())


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return c


ORACLES = sorted(entrymod.oracle_sql().keys())
ALL_QUERIES = sorted(entrymod.queries().keys())
ROWS_ONLY = sorted(set(ALL_QUERIES) - set(ORACLES))


class TestOracleParity:
    @pytest.mark.parametrize("name", ORACLES)
    def test_query_matches_oracle(self, name, con):
        q = entrymod.queries()[name]
        got = _canon(_to_pandas(q(SF)))
        want = _canon(con.execute(entrymod.oracle_sql()[name]).df())
        assert list(got.columns) == list(want.columns), (
            f"{name}: columns {list(got.columns)} != {list(want.columns)}"
        )
        assert len(got) == len(want), f"{name}: {len(got)} rows != {len(want)}"
        for c in got.columns:
            if np.issubdtype(got[c].dtype, np.floating) or np.issubdtype(
                want[c].dtype, np.floating
            ):
                assert np.allclose(
                    got[c].astype(float), want[c].astype(float), atol=1e-12, rtol=0
                ), f"{name}.{c} float mismatch"
            else:
                assert (
                    got[c].to_numpy() == want[c].to_numpy()
                ).all(), f"{name}.{c} value mismatch"


class TestRowsOnlyQueries:
    @pytest.mark.parametrize("name", ROWS_ONLY)
    def test_runs_and_returns_rows(self, name):
        q = entrymod.queries()[name]
        df = _to_pandas(q(SF))
        assert df is not None
        assert len(df.columns) > 0
        # deterministic across two invocations
        df2 = _to_pandas(q(SF))
        assert len(df) == len(df2)


class TestEntry:
    def test_entry_runs(self):
        df = _to_pandas(entrymod.entry())
        assert len(df) > 0
        assert set(df.columns) == {"url", "cluster_id"}


class TestBroadcastSizeGuards:
    """The customer-scale broadcasts fall back to hash joins past
    rayutil.DRIVER_ROWS; both paths must agree exactly (the guard is an
    execution strategy, not a semantic switch)."""

    def test_revenue_by_nation_join_path(self, monkeypatch):
        from pubmed_and_method_ray import rayutil
        from pubmed_and_method_ray.pipelines import relational

        bc = _canon(_to_pandas(relational.revenue_by_nation(SF)))
        monkeypatch.setattr(rayutil, "DRIVER_ROWS", 0)
        jn = _canon(_to_pandas(relational.revenue_by_nation(SF)))
        pd.testing.assert_frame_equal(bc, jn)

    def test_semi_join_orders_join_path(self, monkeypatch):
        from pubmed_and_method_ray import rayutil
        from pubmed_and_method_ray.pipelines import relational

        bc = _canon(_to_pandas(relational.semi_join_orders(SF)))
        monkeypatch.setattr(rayutil, "DRIVER_ROWS", 0)
        jn = _canon(_to_pandas(relational.semi_join_orders(SF)))
        pd.testing.assert_frame_equal(bc, jn)

    @pytest.mark.parametrize("driver_rows", [5_000_000, 0])
    def test_semi_join_orders_filters_once(self, driver_rows, tmp_path, monkeypatch):
        """Both paths read the segment filter's blocks from ONE pass: it
        runs as often as in a single materialize of the filter alone."""
        from pubmed_and_method_ray import rayutil
        from pubmed_and_method_ray.pipelines import relational

        calls = tmp_path / "calls"
        calls.mkdir()
        seg_keys = relational._segment_keys

        def counting(t, segment):
            import uuid

            (calls / uuid.uuid4().hex).touch()
            return seg_keys(t, segment)

        monkeypatch.setattr(relational, "_segment_keys", counting)
        cust = relational._read(SF, "customer", ["c_custkey", "c_mktsegment"])
        cust.map_batches(
            counting, fn_kwargs={"segment": "BUILDING"}, batch_format="pyarrow"
        ).materialize()
        one_pass = len(list(calls.iterdir()))
        assert one_pass > 0
        monkeypatch.setattr(rayutil, "DRIVER_ROWS", driver_rows)
        out = relational.semi_join_orders(SF)
        assert len(_to_pandas(out)) > 0
        assert len(list(calls.iterdir())) == 2 * one_pass


class TestNoShuffleActors:
    def test_no_hash_shuffle_aggregator(self, actors_before):
        """Every query above ran on the engine's keyed exchange of plain
        tasks: none started the actor Ray 2.49's shuffle, aggregate and
        join operators start. The stateful model UDFs' actor pools
        (``concurrency=(1, 4)``) are actors on purpose and stay allowed.
        Runs last in the module, so it reuses the query runs above."""
        import ray._private.state as ray_state

        new = {
            a: info
            for a, info in ray_state.actors().items()
            if a not in actors_before
        }
        shuffle = [
            a for a, info in new.items()
            if info["ActorClassName"] == "HashShuffleAggregator"
        ]
        assert not shuffle, f"{len(shuffle)} HashShuffleAggregator actors started"
