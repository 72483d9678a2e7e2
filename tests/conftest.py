import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def counting_ds():
    """Factory: ``make(cols)`` -> (a lazy Dataset over the table (or
    tables, one block each) whose upstream ``map_batches`` counts its
    runs, one per block; a callable that returns that count). A plan a
    caller executes twice counts twice."""
    import pyarrow as pa
    import ray

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def inc(self):
            self.n += 1

        def get(self):
            return self.n

    def make(cols):
        counter = Counter.remote()

        def counting(batch: pa.Table) -> pa.Table:
            ray.get(counter.inc.remote())
            return batch

        tables = [pa.table(c) for c in (cols if isinstance(cols, list) else [cols])]
        ds = ray.data.from_arrow(tables).map_batches(
            counting, batch_format="pyarrow", batch_size=None
        )
        return ds, lambda: ray.get(counter.get.remote())

    return make
