"""Corpus fetcher — the S9 crawler analog (SURVEY.md §2.1).

The reference's ArticlesDownloader
(/root/reference/resources/gs-dataset-articles/ArticlesDownloader.py)
walks a deduplicated id list and fetches one XML per id, skipping files
that already exist (its resume mechanism). This module re-expresses that
contract Ray-Data-first, with the production concerns the reference
delegates to the E-utilities service wrapper made explicit:

- id stream -> shard-assigned, already-done shards filtered at the read
  -> ONE ``keyed_map_groups`` exchange on the shard that dedupes ids (the
  `pmid_set` analog; duplicates co-locate since the shard is a pure
  function of the id), fetches, and writes one Parquet shard + an
  atomically-renamed row-count manifest — a rerun skips completed
  shards (file-exists resume, made atomic and partition-grained)
- per-actor TOKEN-BUCKET rate limiting (NCBI's E-utilities allows ~3
  req/s/key — the real-world constraint the reference's serial loop
  sidesteps) and bounded RETRY with exponential backoff on transient
  failures
- the fetch function is INJECTED: production passes an HTTP client;
  this sandbox has no network, so the default is a deterministic local
  fetcher whose payload (and seeded transient failures) are pure
  functions of the id — which makes retry/resume logic testable and the
  whole operator SQL-oracle-checkable (md5-derived payload size).
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pyarrow as pa

from ..rayutil import keyed_map_groups, shuffle_partitions


def deterministic_fetcher(doc_id: int, attempt: int) -> bytes:
    """Sandbox fetch function: payload = md5 hex of the id repeated
    1 + (id % 7) times; the FIRST attempt fails for ids whose md5 hex
    starts with '0' (~1/16 — deterministic transient failure, the
    retry-path exercise). Pure function of (id, attempt): reruns and
    oracles agree byte-for-byte."""
    key = hashlib.md5(str(doc_id).encode()).hexdigest()
    if attempt == 0 and key[0] == "0":
        raise ConnectionError(f"transient failure for {doc_id}")
    return (key * (1 + doc_id % 7)).encode()


class _TokenBucket:
    """max_per_sec tokens, refilled continuously; acquire() blocks."""

    def __init__(self, max_per_sec: float):
        self.rate = max_per_sec
        self.capacity = max(1.0, max_per_sec)
        self.tokens = self.capacity
        self.last = time.monotonic()

    def acquire(self) -> None:
        while True:
            now = time.monotonic()
            self.tokens = min(self.capacity, self.tokens + (now - self.last) * self.rate)
            self.last = now
            if self.tokens >= 1.0:
                self.tokens -= 1.0
                return
            time.sleep((1.0 - self.tokens) / self.rate)


class FetchShard:
    """Actor-pool stage: a batch of ids -> (doc_id, payload, n_bytes,
    attempts, status) rows. Rate limiter + fetcher live in the actor
    (one per worker, like the reference's per-process session)."""

    def __init__(self, fetcher=None, max_per_sec: float = 1e9, max_retries: int = 3,
                 backoff_s: float = 0.0):
        self.fetcher = fetcher or deterministic_fetcher
        self.bucket = _TokenBucket(max_per_sec)
        self.max_retries = max_retries
        self.backoff_s = backoff_s

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads, attempts, statuses = [], [], []
        for i in ids:
            blob, n_try, status = b"", 0, "failed"
            while n_try <= self.max_retries:
                self.bucket.acquire()
                try:
                    blob = self.fetcher(i, n_try)
                    n_try += 1
                    status = "ok"
                    break
                except Exception:
                    n_try += 1
                    if self.backoff_s:
                        time.sleep(self.backoff_s * (2 ** (n_try - 1)))
            payloads.append(blob)
            attempts.append(n_try)
            statuses.append(status)
        out = {
            "doc_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "n_bytes": pa.array([len(b) for b in payloads], pa.int64()),
            "attempts": pa.array(attempts, pa.int64()),
            "status": pa.array(statuses, pa.string()),
        }
        if "shard" in batch.column_names:
            out["shard"] = batch["shard"]
        return pa.table(out)


def fetch_corpus(
    ids_ds,
    out_dir: str,
    fetcher=None,
    n_shards: int | None = None,
    max_per_sec: float = 1e9,
    max_retries: int = 3,
):
    """Fetch every distinct id into ``out_dir`` as resumable Parquet
    shards; returns the number of shards fetched THIS call (0 on a fully
    resumed rerun). Shard s holds ids with md5_u64(id) % n_shards == s;
    a shard directory with a complete ``_manifest`` (and zero failed
    rows) is skipped — the partition-grained analog of the reference's
    per-file exists-check. A shard sealed WITH permanently-failed rows
    is re-enqueued on the next run: its ok rows are kept and only the
    failed/missing ids are refetched (the reference downloader's resume
    re-attempts anything not successfully written).

    ``out_dir`` MUST be on a filesystem shared by the driver and every
    worker node (NFS / fuse-mounted object store): shard tasks write
    files that the driver-side done() check and ``read_corpus`` read
    back by path. On a cluster without shared storage, point ``out_dir``
    at an object-store URI-backed mount or replace the shard writer with
    ``Dataset.write_parquet`` against remote storage.

    ONE keyed exchange end-to-end: ids are shard-assigned and
    todo-filtered per batch (pending shards never leave the read), then
    a single ``rayutil.keyed_map_groups`` delivers each shard whole to
    one task, which dedupes ids (duplicates co-locate — shard is a pure
    function of the id), fetches through ``FetchShard``, and writes
    parquet + manifest atomically (manifest renamed into place LAST, so
    a crash mid-shard leaves it pending). Rate limiting is per fetch
    task; a cluster-wide budget would hang a named limiter actor off the
    same hook."""
    import pyarrow.compute as pc

    from ..functions.hashing import md5_u64_array

    n_shards = n_shards or shuffle_partitions()

    def done(s: int) -> bool:
        # manifest = "<n_rows> <n_failed>"; a shard counts as done only
        # when every row fetched ok (failed rows re-enqueue the shard).
        # A legacy single-field manifest (pre-failure-count runs) is
        # UNKNOWN, not done: re-enqueue it once — its ok rows are kept
        # by the refetch path and the rewritten manifest carries both
        # fields, so this is a one-time migration cost per shard.
        m = os.path.join(out_dir, f"shard={s}", "_manifest")
        if not os.path.exists(m):
            return False
        with open(m) as f:
            parts = f.read().split()
        return len(parts) >= 2 and int(parts[1]) == 0

    todo = sorted(s for s in range(n_shards) if not done(s))
    if not todo:
        return 0
    todo_arr = pa.array(todo, pa.int64())

    def assign_and_filter(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        sh = md5_u64_array([str(i) for i in ids]) % np.uint64(n_shards)
        out = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "shard": pa.array(sh.astype(np.int64), pa.int64()),
            }
        )
        return out.filter(pc.is_in(out["shard"], todo_arr))

    fetch_kwargs = {
        "fetcher": fetcher,
        "max_per_sec": max_per_sec,
        "max_retries": max_retries,
    }

    def fetch_write_group(g: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        s = int(g["shard"][0].as_py())
        ids = np.unique(g["doc_id"].to_numpy(zero_copy_only=False))
        d = os.path.join(out_dir, f"shard={s}")
        ppath = os.path.join(d, "part.parquet")
        prev_ok = None
        if os.path.exists(ppath):
            # prior run sealed this shard with failed rows: keep its ok
            # rows, refetch only the failed/missing ids
            try:
                prev = pq.read_table(ppath)
                prev_ok = prev.filter(pc.and_(
                    pc.equal(prev["status"], "ok"),
                    pc.is_in(prev["doc_id"], pa.array(ids, pa.int64())),
                ))
            except Exception:
                prev_ok = None
        if prev_ok is not None and prev_ok.num_rows:
            done_ids = prev_ok["doc_id"].to_numpy(zero_copy_only=False)
            ids = ids[~np.isin(ids, done_ids)]
        part = FetchShard(**fetch_kwargs)(
            pa.table({"doc_id": pa.array(ids, pa.int64())})
        )
        if prev_ok is not None and prev_ok.num_rows:
            part = pa.concat_tables([prev_ok.select(part.column_names), part])
        n_ok = int(
            pc.sum(pc.cast(pc.equal(part["status"], "ok"), pa.int64())).as_py()
            or 0
        )
        os.makedirs(d, exist_ok=True)
        pq.write_table(part, ppath)
        tmp = os.path.join(d, "_manifest.tmp")
        with open(tmp, "w") as f:
            f.write(f"{part.num_rows} {part.num_rows - n_ok}")
        os.replace(tmp, os.path.join(d, "_manifest"))
        return pa.table(
            {
                "shard": pa.array([s], pa.int64()),
                "n_rows": pa.array([part.num_rows], pa.int64()),
            }
        )

    written = keyed_map_groups(
        ids_ds.map_batches(assign_and_filter, batch_format="pyarrow"),
        ["shard"],
        fetch_write_group,
        min(n_shards, shuffle_partitions()),
    )
    return written.count()


def read_corpus(out_dir: str):
    """Read back all fetched shards (validates manifests)."""
    from .io import read_parquet_clean

    shards = sorted(
        d for d in os.listdir(out_dir) if d.startswith("shard=")
        and os.path.exists(os.path.join(out_dir, d, "_manifest"))
    )
    paths = [os.path.join(out_dir, d, "part.parquet") for d in shards]
    return read_parquet_clean(paths)


def _fs_of(out_dir: str, filesystem=None):
    """(pyarrow FileSystem, path) for a URI or local path."""
    from pyarrow import fs as pafs

    if filesystem is not None:
        return filesystem, out_dir
    return pafs.FileSystem.from_uri(out_dir) if "://" in out_dir else (
        pafs.LocalFileSystem(),
        out_dir,
    )


def fetch_corpus_ds(
    ids_ds,
    out_dir: str,
    fetcher=None,
    n_shards: int | None = None,
    max_per_sec: float = 1e9,
    max_retries: int = 3,
    filesystem=None,
):
    """Object-store variant of ``fetch_corpus``: NO worker-local file
    I/O. The fetch stage only RETURNS rows; persistence flows through
    ``Dataset.write_parquet`` (hive-partitioned on ``shard``) against
    any pyarrow filesystem — an s3:// / gcs:// URI, an injected
    ``filesystem`` handle, or a local path — and the per-shard
    ``_manifest`` files are written by the DRIVER through the same
    filesystem handle. Use this on clusters without shared POSIX
    storage (the ``fetch_corpus`` docstring's documented requirement).

    Resume is shard-grained here: a shard with a complete all-ok
    manifest is skipped at the read; a shard that is missing, partial,
    or sealed with failed rows is refetched WHOLE (its directory is
    cleared first so write_parquet never mixes runs). The per-row
    refetch of the files sink needs worker-side reads of prior output,
    which is exactly the shared-FS coupling this variant removes.

    Returns the number of shards fetched this call (0 on a fully
    resumed rerun)."""
    import pyarrow.compute as pc
    from pyarrow import fs as pafs

    from ..functions.hashing import md5_u64_array

    fs, root = _fs_of(out_dir, filesystem)
    n_shards = n_shards or shuffle_partitions()

    def done(s: int) -> bool:
        m = f"{root}/shard={s}/_manifest"
        try:
            with fs.open_input_stream(m) as f:
                parts = f.read().decode().split()
        except (FileNotFoundError, OSError):
            return False
        return len(parts) >= 2 and int(parts[1]) == 0

    todo = sorted(s for s in range(n_shards) if not done(s))
    if not todo:
        return 0
    for s in todo:  # clear stale/partial shard output before rewriting
        try:
            fs.delete_dir(f"{root}/shard={s}")
        except (FileNotFoundError, OSError):
            pass
    todo_arr = pa.array(todo, pa.int64())

    def assign_and_filter(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        sh = md5_u64_array([str(i) for i in ids]) % np.uint64(n_shards)
        out = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "shard": pa.array(sh.astype(np.int64), pa.int64()),
            }
        )
        return out.filter(pc.is_in(out["shard"], todo_arr))

    fetch_kwargs = {
        "fetcher": fetcher,
        "max_per_sec": max_per_sec,
        "max_retries": max_retries,
    }

    def fetch_group(g: pa.Table) -> pa.Table:
        ids = np.unique(g["doc_id"].to_numpy(zero_copy_only=False))
        part = FetchShard(**fetch_kwargs)(
            pa.table({"doc_id": pa.array(ids, pa.int64())})
        )
        return part.append_column(
            "shard", pa.array([int(g["shard"][0].as_py())] * part.num_rows, pa.int64())
        )

    fetched = keyed_map_groups(
        ids_ds.map_batches(assign_and_filter, batch_format="pyarrow"),
        ["shard"],
        fetch_group,
        min(len(todo), shuffle_partitions()),
    )
    fetched.write_parquet(root, filesystem=fs, partition_cols=["shard"])

    # manifests: count rows/failures from the WRITTEN data (one
    # column-pruned status read per shard, driver-side through the same
    # filesystem handle), then seal — manifest written LAST, so a crash
    # mid-run leaves the shard pending, same contract as the files sink
    import pyarrow.parquet as pq

    n_written = 0
    for s in todo:
        infos = fs.get_file_info(pafs.FileSelector(f"{root}/shard={s}"))
        n = ok = 0
        for info in infos:
            if not info.base_name.endswith(".parquet"):
                continue
            st = pq.read_table(info.path, columns=["status"], filesystem=fs)[
                "status"
            ]
            n += len(st)
            ok += pc.sum(pc.cast(pc.equal(st, "ok"), pa.int64())).as_py() or 0
        with fs.open_output_stream(f"{root}/shard={s}/_manifest") as f:
            f.write(f"{n} {n - ok}".encode())
        n_written += 1
    return n_written


def read_corpus_ds(out_dir: str, filesystem=None):
    """Read back shards written by ``fetch_corpus_ds`` through any
    pyarrow filesystem (manifest-validated, hive shard dirs)."""
    from .io import read_parquet_clean

    fs, root = _fs_of(out_dir, filesystem)
    from pyarrow import fs as pafs

    sel = pafs.FileSelector(root, allow_not_found=True)
    shards = sorted(
        info.base_name
        for info in fs.get_file_info(sel)
        if info.type == pafs.FileType.Directory
        and info.base_name.startswith("shard=")
        and fs.get_file_info(f"{root}/{info.base_name}/_manifest").type
        == pafs.FileType.File
    )
    # explicit FILE list (a directory list would make pyarrow treat each
    # entry as a file, and it also keeps _manifest out of the read)
    files = sorted(
        info.path
        for d in shards
        for info in fs.get_file_info(pafs.FileSelector(f"{root}/{d}"))
        if info.base_name.endswith(".parquet")
    )
    return read_parquet_clean(files, filesystem=fs)
