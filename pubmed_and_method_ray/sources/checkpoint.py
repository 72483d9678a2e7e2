"""Per-stage Parquet checkpoints with lineage manifests.

The reference checkpoints every step as a ClickHouse materialized view or
a joblib pickle keyed by existence checks
(/root/reference/src/io/data_reader.py:27-29). Here each stage writes a
Parquet directory plus ``_manifest.json`` carrying the input fingerprint,
stage version, row count and per-file lineage — a rerun whose fingerprint
matches skips the stage entirely (north_rule resumability). Writes are
atomic: tmp dir then ``os.replace``.
"""

from __future__ import annotations

import json
import os
import shutil
import time

MANIFEST = "_manifest.json"


def fingerprint(*parts) -> str:
    """Stable fingerprint of stage inputs (paths, params, versions)."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def content_digest(data: bytes) -> str:
    """Short content hash for fingerprinting large inputs (model JSON,
    idf vector bytes) whose ``repr`` would be huge or truncated."""
    import hashlib

    return hashlib.blake2b(data, digest_size=8).hexdigest()


def input_identity(ds) -> tuple:
    """Identity of a Dataset's input for fingerprinting: (path, byte
    size, footer row count) per source file, so a file rewritten in
    place invalidates the checkpoints built from it. An input without
    source files (in-memory data) or with one that cannot be inspected
    gets a fresh token per call: it never resumes a checkpoint."""
    import uuid

    import pyarrow.fs as pafs
    import pyarrow.parquet as pq

    try:
        ident = []
        for path in sorted(ds.input_files()):
            fs, p = pafs.FileSystem.from_uri(path)
            size = fs.get_file_info(p).size
            with fs.open_input_file(p) as f:
                rows = pq.ParquetFile(f).metadata.num_rows
            ident.append((path, size, rows))
        if ident:
            return tuple(ident)
    except (OSError, ValueError):  # unreadable, or not a parquet file
        pass
    return ("<unstable-input>", uuid.uuid4().hex)


def manifest_path(stage_dir: str) -> str:
    return os.path.join(stage_dir, MANIFEST)


def is_complete(stage_dir: str, fp: str) -> bool:
    """A checkpoint resumes only if the manifest matches AND every
    manifest-listed parquet file still exists with its recorded row
    count — a stage dir with lost/truncated files recomputes instead of
    silently resuming with partial data."""
    try:
        with open(manifest_path(stage_dir)) as f:
            m = json.load(f)
        if m.get("fingerprint") != fp or not m.get("complete", False):
            return False
        import pyarrow.parquet as pq

        for fname, nrows in m.get("files", {}).items():
            path = os.path.join(stage_dir, fname)
            if not os.path.exists(path):
                return False
            if pq.read_metadata(path).num_rows != nrows:
                return False
        return True
    except Exception:
        return False


def checkpoint(
    ds,
    stage_dir: str,
    stage_name: str,
    fp: str,
    counters: dict | None = None,
    counters_fn=None,
):
    """Write ``ds`` to ``stage_dir`` (atomic) with a lineage manifest and
    return a Dataset reading it back. If a complete checkpoint with the
    same fingerprint exists, skip the write and just read; ``ds`` is not
    touched then, so a caller that has checked ``is_complete`` may pass
    None instead of building the stage.

    ``counters_fn(read_back_ds) -> dict`` computes stage-semantic golden
    counts (the reference's count-assertion philosophy,
    database/pubmed_inner_outer_feature.sql:106-108) from the
    just-written files — merged into the manifest's ``counters`` before
    the atomic rename, so a resumed run can assert them without
    recomputing the stage.
    """
    import ray.data as rd

    from .io import read_parquet_clean

    if is_complete(stage_dir, fp):
        return read_parquet_clean(stage_dir, file_extensions=["parquet"])

    tmp_dir = stage_dir + ".tmp"
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir, exist_ok=True)
    ds.write_parquet(tmp_dir)

    files = sorted(f for f in os.listdir(tmp_dir) if f.endswith(".parquet"))
    import pyarrow.parquet as pq

    per_file = {f: pq.read_metadata(os.path.join(tmp_dir, f)).num_rows for f in files}
    if counters_fn is not None:
        extra = counters_fn(read_parquet_clean(tmp_dir, file_extensions=["parquet"]))
        counters = {**(counters or {}), **{k: int(v) for k, v in extra.items()}}
    man = {
        "stage": stage_name,
        "fingerprint": fp,
        "rows": int(sum(per_file.values())),
        "files": per_file,
        "counters": counters or {},
        "written_at": time.time(),
        "complete": True,
    }
    with open(os.path.join(tmp_dir, MANIFEST), "w") as f:
        json.dump(man, f, indent=1)
    if os.path.exists(stage_dir):
        shutil.rmtree(stage_dir)
    os.replace(tmp_dir, stage_dir)
    return read_parquet_clean(stage_dir, file_extensions=["parquet"])


def read_manifest(stage_dir: str) -> dict | None:
    try:
        with open(manifest_path(stage_dir)) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
