"""Per-stage Parquet checkpoints with lineage manifests.

The reference checkpoints every step as a ClickHouse materialized view or
a joblib pickle keyed by existence checks
(/root/reference/src/io/data_reader.py:27-29). Here each stage writes a
Parquet directory plus ``_manifest.json`` carrying the input fingerprint,
stage version, row count and per-file lineage — a rerun whose fingerprint
matches skips the stage entirely (north_rule resumability). Writes are
atomic: tmp dir then ``os.replace``. As with the reference's cache, the
files are read only by a resume: a cold run hands the stage it just
wrote to the next stage from memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq
from ray.data.block import BlockAccessor

MANIFEST = "_manifest.json"


def fingerprint(*parts) -> str:
    """Stable fingerprint of stage inputs (paths, params, versions)."""
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def content_digest(data: bytes) -> str:
    """Short content hash for fingerprinting large inputs (model JSON,
    idf vector bytes) whose ``repr`` would be huge or truncated."""
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def input_identity(ds) -> tuple:
    """Identity of a Dataset's input for fingerprinting: (path, byte
    size, footer row count) per source file, so a file rewritten in
    place invalidates the checkpoints built from it. An input without
    source files (in-memory data) or with one that cannot be inspected
    gets a fresh token per call: it never resumes a checkpoint."""
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
        return all(
            pq.read_metadata(os.path.join(stage_dir, f)).num_rows == n
            for f, n in m.get("files", {}).items()
        )
    except Exception:  # a missing or unreadable file included
        return False


def _write_block(block, path: str, i: int, partial):
    """``checkpoint``'s write task for block ``i``: writes its rows to
    ONE parquet file and returns (file, rows, ``partial(table, i)``,
    schema); a block without rows writes no file (file None)."""
    t = BlockAccessor.for_block(block).to_arrow()
    # Ray hands on 0-row blocks without columns: they carry nothing
    if not t.num_columns:
        return None
    name = f"{i:06d}.parquet" if t.num_rows else None
    if name:
        pq.write_table(t, os.path.join(path, name))
    return name, t.num_rows, partial(t, i), t.schema


def checkpoint(ds, stage_dir: str, stage_name: str, fp: str, summary=None):
    """Write ``ds`` to ``stage_dir`` (atomic) with a lineage manifest and
    return the stage. A cold run materializes ``ds``, writes each of its
    blocks with one plain Ray task and returns the materialized Dataset:
    the next stage reads the written blocks from memory, not the files.
    They stay in the object store while the caller holds the Dataset
    (Ray spills them past the store's size), as an uncheckpointed
    ``materialize()`` keeps them.

    Only a resume reads Parquet back: if a complete checkpoint with the
    same fingerprint exists, skip the write and return a lazy read of
    the files; ``ds`` is not touched then. ``ds=None`` reads back
    without checking: the caller has found the checkpoint complete
    (``is_complete``) and so did not build the stage.

    The manifest's files, rows and counters come back from the write
    tasks; nothing re-reads the files for them. ``summary = (partial,
    merge)`` adds golden counters a resumed run can assert: the task of
    block i returns ``partial(table, i)`` (small in all; i is unique),
    and the driver calls ``merge(partials, read) -> dict``, partials in
    no fixed order; ``read()`` reads the written files, for what
    partials cannot count. A stage without rows is one 0-row file with
    its schema."""
    import ray

    from .io import read_parquet_clean

    if ds is None or is_complete(stage_dir, fp):
        return read_parquet_clean(stage_dir, file_extensions=["parquet"])

    tmp_dir = stage_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    partial, merge = summary or (lambda t, i: None, None)
    ds = ds.materialize()
    write = ray.remote(_write_block)
    blocks = [ref for bundle in ds.iter_internal_ref_bundles() for ref in bundle.block_refs]
    refs = [write.remote(ref, tmp_dir, i, partial) for i, ref in enumerate(blocks)]
    written = [r for r in ray.get(refs) if r]
    files = {name: n for name, n, _, _ in written if name}
    if not files:
        schema = written[0][3] if written else pa.schema([])
        pq.write_table(schema.empty_table(), os.path.join(tmp_dir, "empty.parquet"))
        files = {"empty.parquet": 0}
    parts = [part for _, _, part, _ in written]
    counters = merge(parts, lambda: read_parquet_clean(tmp_dir)) if merge else {}
    man = {
        "stage": stage_name,
        "fingerprint": fp,
        "rows": sum(files.values()),
        "files": dict(sorted(files.items())),
        "counters": {k: int(v) for k, v in counters.items()},
        "written_at": time.time(),
        "complete": True,
    }
    with open(manifest_path(tmp_dir), "w") as f:
        json.dump(man, f, indent=1)
    shutil.rmtree(stage_dir, ignore_errors=True)
    os.replace(tmp_dir, stage_dir)
    return ds


def read_manifest(stage_dir: str) -> dict | None:
    try:
        with open(manifest_path(stage_dir)) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
