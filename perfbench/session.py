"""The Ray driver side of the benchmark: one child process that owns a
Ray session, the workload's inputs and its outputs, and runs the jobs
the parent asks for, one at a time. The parent can kill it (and every
Ray process under it) when a job hangs, and start a new one.

Commands (tuples over a Pipe) and replies (dicts):
    ("setup",)            -> {"ray_init_s", "generate_s": [...], "install_s", "inputs", "info"}
    ("warmup",)           -> {}
    ("job", inject)       -> {"times", "quality", "errors", "digests"}
    ("traced", trace_id)  -> the same plus "facts" and "spans"
    ("stop",)             -> Ray is shut down, the process exits
A command that raises replies {"error": "<type>: <message>"}.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time

RAY_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
GEN_REPS = 3
# AF_UNIX socket paths are capped at 107 bytes and Ray appends ~63 to
# its temp dir; a longer checkout path keeps Ray's default temp dir
MAX_RAY_TEMP = 44


def work_dir(root: str, pid: int) -> str:
    """Inputs, checkpoints and Ray's temp dir of the session ``pid``;
    the parent removes it once the session and its processes are gone."""
    return os.path.join(root, ".pbwork", str(pid))


def ray_start(work: str) -> None:
    import ray
    from ray.data import DataContext

    kwargs = {}
    temp = os.path.join(work, "ray")
    if len(temp) <= MAX_RAY_TEMP:
        kwargs["_temp_dir"] = temp
    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        **kwargs,
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


class Context:
    """What a workload's jobs share: the work dir and the pretrained
    model and idf the production path loads."""

    def __init__(self, work: str):
        from pubmed_and_method_ray.state import (
            load_pretrained_idf,
            load_pretrained_model_json,
        )

        self.work = work
        self.job_no = 0
        self.model_json = load_pretrained_model_json()
        self.idf = load_pretrained_idf()


def _hang():
    """A job whose Ray task never returns, the shape of the 1-CPU
    pair-exchange deadlock."""
    import ray

    @ray.remote(num_cpus=RAY_CPUS + 1)
    def unschedulable():
        return 0

    ray.get(unschedulable.remote())


def _digest(t) -> str:
    """Order-independent content hash of an output table."""
    import pyarrow as pa

    t = t.sort_by([(c, "ascending") for c in t.column_names])
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.blake2b(sink.getvalue(), digest_size=16).hexdigest()


def _checked(wl, times, result, inject):
    if inject == "check":
        # drop one output row: the check must catch it
        result = {k: v.slice(1) if hasattr(v, "slice") else v for k, v in result.items()}
    errors, quality = wl.check(result)
    digests = {
        k: _digest(v) for k, v in result.items() if hasattr(v, "sort_by") and not errors
    }
    return {"times": times, "quality": quality, "errors": errors, "digests": digests}


def serve(conn, root: str, workload: str, seed: int, tiny: bool) -> None:
    import sys

    sys.path[:0] = [root, os.path.dirname(os.path.abspath(__file__))]
    # first: the package sets Ray Data defaults before any Dataset exists
    import pubmed_and_method_ray  # noqa: F401
    import tracing
    import workloads

    work = work_dir(root, os.getpid())
    os.makedirs(work, exist_ok=True)
    # Ray workers must import the package from this checkout wherever
    # the benchmark was started from
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p
    )
    wl = workloads.make(workload, tiny=tiny)
    try:
        while True:
            cmd = conn.recv()
            if cmd[0] == "stop":
                break
            try:
                conn.send(_command(cmd, wl, work, seed, tracing))
            except Exception as e:  # noqa: BLE001 — every failure is reported
                conn.send({"error": f"{type(e).__name__}: {e}"})
    finally:
        import ray

        ray.shutdown()


def _command(cmd, wl, work, seed, tracing) -> dict:
    if cmd[0] == "setup":
        t0 = time.perf_counter()
        ray_start(work)
        init_s = time.perf_counter() - t0
        ctx = Context(work)
        gen_s, inputs = [], []
        for _ in range(GEN_REPS):
            t0 = time.perf_counter()
            inputs.append(wl.generate(seed))
            gen_s.append(time.perf_counter() - t0)
        if not all(t.equals(inputs[0]) for t in inputs[1:]):
            raise RuntimeError("input generation is not deterministic")
        t0 = time.perf_counter()
        wl.install(ctx, inputs[0])
        install_s = time.perf_counter() - t0
        wl.prepare_checks()
        return {
            "ray_init_s": init_s,
            "generate_s": gen_s,
            "install_s": install_s,
            "inputs": wl.n_inputs,
            "info": wl.info(),
        }
    if cmd[0] == "warmup":
        wl.warmup()
        return {}
    if cmd[0] == "job":
        inject = cmd[1]
        if inject == "raise":
            raise RuntimeError("injected failure")
        if inject == "hang":
            _hang()
        times, result = wl.job()
        return _checked(wl, times, result, inject)
    if cmd[0] == "traced":
        tr = tracing.Tracer(trace_id=cmd[1])
        times, result, facts = wl.traced_job(tr)
        return {**_checked(wl, times, result, None), "facts": facts, "spans": tr.spans}
    raise ValueError(f"unknown command {cmd[0]!r}")
