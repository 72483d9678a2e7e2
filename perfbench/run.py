"""Closed-loop benchmark of the ER and dedup pipelines.

    python3 perfbench/run.py --workload er_checkpoint --seed 1 --seconds 20 --trace 0

This process drives a closed loop: it asks a child process that owns
the Ray session (``session.py``) for one job at a time, and the next job
starts when the previous one has finished and its outputs have been
consumed. Set-up (Ray start, seeded input generation, a warm-up job) is
timed as ``setup_s``; the timed loop then runs for ``--seconds``. Every
job runs under a watchdog: an exception, a timeout or a failed output
check counts as a failed job, the child and all its Ray processes are
killed, a new session starts and the loop goes on.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced jobs for the whole window (the same program
with each layer call wrapped in a span and its output materialized at
the boundary, see ``workloads``), adds fixed-input kernel
micro-timings, writes the spans to ``.perfbench_out/`` and reports the
per-layer metrics plus ``trace.overhead_s``: the traced job time minus
the untraced one, which is the cost of the spans and of the barriers
the boundary materializations add.

Ray always gets ``session.RAY_CPUS`` (2) logical CPUs, whatever
``nproc`` says, so
partition sizing (``rayutil.shuffle_partitions`` reads the cluster CPU
count) is the same on every box. With 1 logical CPU the pair exchange of
``stages.blocking.generate_pair_features`` deadlocks: its hash-shuffle
aggregator actors hold 0.2 CPU and the 1-CPU map task waits behind them
forever. 2 is the smallest count that completes.

The line before the last holds the full report (every metric by name and
unit, the job samples, the CPU settings). The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

if importlib.util.find_spec("pubmed_and_method_ray") is None:
    sys.exit("perfbench: the pubmed_and_method_ray package is not in this checkout")

import kernels  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_BUDGET_S = 150.0
JOB_TIMEOUT_S = 75.0
SETUP_TIMEOUT_S = 60.0
# between jobs: wait for the previous job's Ray processes to settle
SETTLE_QUIET_S = 0.5
SETTLE_CAP_S = 5.0
# no new session is started with less than this left of the run budget
MIN_RESTART_S = 15.0

END_TO_END = {"job_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
REPORTED = {
    "job_s": "s",
    "pages_per_s": "pages/s",
    "resume_s": "s",
    "pair_f1": "1",
    "cluster_f1": "1",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "error_rate": "1",
}
PER_LAYER = {
    "io.read_s": "s",
    "io.bytes": "bytes",
    "mention_prep.s": "s",
    "mention_prep.rows_per_s": "rows/s",
    "mention_prep.out_bytes": "bytes",
    "blocking.census_s": "s",
    "blocking.max_host_rows": "rows",
    "blocking.salted_hosts": "count",
    "blocking.pair_score_s": "s",
    "blocking.candidate_pairs": "count",
    "blocking.pairs_per_page": "1",
    "blocking.bucket_skew": "1",
    "features.edges_s": "s",
    "features.match_edges": "count",
    "features.match_yield": "1",
    "cluster.cc_s": "s",
    "cluster.clusters": "count",
    "cluster.edge_nodes": "count",
    "checkpoint.write_s": "s",
    "checkpoint.bytes": "bytes",
    "er.driver_peak_rss_mb": "MB",
    "dedup.shared_window_s": "s",
    "dedup.shared_window_pairs": "count",
    "dedup.minhash_lsh_s": "s",
    "dedup.minhash_lsh_pairs": "count",
    "functions.levenshtein_us_per_pair": "us",
    "functions.jaro_winkler_us_per_pair": "us",
    "functions.simhash_us_per_doc": "us",
    "functions.gbt_us_per_row": "us",
    "features.sparse_dot_us_per_pair": "us",
    "features.jaccard_us_per_pair": "us",
    "mention_prep.normalize_us_per_row": "us",
    "trace.overhead_s": "s",
}
# span name -> per-layer time metric (self time, summed per job)
SPAN_METRIC = {
    "sources.io": "io.read_s",
    "stages.mention_prep": "mention_prep.s",
    "stages.blocking.census": "blocking.census_s",
    "stages.blocking.pair_score": "blocking.pair_score_s",
    "stages.features.edges": "features.edges_s",
    "stages.cluster": "cluster.cc_s",
    "sources.checkpoint": "checkpoint.write_s",
    "pipelines.dedup.shared_window": "dedup.shared_window_s",
    "pipelines.dedup.minhash_lsh": "dedup.minhash_lsh_s",
}


def set_subreaper() -> None:
    """Orphaned Ray processes re-parent to this process, so it can reap
    every one of them."""
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap_descendants(timeout: float = 20.0) -> None:
    """SIGKILL every process below this one and wait until each ended."""
    me = os.getpid()
    t_end = time.monotonic() + timeout
    while time.monotonic() < t_end:
        pids = [p for p in tracing.process_tree(me) if p != me]
        if not pids:
            return
        for p in pids:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.05)


class Session:
    """The child process that owns Ray (``session.serve``)."""

    def __init__(self, args):
        mp = multiprocessing.get_context("spawn")
        self.conn, child = mp.Pipe()
        self.proc = mp.Process(
            target=session.serve,
            args=(child, ROOT, args.workload, args.seed, args.tiny),
        )
        self.proc.start()
        child.close()

    def call(self, cmd, timeout: float):
        """(reply, None) or (None, reason)."""
        try:
            self.conn.send(cmd)
            if not self.conn.poll(max(timeout, 0.0)):
                return None, f"timeout after {timeout:.0f} s"
            reply = self.conn.recv()
        except (EOFError, OSError):
            return None, "the Ray driver process died"
        if "error" in reply:
            return None, reply["error"]
        return reply, None

    def stop(self, grace: float) -> None:
        try:
            self.conn.send(("stop",))
        except OSError:
            pass
        self.proc.join(grace)
        reap_descendants()
        self.proc.join()
        shutil.rmtree(session.work_dir(ROOT, self.proc.pid), ignore_errors=True)


class Loop:
    """Closed loop of jobs, one at a time, with failure accounting. A
    failed job (exception, timeout, failed check) restarts the session:
    Ray and the inputs are set up again and the loop goes on."""

    def __init__(self, args, deadline: float, sampler):
        self.args, self.deadline, self.sampler = args, deadline, sampler
        self.inject = args.inject
        self.attempted = self.failed = 0
        self.check_failed = self.broken = False
        self.checked = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.quality: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}
        self.session = None

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def _spawn(self) -> dict:
        """A new session with Ray started and the inputs installed."""
        self.session = Session(self.args)
        self.sampler.root = self.session.proc.pid
        setup, err = self.session.call(("setup",), min(SETUP_TIMEOUT_S, self.remaining()))
        if err is not None:
            raise RuntimeError(f"set-up failed: {err}")
        return setup

    def start(self) -> dict:
        """The first session, warmed up by one untimed job (which still
        counts as attempted, and as failed if it fails)."""
        setup = self._spawn()
        t0 = time.perf_counter()
        self.one(("warmup",), record=False)
        setup["warmup_s"] = time.perf_counter() - t0
        return setup

    def restart(self) -> None:
        """A new session, warmed up like the first one, after a failure."""
        self.session.stop(grace=0)
        if self.remaining() < MIN_RESTART_S:
            self.broken = True
            return
        try:
            self._spawn()
            _, err = self.session.call(
                ("warmup",), min(self.args.job_timeout, self.remaining())
            )
            if err is not None:
                raise RuntimeError(f"warm-up failed: {err}")
        except RuntimeError as e:
            self.session.stop(grace=0)
            self.failures.append(str(e))
            self.broken = True

    def one(self, cmd, record: bool = True) -> dict | None:
        """Run one job; its reply, or None if it failed."""
        self.attempted += 1
        if record:
            self.sampler.active.set()
        try:
            reply, err = self.session.call(
                cmd, min(self.args.job_timeout, self.remaining())
            )
        finally:
            self.sampler.active.clear()
        if err is None:
            self.settle()
        if err is None and reply.get("errors"):
            err = "check: " + "; ".join(reply["errors"])
        if err is None:
            for k, d in reply.get("digests", {}).items():
                if self.digests.setdefault(k, d) != d:
                    err = f"check: {k} differs from the run's first job"
        if err is not None:
            self.check_failed |= err.startswith("check:")
            self.failed += 1
            self.failures.append(f"{cmd[0]}: {err}")
            print(f"job {self.attempted} failed: {err}", file=sys.stderr, flush=True)
            self.restart()
            return None
        self.checked += "errors" in reply
        if record:
            for k, v in reply["times"].items():
                self.samples.setdefault(k, []).append(v)
            for k, v in reply["quality"].items():
                self.quality.setdefault(k, []).append(v)
        return reply

    def settle(self) -> None:
        """Wait until the set of ``ray::`` processes under the session
        has not changed for SETTLE_QUIET_S (at most SETTLE_CAP_S): the
        previous job's actors are torn down before the next job starts."""
        t_end = time.monotonic() + SETTLE_CAP_S
        last, since = None, time.monotonic()
        while time.monotonic() < t_end:
            now = set(tracing.ray_workers(self.session.proc.pid))
            if now != last:
                last, since = now, time.monotonic()
            elif time.monotonic() - since >= SETTLE_QUIET_S:
                return
            time.sleep(0.05)

    def run_for(self, seconds: float, kinds) -> list[tuple[str, dict]]:
        """Jobs back to back until ``seconds`` have passed, one of each
        kind in turn and at least one of each; ``kinds`` holds
        (make_cmd, record) pairs. Returns the (command, reply) of each
        job that passed."""
        replies = []
        t_end = time.monotonic() + seconds
        for n, (make_cmd, record) in enumerate(itertools.cycle(kinds)):
            if n >= len(kinds) and time.monotonic() >= t_end:
                break
            if self.broken or self.remaining() < 1.0:
                break
            cmd = make_cmd()
            reply = self.one(cmd, record)
            if reply is not None:
                replies.append((cmd[0], reply))
        return replies


def nproc() -> int | None:
    """What ``nproc`` prints (it honours OMP_NUM_THREADS)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    except (OSError, ValueError):
        return None


def median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer, facts_by_trace) -> dict[str, float]:
    """Per-job layer values (span self times summed per job), median
    over the traced jobs."""
    self_t = tracer.self_times()
    per_trace: dict[int, dict[str, float]] = {}
    for s in tracer.spans:
        metric = SPAN_METRIC.get(s["name"])
        if metric:
            d = per_trace.setdefault(s["trace"], {})
            d[metric] = d.get(metric, 0.0) + self_t[s["id"]]
    for tid, facts in facts_by_trace.items():
        d = per_trace.setdefault(tid, {})
        d.update(facts)
        rows, secs = facts.get("mention_prep.rows"), d.get("mention_prep.s")
        if rows and secs:
            d["mention_prep.rows_per_s"] = rows / secs
    out: dict[str, float] = {}
    for d in per_trace.values():
        for k, v in d.items():
            out.setdefault(k, []).append(v)
    return {k: median(v) for k, v in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    ap.add_argument(
        "--inject",
        choices=("raise", "hang", "check"),
        help="make the first timed job fail this way (tests the watchdog)",
    )
    ap.add_argument("--job-timeout", type=float, default=JOB_TIMEOUT_S)
    args = ap.parse_args(argv)

    set_subreaper()
    deadline = time.monotonic() + RUN_BUDGET_S
    tracer = tracing.Tracer()
    facts: dict[int, dict] = {}
    traced_jobs: list[float] = []
    with tracing.RssSampler() as sampler:
        loop = Loop(args, deadline, sampler)
        try:
            setup = loop.start()
            setup_s = (
                setup["ray_init_s"]
                + median(setup["generate_s"])
                + setup["install_s"]
                + setup["warmup_s"]
            )

            def job_cmd():
                inject, loop.inject = loop.inject, None
                return ("job", inject)

            kinds = [(job_cmd, True)]
            if args.trace:
                # untraced and traced jobs alternate, so both see the
                # session at the same age and trace.overhead_s compares
                # like with like
                tids = iter(range(1, 1 << 30))
                kinds.append((lambda: ("traced", next(tids)), False))
            for cmd, reply in loop.run_for(args.seconds, kinds):
                if cmd == "traced":
                    tracer.extend(reply["spans"])
                    facts[reply["spans"][0]["trace"]] = reply["facts"]
                    traced_jobs.append(reply["times"]["job_s"])
        finally:
            if loop.session is not None:
                loop.session.stop(grace=10.0)

    # no job_s without a successful timed job (the result is then not
    # correct): a failed or timed-out job's duration is not a job time
    job_s = median(loop.samples["job_s"]) if "job_s" in loop.samples else None
    e2e = {
        "peak_rss_mb": sampler.peak_total_mb,
        "setup_s": setup_s,
        "error_rate": loop.failed / loop.attempted,
    }
    if job_s is not None:
        e2e["job_s"] = job_s
    if "cluster_f1" in loop.quality:  # a timed job passed, so job_s is set
        e2e["pages_per_s"] = setup["inputs"] / job_s
        e2e["cluster_f1"] = median(loop.quality["cluster_f1"])
    if "resume_s" in loop.samples:
        e2e["resume_s"] = median(loop.samples["resume_s"])
    if "pair_f1" in loop.quality:
        e2e["pair_f1"] = median(loop.quality["pair_f1"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "ray_logical_cpus": session.RAY_CPUS,
        "nproc": nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "inputs": setup["inputs"],
        **setup["info"],
        "metrics": {k: {"value": v, "unit": REPORTED[k]} for k, v in e2e.items()},
        "samples_s": loop.samples,
        "setup": {k: setup[k] for k in ("ray_init_s", "generate_s", "install_s", "warmup_s")},
        "quality": {k: median(v) for k, v in loop.quality.items()},
        "failures": loop.failures,
    }
    if args.trace:
        layers = layer_metrics(tracer, facts)
        layers.update(kernels.micro_timings())
        if traced_jobs and job_s is not None:
            layers["trace.overhead_s"] = median(traced_jobs) - job_s
        metrics = {
            k: {"value": float(layers.get(k, 0.0)), "unit": u}
            for k, u in PER_LAYER.items()
        }
        span_path = os.path.join(
            ROOT, ".perfbench_out", f"spans_{args.workload}_seed{args.seed}.json"
        )
        tracer.write(span_path)
        report["span_file"] = os.path.relpath(span_path, ROOT)
        report["traced_job_s"] = traced_jobs
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items() if k in e2e}
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not loop.check_failed and loop.checked > 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
