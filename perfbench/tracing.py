"""In-memory spans and a /proc RSS sampler.

A span records name, start, end, parent span and the trace id of the
job it belongs to. Spans stay in memory until ``Tracer.write``. A
layer's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time


class Tracer:
    def __init__(self, trace_id: int = 0):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace_id = trace_id

    def extend(self, spans: list[dict]) -> None:
        """Append another tracer's spans, renumbering their ids."""
        base = len(self.spans)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append({**s, "id": s["id"] + base, "parent": parent})

    def begin(self, name: str, **attrs) -> dict:
        """Open a span under the innermost open one; ``end`` closes it."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "trace": self.trace_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def end(self, rec: dict) -> None:
        """Close ``rec``, which must be the innermost open span."""
        if self._stack[-1] != rec["id"]:
            raise RuntimeError(f"span {rec['name']} is not the innermost open span")
        self._stack.pop()
        rec["end"] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = self.begin(name, **attrs)
        try:
            yield rec
        finally:
            self.end(rec)

    def self_times(self) -> dict[int, float]:
        """span id -> duration minus the union of its children's spans."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered, cur_start, cur_end = 0.0, None, None
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
                if hi <= lo:
                    continue
                if cur_end is None or lo > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = lo, hi
                else:
                    cur_end = max(cur_end, hi)
            if cur_end is not None:
                covered += cur_end - cur_start
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def write(self, path: str) -> None:
        st = self.self_times()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump([{**s, "self": st[s["id"]]} for s in self.spans], f)


def _children(pid: int) -> list[int]:
    out = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(x) for x in f.read().split())
        except OSError:
            pass
    return out


def process_tree(root: int) -> list[int]:
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(_children(pid))
    return out


def rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, IndexError, ValueError):
        return 0.0


def reset_own_peak_rss() -> None:
    """Restart this process's peak-RSS mark (VmHWM) at its current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def own_peak_rss_mb() -> float:
    """This process's peak RSS (VmHWM) since start or the last reset."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


def ray_workers(root: int) -> list[int]:
    return [p for p in process_tree(root) if _is_ray_worker(p)]


class RssSampler:
    """Peak RSS of the Ray driver process ``root`` plus its Ray worker
    processes (``ray::*`` descendants) summed, sampled while ``active``
    is set."""

    def __init__(self, interval: float = 0.1, rescan: float = 1.0):
        self.interval, self.rescan = interval, rescan
        self.root: int | None = None
        self.peak_total_mb = 0.0
        self.active = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        root, workers, scanned = None, [], 0.0
        while not self._stop.wait(self.interval):
            if not self.active.is_set() or self.root is None:
                continue
            now = time.monotonic()
            if root != self.root or now - scanned > self.rescan:
                root = self.root
                workers = ray_workers(root)
                scanned = now
            total = rss_mb(root) + sum(rss_mb(p) for p in workers)
            self.peak_total_mb = max(self.peak_total_mb, total)
