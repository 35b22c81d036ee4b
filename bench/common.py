"""Shared pieces of the adlc benchmark: span tracing, sample summaries,
the benchmark's own gradient references, machine information and results.

Nothing here imports adlc, so the generators and checkers stay independent
of the layers they check.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from contextlib import contextmanager

LAYERS = ("syntax", "lang", "forward", "reverse", "runtime", "interp",
          "staging", "ir_opt", "ir_eval", "emit", "gradcheck", "native")

FORWARD_FAMILY = ("dual", "forward", "symbolic")
REVERSE_FAMILY = ("cps", "tape", "functional", "reverse-target-shift",
                  "reverse-meta-shift", "reverse-cps-full", "staged")
FAMILY_TOL = 1e-10  # the two families, and the exact derivative
FD_TOL = 1e-4       # central finite differences


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans around calls into the layers.  Disabled, `call` is a plain call;
    enabled, each call records [name, start, end, parent, op] in memory."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Per-layer [self time, call count]; a span's self time is its
        duration minus that of its direct children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = {}
        for (name, t0, t1, _, _), inner in zip(self.spans, child):
            acc = out.setdefault(name.split(".", 1)[0], [0.0, 0])
            acc[0] += (t1 - t0) - inner
            acc[1] += 1
        return out

    def durations(self) -> dict:
        """Wall-clock (duration, op id) pairs grouped by span name."""
        out: dict = {}
        for name, t0, t1, _, op in self.spans:
            out.setdefault(name, []).append((t1 - t0, op))
        return out

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


# ---------------------------------------------------------------------------
# Sample summaries

_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def summary(samples: list[float]) -> dict:
    """Median plus the highest percentile that has at least ten samples
    beyond it (nearest rank), with the sample count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs) if xs else float("nan"), "n": n}
    for p in _PERCENTILES:
        rank = math.ceil(round(p * n / 100.0, 9))  # nearest rank, 1-based
        if n - rank >= 10:
            out[f"p{p:g}"] = xs[rank - 1]
            break
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# References the benchmark computes itself


def rel_ok(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def chain_eval(chain: list, x: float, dx: float = 0.0) -> tuple[float, float]:
    """Value and exact derivative (dual numbers) of a straight-line chain
    [(name, op, a, b), ...] whose operands are names or floats; the input is
    "x" and the last binding is the result."""
    env = {"x": (x, dx)}

    def atom(a):
        return env[a] if isinstance(a, str) else (a, 0.0)

    for name, op, a, b in chain:
        (va, da), (vb, db) = atom(a), atom(b)
        if op == "+":
            env[name] = (va + vb, da + db)
        else:
            env[name] = (va * vb, da * vb + va * db)
    return env[chain[-1][0]]


def chain_fd(chain: list, x: float) -> float:
    """Central difference with the step gradcheck documents."""
    h = 1e-6 * max(1.0, abs(x))
    return (chain_eval(chain, x + h)[0] - chain_eval(chain, x - h)[0]) / (2.0 * h)


def check_gradients(grads: dict, exact: float, fd: float) -> str | None:
    """Verdict on one (program, probe) cell: None when it passes, else the
    reason.  Each family agrees bitwise, the families agree with each other
    and with the exact derivative to 1e-10 relative, finite differences to
    1e-4."""
    for fam in (FORWARD_FAMILY, REVERSE_FAMILY):
        vals = [grads.get(m) for m in fam]
        if any(type(v) is not float for v in vals):
            return f"missing or non-real gradient in {fam}"
        if any(v != vals[0] for v in vals):
            return "family disagrees: " + ", ".join(
                f"{m}={grads[m]!r}" for m in fam)
    fwd, rev = grads[FORWARD_FAMILY[0]], grads[REVERSE_FAMILY[0]]
    if not rel_ok(rev, fwd, FAMILY_TOL):
        return f"families differ: forward {fwd!r}, reverse {rev!r}"
    if not rel_ok(fwd, exact, FAMILY_TOL):
        return f"exact derivative {exact!r}, forward {fwd!r}"
    if not rel_ok(fd, fwd, FD_TOL):
        return f"finite difference {fd!r}, forward {fwd!r}"
    return None


# ---------------------------------------------------------------------------
# Machine information and results


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    gxx = "absent"
    if shutil.which("g++"):
        r = subprocess.run(["g++", "--version"], capture_output=True,
                           text=True, timeout=30)
        gxx = r.stdout.splitlines()[0] if r.stdout else "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "gxx": gxx, "cpu": cpu}


class Outcomes:
    """Ops attempted and failed.  Regular ops feed `attempted`/`failed`;
    known-defect probe ops count only toward `fail_ratio`, which is taken
    over distinct op ids so it does not depend on how many passes fit."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ids: set = set()
        self.failed_ids: set = set()
        self.failures: list[dict] = []
        self.probes: list[dict] = []

    def record(self, op_id, reason: str | None) -> None:
        self.attempted += 1
        self.ids.add(op_id)
        if reason is not None:
            self.failed += 1
            if op_id not in self.failed_ids:
                self.failed_ids.add(op_id)
                self.failures.append({"op": str(op_id), "reason": reason})

    def probe(self, op_id, defect: str, reason: str | None,
              unexpected: bool = False) -> None:
        """A known-defect probe op.  `reason` is None when it passed; an
        unexpected failure (a wrong value, not the known defect) is a
        regular failure."""
        if unexpected:
            self.record(op_id, reason)
            return
        self.ids.add(op_id)
        if reason is not None:
            self.failed_ids.add(op_id)
        self.probes.append({"op": str(op_id), "defect": defect,
                            "failed": reason is not None, "reason": reason})

    def fail_ratio(self) -> float:
        """Add-one estimate (failed + 1) / (attempted + 1) over distinct ops,
        so a clean run reads 1/(ops + 1) and never 0."""
        return (len(self.failed_ids) + 1) / (len(self.ids) + 1)


def describe_error(ex: BaseException) -> str:
    text = str(ex)
    if len(text) > 200:
        text = text[:200] + "..."
    return f"{type(ex).__name__}: {text}"
