"""Build C++ harnesses with g++ and run them as guarded child processes:
an address-space limit, a wall-clock timeout, and max RSS from wait4."""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import time
from dataclasses import dataclass

GXX = "g++"
GXX_FLAGS = ("-O2", "-std=c++17")
# address-space limit per child: the 1000-iteration loop peaks near 100 MB
CHILD_AS_BYTES = 1 << 30
CHILD_TIMEOUT_S = 60.0
BUILD_TIMEOUT_S = 300.0


class NativeError(Exception):
    pass


def available() -> bool:
    return shutil.which(GXX) is not None


def build(source: str, name: str, build_dir: str) -> str:
    """Compile one translation unit; returns the executable path.  g++ gets
    TMPDIR inside the build directory so it writes nowhere else."""
    os.makedirs(build_dir, exist_ok=True)
    src = os.path.join(build_dir, f"{name}.cc")
    exe = os.path.join(build_dir, name)
    with open(src, "w") as fh:
        fh.write(source)
    env = dict(os.environ, TMPDIR=build_dir)
    r = subprocess.run([GXX, *GXX_FLAGS, src, "-o", exe], capture_output=True,
                       text=True, env=env, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        raise NativeError(f"g++ failed on {name}: {r.stderr[-2000:]}")
    return exe


@dataclass
class ChildResult:
    stdout: str
    max_rss_mb: float
    exit_code: int
    timed_out: bool

    def failure(self) -> str | None:
        if self.timed_out:
            return f"timed out after {CHILD_TIMEOUT_S:g} s"
        if self.exit_code != 0:
            return f"exit code {self.exit_code}"
        return None


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


def run(argv: list[str], out_path: str,
        timeout_s: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion (or kill it at the timeout) and reap it
    with wait4 to read its max RSS."""
    with open(out_path, "w+b") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL,
                                preexec_fn=_limit_address_space)
        deadline = time.monotonic() + timeout_s
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.001)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    return ChildResult(text, usage.ru_maxrss / 1024.0, proc.returncode,
                       timed_out)


def parse_calls(stdout: str) -> list[tuple[float, int]]:
    """Lines of "%a ns" from a harness: (gradient, nanoseconds)."""
    calls = []
    for line in stdout.split("\n"):
        if line:
            g, ns = line.split()
            calls.append((float.fromhex(g), int(ns)))
    return calls
