"""adlc benchmark: one workload, one seed, a closed loop for --seconds.

    python3 bench/run.py --workload corpus|compile|control --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The full
result (machine information, per-workload detail metrics, failures,
known-defect probes) goes to .bench_out/, and a traced run also writes its
spans there.  See bench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import common
import native

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("corpus", "compile", "control"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_adlc() -> float:
    """Put the checkout's sources on the path and import adlc; returns the
    import time.  Exits 2 when the sources are not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "adlc", "__init__.py")):
        print(f"bench: no adlc sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import adlc  # noqa: F401
    return time.perf_counter() - t0


def measure(wl, seconds: float, trace: bool) -> dict:
    """Closed loop: passes over the workload's fixed inputs until the next
    one would end past `seconds`.  A traced run alternates traced and
    untraced passes, so it can report the tracing overhead."""
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        wl.tr.enabled = trace and i % 2 == 0
        cells, dt = wl.run_pass()
        (traced if wl.tr.enabled else plain).append((cells, dt))
        i += 1
        elapsed = time.perf_counter() - start
        need = 2 if trace else 1
        if i >= need and elapsed + dt > seconds:
            break
    wl.tr.enabled = False  # probes stay out of the per-layer figures
    return {"plain": plain, "traced": traced}


def end_to_end(wl, passes: dict, setup_s: float) -> dict:
    rates = [c / dt for c, dt in passes["plain"]]
    return {
        "setup_s": (setup_s, "s"),
        "fail_ratio": (wl.out.fail_ratio(), "ratio"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
        "check_cells_per_s": (statistics.median(rates), "1/s"),
    }


def per_layer(wl, passes: dict) -> dict:
    traced_s = sum(dt for _, dt in passes["traced"])
    n = len(passes["traced"])
    own = wl.tr.self_times()
    out = {}
    for layer in common.LAYERS:
        self_s, calls = own.get(layer, (0.0, 0))
        out[f"{layer}.self_pct"] = (100.0 * self_s / traced_s, "%")
        out[f"{layer}.calls"] = (calls / n, "count")
    for name, v in wl.sizes().items():
        out[name] = (v, "count")
    t = statistics.median([dt for _, dt in passes["traced"]])
    u = statistics.median([dt for _, dt in passes["plain"]])
    out["trace.overhead_pct"] = (100.0 * (t / u - 1.0), "%")
    return out


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import_s = import_adlc()
    from workloads import WORKLOADS

    out_dir = os.path.join(ROOT, ".bench_out")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "adlc-bench")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(build_dir, exist_ok=True)

    outcomes = common.Outcomes()
    wl = WORKLOADS[args.workload](args.seed, outcomes, build_dir)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)
    wl.references()

    passes = measure(wl, args.seconds, bool(args.trace))
    wl.probe()

    metrics = (per_layer(wl, passes) if args.trace
               else end_to_end(wl, passes, setup_s))
    detail = {"setup.import_s": import_s, "setup.repeats_s": setups,
              **{k: common.summary(v) for k, v in wl.extra_setup.items()},
              "check_cells_per_s": common.summary(
                  [c / dt for c, dt in passes["plain"]]),
              **wl.detail()}
    if args.workload == "control" and not native.available():
        detail["absent"] = {"native_*": "g++ not found; native metrics absent"}
    result = {
        "correct": outcomes.failed == 0,
        "attempted": max(1, outcomes.attempted),
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "machine": common.machine_info(), **result,
                   "pass_s": {k: [dt for _, dt in v] for k, v in passes.items()},
                   "detail": detail, "failures": outcomes.failures[:50],
                   "known_defect_probes": outcomes.probes}, fh, indent=1,
                  default=str)
    if args.trace:
        wl.tr.dump(os.path.join(out_dir, f"spans-{tag}.json"))
    for k, (v, u) in metrics.items():
        print(f"{k} {v} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
