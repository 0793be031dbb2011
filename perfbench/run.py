"""Benchmark harness for microloc: one workload per run, or all of them.

    python3 perfbench/run.py --workload ww_ramp --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; microloc is imported from ./src.  A run times
set-up in fresh processes, then repeats one experiment call of the workload
until ``--seconds`` are used up, applies the correctness gate to every call
and prints, as its last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` alternates untraced and traced calls
and gives the per-layer metrics.  Full results, provenance and spans go to
perfbench/out/.  README.md next to this file describes the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_S, Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("ww_flat", "ww_ramp", "ww_linear", "model_probe")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# Reference time spent after each call, as a share of the call's time.
REF_SHARE = 0.15


# -- correctness gate --------------------------------------------------------------


def gate(reports):
    """None when every report passes, else the reason the call counts as failed.

    A report fails when it has no ``predicted`` probe, no control probe, or a
    NaN decay order.  (A call that raises fails before it gets here.)
    """
    for rep in reports:
        labels = [p.label for p in rep.probes]
        if "predicted" not in labels:
            return "no predicted probe"
        if not any(lbl.startswith("control") for lbl in labels):
            return "no control probe"
        if any(math.isnan(p.mu_hat) for p in rep.probes):
            return "NaN decay order"
    return None


def separation(reports):
    """Min over reports of (min control mu_hat - predicted mu_hat)."""
    seps = []
    for rep in reports:
        ctrl = min(p.mu_hat for p in rep.probes if p.label.startswith("control"))
        seps.append(ctrl - rep.mu("predicted"))
    return min(seps)


# -- provenance --------------------------------------------------------------------


def _commit():
    """HEAD of ROOT/.git read from its files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "microloc").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _openblas_threads():
    """Thread count of every OpenBLAS library mapped into this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.startswith("/"):
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        # the symbol names of the OpenBLAS builds that numpy and scipy wheels bundle
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def provenance(inputs):
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if any(t in k for t in ("THREAD", "BLAS", "OMP", "MKL", "NUMEXPR"))},
        "workload": inputs.name,
        "seed": inputs.seed,
        "args": inputs.args,
    }


# -- one run -----------------------------------------------------------------------


def scaled(samples):
    """Median of sample/reference over (sample, reference) pairs, in seconds at
    REF_S: the machine's drift cancels (see reference.py)."""
    return statistics.median(s / r for s, r in samples) * REF_S


def time_setup(workload, seed, ref):
    """Seconds from starting a fresh interpreter until the workload's inputs are
    ready, paired with a reference pass run right after."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        dt = time.perf_counter() - t0
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode}, said {line!r})")
    return dt, ref()


def run_calls(inputs, seconds, trace, ref):
    """Repeat the experiment call until `seconds` are used; trace every second call.

    Each call is followed by reference passes, inside the time budget.
    """
    import spans

    tracer = spans.Tracer() if trace else None
    calls = []
    t_start = time.perf_counter()
    while True:
        traced = bool(trace) and len(calls) % 2 == 1
        if traced:
            tracer.call_id = len(calls)
            tracer.install()
        t0 = time.perf_counter()
        try:
            reports = inputs.call()
            reason = gate(reports)
        except Exception as exc:  # a call that raises is a failed operation
            reports, reason = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        # reference passes worth about REF_SHARE of the call, averaged
        passes = max(1, round(REF_SHARE * dt / REF_S))
        ref_s = sum(ref() for _ in range(passes)) / passes
        rec = {"s": dt, "ref_s": ref_s, "ref_passes": passes, "traced": traced,
               "failed": reason}
        if reason is None:
            rec["separation"] = separation(reports)
            rec["mu_hat"] = [[p.label, p.mu_hat] for r in reports for p in r.probes]
        if traced:
            rec["layers"] = spans.per_layer_metrics(
                [s for s in tracer.spans if s[0] == tracer.call_id], spans.chi_cache_mb())
        calls.append(rec)
        elapsed = time.perf_counter() - t_start
        # a traced run needs one untraced and one traced call at least
        step = dt + passes * ref_s
        if len(calls) >= (2 if trace else 1) and elapsed + 0.5 * step >= seconds:
            break
    return calls, tracer


def summarize(calls, setup, trace):
    """Metric values of a run; `setup` holds (set-up s, reference s) pairs."""
    ok = [c for c in calls if c["failed"] is None]
    plain = [(c["s"], c["ref_s"]) for c in ok if not c["traced"]]
    if not trace:
        return {
            "exp_s": scaled(plain) if plain else None,
            "setup_s": scaled(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "separation": statistics.median(c["separation"] for c in ok) if ok else None,
        }
    traced = [c for c in ok if c["traced"]]
    if not traced or not plain:
        return {}
    # median_low keeps counts whole: it returns one of the measured values
    out = {k: statistics.median_low(c["layers"][k] for c in traced)
           for k in traced[0]["layers"]}
    out["trace.overhead_frac"] = (scaled((c["s"], c["ref_s"]) for c in traced)
                                  / scaled(plain) - 1.0)
    return out


def units(kind):
    """Metric name -> unit for the "end_to_end" or "per_layer" list of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def run_one(workload, seed, seconds, trace):
    with Reference() as ref:
        setup = [time_setup(workload, seed, ref) for _ in range(SETUP_SAMPLES)]
        import workloads

        inputs = workloads.prepare(workload, seed)
        calls, tracer = run_calls(inputs, seconds, trace, ref)
    values = summarize(calls, setup, trace)
    unit = units("per_layer" if trace else "end_to_end")
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in values.items()}
    failed = sum(c["failed"] is not None for c in calls)
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(calls),
              "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(bool(trace))}"
    prov = provenance(inputs)
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"result": result, "provenance": prov, "setup_and_ref_s": setup, "calls": calls},
        indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{workload}-seed{seed}-spans.jsonl")

    print(f"{workload} seed={seed} trace={int(bool(trace))}: "
          f"{len(calls)} calls, {failed} failed; unscaled medians: call "
          f"{statistics.median(c['s'] for c in calls):.4g} s, reference "
          f"{statistics.median(c['ref_s'] for c in calls):.4g} s (REF_S {REF_S} s)")
    for c in calls:
        if c["failed"] is not None:
            print(f"  failed call: {c['failed']}")
    if tracer is not None and tracer.missing:
        print(f"  not traced (not found): {', '.join(tracer.missing)}")
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']!s:>22} {m['unit']}")
    print("provenance " + json.dumps({k: v for k, v in prov.items() if k != "args"}))
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Run every workload in its own process, one after another; print one table."""
    agg = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        agg["correct"] = agg["correct"] and res["correct"]
        agg["attempted"] += res["attempted"]
        agg["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            agg["metrics"][f"{w}.{k}"] = m
    print(json.dumps(agg))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, print 'ready' and exit")
    args = ap.parse_args(argv)

    if not (SRC / "microloc" / "__init__.py").is_file():
        print(f"error: no microloc package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        import workloads

        workloads.prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
