"""cellpilot benchmark: closed-loop workloads through the public API.

One workload per process:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 16 --trace 0

Every workload, one process each:

    python3 perfbench/run.py --all [--trace 1]

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced units on the same seeds and reports the
per-layer metrics, the tracing overhead, and checks that both modes wrote
byte-identical outputs. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. A run whose output checks
fail exits with code 1; a checkout without the package exits with code 2.
The run record (machine, BLAS, versions, per-unit timings and digests,
span table) goes to perfbench/results/, outside the run outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import speed
from tracer import ROOT_SPAN, SPANS, Tracer, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
WORKLOADS = ("desk", "full_rate", "churn", "search")

DEFAULT_SEED = 1
# Not used while writing a change; re-check a claimed gain on it.
HELDOUT_SEED = 9173
DEFAULT_SECONDS = 16
# Prints the seconds `import cellpilot` takes in a fresh interpreter.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import cellpilot; "
                "print(time.perf_counter() - t)")

# Throughputs that apply to some workloads only, the error rate, and the
# raw (unscaled) timings with the machine's speed factor; printed and
# recorded beside the metrics, not part of the result.
EXTRA_UNITS = {
    "steps_per_s": "1/s", "rate_evals_per_s": "1/s",
    "searches_per_s": "1/s", "error_rate": "ratio",
    "raw_setup_s": "s", "raw_wall_s": "s", "raw_cpu_s": "s",
    "speed_factor": "ratio",
}


def _import_package():
    """Import cellpilot from this checkout; None when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import cellpilot
    except ImportError as exc:
        print(f"perfbench: cannot import cellpilot from {SRC}: {exc}",
              file=sys.stderr)
        return None
    if Path(cellpilot.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: cellpilot resolved to {cellpilot.__file__}, "
              f"not under {SRC}", file=sys.stderr)
        return None
    return cellpilot


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.split()[-1].rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def code_hash() -> str:
    """sha256 of the package and benchmark sources, which fix every output."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cellpilot").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "code_sha256": code_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
            # unset means the library default (not pinned)
            "env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }


class DigestStore:
    """Unit digests of earlier runs of the same code, to catch nondeterminism."""

    def __init__(self, path: Path, key: str):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}
        self.known = self.data.setdefault(key, {})

    def check(self, workload: str, unit_seed: int, digest: str):
        """Problem text when an earlier run of this unit wrote other bytes."""
        seen = self.known.setdefault(workload, {})
        old = seen.setdefault(str(unit_seed), digest)
        if old != digest:
            return f"digest {digest[:12]} differs from an earlier run's {old[:12]}"
        return None

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def _fail(unit, problem):
    unit["failed"] = unit["attempted"]
    unit["problems"].append(problem)


def _run_unit(cp, workload, unit_seed, tracer):
    """Run one unit, timed, then check it untimed. Returns a unit record.

    With a tracer the package is patched only around the timed part, so
    untraced units run the original code and the checks are not traced.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    unit = {"seed": unit_seed, "traced": tracer is not None,
            "attempted": workload.operations, "failed": 0,
            "digest": None, "ops": {}, "problems": []}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out_dir = Path(tmp)
        gc.collect()
        if tracer is not None:
            tracer.patch(cp)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = workload.run(unit_seed, out_dir)
        except Exception as exc:  # a failed unit, counted below
            result = exc
        finally:
            unit["wall_s"] = time.perf_counter() - t0
            unit["cpu_s"] = time.process_time() - c0
            if tracer is not None:
                tracer.unpatch()
        if isinstance(result, Exception):
            _fail(unit, f"{type(result).__name__}: {result}")
            return unit
        try:
            check = workload.check(unit_seed, out_dir, result)
        except Exception as exc:  # unreadable or missing outputs
            _fail(unit, f"check raised {type(exc).__name__}: {exc}")
            return unit
    unit.update(failed=check.failed, digest=check.digest, ops=check.ops,
                problems=check.problems)
    return unit


def _throughputs(units, speed_factor) -> dict:
    """Operations of each kind per unit second at reference speed.

    Median over units of each unit's rate, like the unit times; a unit
    that failed before its check counts as rate 0.
    """
    kinds = sorted({k for u in units for k in u["ops"]})
    return {f"{k}_per_s": speed_factor * statistics.median(
        u["ops"].get(k, 0) / u["wall_s"] for u in units) for k in kinds}


def _span_table(tracer) -> list:
    """One row per span: totals, median and tail durations in microseconds."""
    table = []
    for name in SPANS:
        st = tracer.stats.get(name)
        row = {"span": name, "calls": 0, "self_s": 0.0, "us_p50": 0.0,
               "us_tail": 0.0, "tail_percentile": None, "samples": 0,
               "absent": name in tracer.absent}
        if st is not None:
            pct = tail_percentile(len(st.durations))
            p50, tail = np.percentile(st.durations, [50, pct]) * 1e6
            row.update(calls=st.calls, self_s=st.self_s, us_p50=float(p50),
                       us_tail=float(tail), tail_percentile=pct,
                       samples=len(st.durations))
        table.append(row)
    return table


def _layer_metrics(tracer, table, traced_units, untraced_units) -> dict:
    """Per-layer metrics; counts and self time are per traced unit."""
    n = len(traced_units)
    metrics = {}
    for row in table:
        name = row["span"]
        metrics[f"{name}.calls"] = (row["calls"] / n, "count")
        metrics[f"{name}.self_s"] = (row["self_s"] / n, "s")
        metrics[f"{name}.us_p50"] = (row["us_p50"], "us")
        metrics[f"{name}.us_tail"] = (row["us_tail"], "us")
    rms = tracer.stats.get("qnn.rmsprop_step")
    metrics["qnn.rmsprop_step.applied_ratio"] = (
        tracer.counters["qnn.rmsprop_step.applied"] / rms.calls if rms else 0.0,
        "ratio")
    metrics["rate.min_rate.realizations"] = (
        tracer.counters["rate.min_rate.realizations"] / n, "count")
    metrics["assignment.exhaustive_search.candidates"] = (
        tracer.counters["assignment.exhaustive_search.candidates"] / n, "count")
    traced_wall = sum(u["wall_s"] for u in traced_units)
    attributed = sum(row["self_s"] for row in table if row["span"] != ROOT_SPAN)
    metrics["tracing.root_self_ratio"] = (
        (traced_wall - attributed) / traced_wall, "ratio")
    metrics["tracing.overhead_ratio"] = (
        statistics.median(u["wall_s"] for u in traced_units)
        / statistics.median(u["wall_s"] for u in untraced_units), "ratio")
    return metrics


def _print_spans(title, table, wall):
    print(f"{title} (share of {wall:.3f} s):")
    for row in sorted(table, key=lambda r: -r["self_s"]):
        if row["calls"]:
            print(f"  {row['span']:<36} {100 * row['self_s'] / wall:6.2f}% self"
                  f"  calls={row['calls']}  p50={row['us_p50']:.1f}us"
                  f"  p{row['tail_percentile']:g}={row['us_tail']:.1f}us")


def run_workload(args) -> int:
    cp = _import_package()
    if cp is None:
        return 2
    from workloads import derive_seed, workloads

    workload = workloads()[args.workload]
    # Set-up is import plus the workload's own set-up, each repeated and
    # taken as a median; imports are timed in fresh interpreters because
    # this one has already imported the package. Every repetition uses its
    # own seed, so a cache keyed on the world cannot shorten the later ones.
    # A traced run traces the set-up too, for the run record.
    # A workload with probe_s > 0 probes the machine's speed before and
    # after every set-up repetition and unit (speed.py).
    setup_tracer = Tracer() if args.trace else None
    imports, setups = [], []
    probes = []

    def probe_speed():
        if workload.probe_s:
            probes.append(speed.probe(workload.probe_s))

    probe_speed()
    for r in range(workload.setup_repeats):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True)
        imports.append(float(probe.stdout))
        if setup_tracer is not None:
            setup_tracer.patch(cp)
        t0 = time.perf_counter()
        try:
            workload.setup(derive_seed(args.seed, 1, r))
        finally:
            setups.append(time.perf_counter() - t0)
            if setup_tracer is not None:
                setup_tracer.unpatch()
        probe_speed()
    raw_setup_s = statistics.median(imports) + statistics.median(setups)

    store = DigestStore(RESULTS / "digests.json", code_hash())
    tracer = Tracer() if args.trace else None
    # a traced round runs the unit twice, once in each mode, alternating
    # which goes first so that drift hits both alike
    min_rounds = -(-workload.min_units // 2) if tracer else workload.min_units
    units = []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or i < min_rounds:
        seed = derive_seed(args.seed, 0, i)
        modes = (None,) if tracer is None else (
            (None, tracer) if i % 2 == 0 else (tracer, None))
        new = []
        for t in modes:
            new.append(_run_unit(cp, workload, seed, t))
            probe_speed()
        if len(new) == 2 and new[0]["digest"] != new[1]["digest"]:
            _fail(new[1], "traced and untraced outputs differ")
        for u in new:
            if u["digest"] is not None:
                problem = store.check(args.workload, seed, u["digest"])
                if problem:
                    _fail(u, problem)
        units += new
        i += 1
    store.save()
    speed_factor = speed.run_factor(probes)

    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    extras = _throughputs(plain, speed_factor)
    extras["error_rate"] = failed / attempted
    raw_wall_s = statistics.median(u["wall_s"] for u in plain)
    raw_cpu_s = statistics.median(u["cpu_s"] for u in plain)
    extras.update(raw_setup_s=raw_setup_s, raw_wall_s=raw_wall_s,
                  raw_cpu_s=raw_cpu_s, speed_factor=speed_factor)
    if tracer is None:
        # medians over the run, at reference speed where the workload probes
        metrics = {
            "setup_s": (raw_setup_s / speed_factor, "s"),
            "wall_s": (raw_wall_s / speed_factor, "s"),
            "cpu_s": (raw_cpu_s / speed_factor, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ops_per_s": (extras.get(f"{workload.op}_per_s", 0.0), "1/s"),
        }
        table = setup_table = None
    else:
        table = _span_table(tracer)
        setup_table = _span_table(setup_tracer)
        metrics = _layer_metrics(tracer, table, traced, plain)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, value in extras.items():
        print(f"{args.workload} {name} = {value:.6g} {EXTRA_UNITS[name]}")
    if table:
        _print_spans("traced units", table, sum(u["wall_s"] for u in traced))
        _print_spans("set-up", setup_table, sum(setups))
    for u in units:
        for problem in u["problems"]:
            print(f"{args.workload} unit seed {u['seed']}: {problem}",
                  file=sys.stderr)

    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = run_record(args)
    record.update({
        "setup_s_repeats": setups, "import_s_repeats": imports,
        "speed_probes": probes,
        "units": units,
        "run_digest": hashlib.sha256(
            "".join(u["digest"] or "-" for u in plain).encode()).hexdigest(),
        "metrics": result,
        "extras": extras,
        "spans": table,
        "setup_spans": setup_table,
        "span_parents": ([[p, c, n] for (p, c), n in tracer.parents.items()]
                         if tracer else None),
    })
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; re-check a "
                        f"claimed gain on the held-out seed {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
