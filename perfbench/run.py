#!/usr/bin/env python3
"""datforge benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  One process drives one unit of work at a time (a closed
loop) until ``--seconds`` have passed, starting a new unit only if it is
expected to end within half a unit of the limit.  Unit k of a run uses seed
``seed + 1000*k``, so no two units share inputs.

``--trace 0`` reports the end-to-end metrics BENCHMARK.json lists; ``--trace 1``
wraps the library's public functions (see ``tracer.py``) and reports the
per-layer metrics instead, per unit.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything, including the machine
block and, when traced, every span, is also written to
``.perfbench/results/<workload>-seed<seed>-trace<0|1>.json`` in the checkout.
``--workload all`` runs every workload of BENCHMARK.json untraced and traced,
in child processes, and prints a table with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9

# a fresh interpreter's way to its first workload call: imports plus manifest parsing
_SETUP = ("import sys; sys.path[:0] = [{src!r}, {here!r}]\n"
          "import workloads\n"
          "workloads.bench_manifest({seed})\n"
          "print('ready', flush=True)")

# end-to-end numbers that are not BENCHMARK.json metrics, because some
# workloads cannot give them or they are 0 when all is well
EXTRA_UNITS = {"failed_share": "ratio", "mean_acc": "ratio", "dat_unseen_acc": "ratio",
               "probe_gap": "ratio"}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(seed: int, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from starting a fresh interpreter until it could make its first workload call."""
    code = _SETUP.format(src=str(SRC), here=str(HERE), seed=seed)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return times


def run_units(name: str, seed: int, seconds: float, tracer) -> list[dict]:
    import workloads
    from tracer import UNIT

    unit_fn, planned = workloads.WORKLOADS[name]
    tmp_root = OUT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    units = []
    start = time.perf_counter()
    while True:
        useed = workloads.unit_seed(seed, len(units))
        manifest = workloads.bench_manifest(useed)
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            if tracer is None:
                res = unit_fn(manifest, workdir)
            else:
                tracer.rec.worker_dir = workdir
                with tracer, tracer.rec.span(UNIT):
                    res = unit_fn(manifest, workdir)
        except Exception:  # a failed unit is reported, and the loop goes on
            res = workloads.UnitResult(attempted=planned(manifest))
            why = traceback.format_exc()
            for i in range(res.attempted):
                res.fail(f"sub-unit {i}", why)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        shutil.rmtree(workdir)
        units.append({"seed": useed, "wall_s": wall, "cpu_s": cpu, "attempted": res.attempted,
                      "failed": res.failed, "problems": res.problems, "values": res.values,
                      "digests": res.digests})
        print(f"unit {len(units) - 1} seed={useed} wall_s={wall:.3f} cpu_s={cpu:.3f} "
              f"failed={res.failed}/{res.attempted} "
              + " ".join(f"{k}={v:.4f}" for k, v in res.values.items())
              + "".join(f" {k}_sha256={v[:16]}" for k, v in res.digests.items()), flush=True)
        for sub, why in res.problems.items():
            print(f"  FAILED {sub}: {why[-1].strip().splitlines()[-1]}", flush=True)
        if time.perf_counter() - start + wall / 2 >= seconds:
            return units


def run_one(args, spec: dict) -> int:
    import machine
    from tracer import Tracer, layer_metrics, spans_json

    machine_before = machine.describe()
    load_before = machine.loadavg()
    capacity = machine.parallel_capacity()  # before any BLAS call leaves threads spinning
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}", flush=True)
    print("machine " + json.dumps(machine_before, sort_keys=True), flush=True)

    setup = measure_setup(args.seed)
    tracer = Tracer() if args.trace else None
    units = run_units(args.workload, args.seed, args.seconds, tracer)

    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    computed = {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(u["cpu_s"] for u in units),
        "peak_rss_mb": _peak_rss_mb(),
        "failed_share": failed / attempted,
    }
    for key in ("mean_acc", "dat_unseen_acc", "probe_gap"):
        vals = [u["values"][key] for u in units if key in u["values"]]
        if vals:
            computed[key] = statistics.median(vals)
    if tracer is not None:
        from workloads import SWEEP_JOBS

        layers = layer_metrics(tracer.rec, len(units),
                               jobs=SWEEP_JOBS if args.workload == "sweep" else 1)
        layers["trace.wall_s"] = computed["wall_s"]
        # a listed layer this workload never calls reads 0; a missing one reads null
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, why in tracer.rec.missing.items():
            print(f"missing {name}: {why}", flush=True)
    else:
        layers = {}
        metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    units_of = {m["name"]: m["unit"] for m in spec["end_to_end"]} | EXTRA_UNITS
    for key, value in computed.items():
        print(f"{key} {value:.6g} {units_of[key]}", flush=True)
    for key in sorted(layers):
        print(f"layer {key} {layers[key]}", flush=True)
    load_after = machine.loadavg()
    print(f"units {len(units)} capacity_cores {capacity['cores']:.3f} "
          f"loadavg {load_before} -> {load_after}", flush=True)

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_before, "parallel_capacity": capacity,
        "loadavg_before": load_before, "loadavg_after": load_after,
        "setup_s": setup, "units": units, "end_to_end": computed, "per_layer": layers,
        "missing": tracer.rec.missing if tracer else {},
    }
    if tracer is not None:
        details["spans"] = spans_json(tracer.rec)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details))
    print(f"details {path.relative_to(ROOT)}", flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


def run_all(args, spec: dict) -> int:
    """Every BENCHMARK.json workload, untraced then traced, each in its own process."""
    rows, status = [], 0
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            status = status or proc.returncode
            sys.stdout.write(proc.stdout)
            details = json.loads((OUT / "results" / f"{w}-seed{args.seed}-trace{trace}.json")
                                 .read_text())
            rows.append((w, trace, details["end_to_end"]))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | EXTRA_UNITS
    print("\nworkload     metric            value  unit")
    summary = {}
    for w, trace, e2e in rows:
        if trace == 0:
            summary[w] = e2e
            for key, value in e2e.items():
                print(f"{w:<12} {key:<16} {value:>9.4f}  {units[key]}")
        else:
            overhead = e2e["wall_s"] - summary[w]["wall_s"]
            summary[w]["trace_overhead_s"] = overhead
            print(f"{w:<12} {'trace_overhead_s':<16} {overhead:>9.4f}  s  (traced minus untraced wall_s)")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ["experiment", "corpus", "sweep"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "datforge" / "__init__.py").is_file():
        print(f"perfbench: no datforge sources at {SRC}; run inside a datforge checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
