"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload closed-sweep --seed 11 --seconds 20 --trace 0

With ``--trace 0`` the run times cold serial passes of the workload's
cells until ``--seconds`` have elapsed and reports the end-to-end
metrics: trimmed means over the passes, scaled to the reference host's speed
(see ``perfbench/yardstick.py``).  With ``--trace 1`` it runs one
untraced pass, then one pass under the layer tracer, checks that both
produce identical outcomes, replays the result cache warm, and reports
the per-layer metrics.  Every cell of every pass is checked (see
``perfbench/checks.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` (in cells) and
``metrics``.  Details, host facts and the kept spans go to
``.perfbench_out/`` in the checkout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "repro")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import checks  # noqa: E402

#: Set-up is measured this many times per run: this process plus fresh
#: child processes (``setup_probe.py``); the median is reported.
SETUP_SAMPLES = 5


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_facts():
    from repro.sim.engine import resolve_kernel_lane

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "kernel_lane": resolve_kernel_lane(None),
    }


def probe_setup(workload, seed):
    """Set-up time of a fresh process, as ``setup_probe.py`` measures it."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    done = subprocess.run(
        [sys.executable, probe, workload, str(seed)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def trimmed_mean(values):
    """Mean of ``values`` without the lowest and the highest one.

    Each pass is a new draw of the workload, so passes differ in work
    as well as in host noise.  Dropping the two extremes keeps one
    stalled pass from moving the figure; averaging the rest uses every
    other pass, which the median does not.  With fewer than three
    values it is the plain mean.
    """
    values = sorted(values)
    if len(values) >= 3:
        values = values[1:-1]
    return statistics.fmean(values)


class PassRecord:
    """One pass over every cell: timings, commits and per-cell verdicts."""

    def __init__(self, seed, cell_ids):
        self.seed = seed
        self.cell_ids = cell_ids
        self.reference_checked = False
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.commits = 0
        self.digests = {}
        self.errors = {}
        self.runs = {}


def run_pass(cells, counter, run_one):
    """Run every cell once, serially; ``run_one(cell)`` returns a CellRun.

    Only the cells are timed: digests and invariants are checked after
    the timed loop.
    """
    record = PassRecord(cells[0].seed, [cell.cell_id for cell in cells])
    gc.collect()  # start every pass from the same heap, outside the timing
    wall = time.perf_counter()
    cpu = time.process_time()
    before = counter.commits
    for cell in cells:
        try:
            record.runs[cell.cell_id] = run_one(cell)
        except Exception:  # a cell that raises is a failed cell; keep going
            record.errors[cell.cell_id] = [traceback.format_exc(limit=8)]
    record.cpu_s = time.process_time() - cpu
    record.wall_s = time.perf_counter() - wall
    record.commits = counter.commits - before
    for cell in cells:
        run = record.runs.get(cell.cell_id)
        if run is None:
            continue
        record.digests[cell.cell_id] = checks.digest(run.outcome)
        errors = checks.invariant_errors(cell.kind, run.facts)
        if errors:
            record.errors[cell.cell_id] = errors
    return record


def compare(record, expected, label):
    """Fail every cell whose digest differs from ``expected``, every cell
    of ``expected`` the pass did not run, and every cell it ran that
    ``expected`` does not hold (see :func:`checks.digest_errors`)."""
    found = checks.digest_errors(record.cell_ids, record.digests, expected, label)
    for cell_id, errors in found.items():
        record.errors.setdefault(cell_id, []).extend(errors)


def cache_replay(specs_results):
    """Store every result in a fresh result cache, then replay it warm.

    Returns ``(store_s, load_s, ok)``; ``ok`` says the warm replay hit
    the cache for every spec and returned the stored results.
    """
    from repro.experiments.parallel import ParallelRunner, ResultCache

    cache_dir = os.path.join(OUT_DIR, f"cache-{os.getpid()}")
    shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        cache = ResultCache(cache_dir)
        keyed = [(spec.fingerprint(), spec, result) for spec, result in specs_results]
        start = time.perf_counter()
        for key, spec, result in keyed:
            cache.store(key, spec, result)
        store_s = time.perf_counter() - start
        runner = ParallelRunner(jobs=1, cache_dir=cache_dir)
        specs = [spec for _key, spec, _result in keyed]
        start = time.perf_counter()
        replayed = runner.run(specs)
        load_s = time.perf_counter() - start
        ok = runner.stats.executed == 0 and all(
            got.to_json_dict() == result.to_json_dict()
            for got, (_key, _spec, result) in zip(replayed, keyed)
        )
        return store_s, load_s, ok
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def main():
    args = parse_args()
    if not os.path.isdir(SOURCE):
        print(f"perfbench: no simulator sources at {SOURCE}", file=sys.stderr)
        return 2
    # the compiled kernel lane is not measured: building it writes into src/
    os.environ["REPRO_KERNEL"] = "py"

    from perfbench.workloads import (
        WORKLOADS, CommitCounter, pass_seed, run_cell, run_cell_and_collect, validate,
    )

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    build = WORKLOADS[args.workload]
    cells = build(pass_seed(args.seed, 0))
    build_start = time.perf_counter()
    validate(cells)
    build_s = time.perf_counter() - build_start
    setup_samples = [time.perf_counter() - _T0]
    setup_samples += [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]

    references = checks.load_references()
    counter = CommitCounter().install()

    def untraced(cell):
        return run_cell(cell, counter)

    passes = []
    details = {}
    if not args.trace:
        from perfbench.yardstick import REFERENCE_S, sample

        yardstick_s = [sample()]
        start = time.perf_counter()
        while True:
            if passes:
                cells = build(pass_seed(args.seed, len(passes)))
                validate(cells)
            passes.append(run_pass(cells, counter, untraced))
            # keep only the digests, so peak memory does not grow with the
            # number of passes a faster program fits into the run
            passes[-1].runs.clear()
            yardstick_s.append(sample())
            if time.perf_counter() - start >= args.seconds:
                break
        raw = {
            "setup_s": statistics.median(setup_samples),
            "pass_s": trimmed_mean([p.wall_s for p in passes]),
            "pass_cpu_s": trimmed_mean([p.cpu_s for p in passes]),
            "sim_tx_per_s": trimmed_mean([p.commits / p.wall_s for p in passes]),
        }
        # the host's speed relative to the reference host (1.0 = reference)
        speed = REFERENCE_S / trimmed_mean(yardstick_s)
        metrics = {
            "setup_s": (raw["setup_s"] * speed, "s"),
            "pass_s": (raw["pass_s"] * speed, "s"),
            "pass_cpu_s": (raw["pass_cpu_s"] * speed, "s"),
            "sim_tx_per_s": (raw["sim_tx_per_s"] / speed, "tx/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        details.update(raw=raw, yardstick_s=yardstick_s, host_speed=speed)
    else:
        from perfbench.layers import Totals, per_layer_metrics, probes, unit_of
        from perfbench.trace import Tracer

        plain = run_pass(cells, counter, untraced)
        tracer = Tracer(probes())
        totals = Totals()

        def traced(cell):
            run = tracer.run(cell.cell_id, lambda: run_cell_and_collect(cell, counter))
            totals.add_components(tracer.take_instances())
            totals.add_facts(run.facts)
            return run

        traced_pass = run_pass(cells, counter, traced)
        compare(traced_pass, plain.digests, "the untraced pass")
        if traced_pass.commits != plain.commits:
            traced_pass.errors.setdefault("(pass)", []).append(
                f"traced pass committed {traced_pass.commits}, "
                f"untraced {plain.commits}"
            )
        passes = [plain, traced_pass]
        cached = [
            (cell.spec, plain.runs[cell.cell_id].result)
            for cell in cells
            if cell.cell_id in plain.runs and plain.runs[cell.cell_id].result is not None
        ]
        store_s, load_s, cache_ok = cache_replay(cached) if cached else (0.0, 0.0, True)
        if not cache_ok:
            traced_pass.errors.setdefault("(cache)", []).append(
                "warm replay did not return the stored results"
            )
        layer_metrics = per_layer_metrics(tracer, totals, traced_pass.commits)
        layer_metrics.update({
            "core.scenario.build_s": build_s,
            "experiments.parallel.cache_store_s": store_s,
            "experiments.parallel.cache_load_s": load_s,
            "trace.overhead_s": traced_pass.wall_s - plain.wall_s,
            "trace.overhead_ratio": traced_pass.wall_s / plain.wall_s,
        })
        metrics = {name: (value, unit_of(name)) for name, value in layer_metrics.items()}
        details["layers"] = tracer.layer_table()
        details["counts"] = dict(tracer.counts)
        details["spans_total"] = tracer.spans_total
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_chrome_trace(os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json"
        ))
    counter.uninstall()

    for record in passes:
        expected = checks.reference_for(references, args.workload, record.seed)
        if expected is not None:
            record.reference_checked = True
            compare(record, expected, "the recorded reference")
    # a reference cell that did not run counts as attempted, and failed
    attempted = sum(len(set(record.cell_ids) | set(record.errors)) for record in passes)
    failed = sum(len(record.errors) for record in passes)

    host = host_facts()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(
        os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        "w", encoding="utf-8",
    ) as handle:
        json.dump({
            "host": host,
            "workload": args.workload,
            "seed": args.seed,
            "setup_samples_s": setup_samples,
            "passes": [
                {
                    "seed": p.seed, "cells": len(p.cell_ids), "wall_s": p.wall_s,
                    "cpu_s": p.cpu_s, "commits": p.commits,
                    "reference_checked": p.reference_checked,
                    "digests": p.digests, "errors": p.errors,
                }
                for p in passes
            ],
            "result": result,
            **details,
        }, handle, indent=1, sort_keys=True)
    for record in passes:
        for cell_id, errors in record.errors.items():
            for error in errors:
                print(f"FAILED {cell_id} (seed {record.seed}): {error}", file=sys.stderr)
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
