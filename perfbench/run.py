"""pamper benchmark: four closed-loop workloads, untraced or traced.

    python3 perfbench/run.py --workload train-scale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced
    python3 perfbench/smoke.py                       # seconds-long self-test

Workloads (see workloads.py and BENCHMARK.json for why each exists):

* ``train-scale``: ``pamper train`` on the acceptance scale point
  (100k points x 108 features x 169 methods, Zipf 1.4322, noise 0.3) in a
  fresh interpreter per op.
* ``evaluate-planted``: ``pamper evaluate`` (default flags) on 50k points of
  24 planted rules over 40 methods, fresh interpreter per op.
* ``query-cli``: ``pamper.cli.main(argv)`` in this process on the
  train-scale model. Two phases interleave over the run: cycles of five
  single-vector requests (which, which, which, why, rank), and ``which`` on
  a file of 20k vectors.
* ``cli-cold``: ``pamper which <model> <vector>`` in a fresh interpreter.

End-to-end metrics (``--trace 0``), the same names on every workload:

* ``setup_s``: median time to build the workload's inputs, several times
  per run where set-up is cheap (query-cli trains once).
* ``op_p50_ms`` / ``op_p95_ms``: latency of one request: a train op, an
  evaluate op, a single query request, a cold which.
* ``items_per_s``: work per second: points trained or evaluated, batch
  vectors answered (query-cli), cold requests.
* ``peak_rss_mb``: peak resident set (VmHWM) of the op's child, as the
  child reports it at exit (see child.py); for query-cli, of one
  ``pamper which <model> <vectors>`` child per run that answers the batch
  again (its output must match the in-process batch).

The issue-level names (train_s, evaluate_s, query_p50_ms, query_p95_ms,
batch_which_vps, cold_which_p50_ms) are printed as aliases of these.

``--trace 1`` runs every op twice, untraced then traced; the per-layer
metrics come from spans recorded around each layer's public functions (see
spans.py) and are means per op, summed over a workload's phases (for
query-cli: per five-request cycle plus per batch op). The spans are written
to ``.perfbench_work/spans-<workload>-<seed>.jsonl``. Count metrics must
repeat exactly across the run's ops and, for the pinned seed, match
``pinned.json``. Each run prints its digests (and, traced, its exact
counts) on a ``pins:`` line, to be copied into ``pinned.json`` by hand when
a reviewed change alters the outputs. ``trees.nodes`` counts internal nodes
plus leaves of the trained models; ``cli.main.self_s`` is the self time of
every ``cli.*`` span (argument parsing, file reads, printing).

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 when every op was correct, 1 when some failed,
and 2 when the benchmark cannot run here (no ``src/pamper`` beside it, or
more training threads than usable cores).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

from spans import self_times
from workloads import ROOT, SRC, WORKLOADS, SetupError

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
STATISTIC = {
    "setup_s": "median",
    "op_p50_ms": "median",
    "op_p95_ms": "p95",
    "items_per_s": "total/time",
    "peak_rss_mb": "median",
}
ALIASES = {
    "train-scale": {"op_p50_ms": ("train_s", 1e-3, "s"), "peak_rss_mb": ("peak_rss_mb", 1, "MB")},
    "evaluate-planted": {"op_p50_ms": ("evaluate_s", 1e-3, "s"), "peak_rss_mb": ("peak_rss_mb", 1, "MB")},
    "query-cli": {
        "op_p50_ms": ("query_p50_ms", 1, "ms"),
        "op_p95_ms": ("query_p95_ms", 1, "ms"),
        "items_per_s": ("batch_which_vps", 1, "1/s"),
    },
    "cli-cold": {"op_p50_ms": ("cold_which_p50_ms", 1, "ms")},
}
# Per-layer metrics: name -> unit. Values are filled in by per_layer().
LAYER_UNITS = {
    "corpus.parse_database.s": "s",
    "corpus.parse_database.rows_per_s": "1/s",
    "corpus.parse_vector.calls": "count",
    "corpus.parse_vector.s": "s",
    "preprocess.single_target_split.s": "s",
    "kernels.node_counts.calls": "count",
    "kernels.node_counts.rows": "count",
    "kernels.node_counts.s": "s",
    "kernels.partition.calls": "count",
    "kernels.partition.s": "s",
    "trees._choose_split.calls": "count",
    "trees._choose_split.s": "s",
    "trees.split_accept_ratio": "ratio",
    "trees.train.s": "s",
    "trees.build_tree.s": "s",
    "trees.build_tree.parallel_eff": "ratio",
    "trees.nodes": "count",
    "trees.leaves": "count",
    "trees.model_to_text.s": "s",
    "trees.model_from_text.s": "s",
    "recommend.ModelArena.init.s": "s",
    "recommend.ModelArena.expectations.calls": "count",
    "recommend.ModelArena.expectations.rows": "count",
    "recommend.ModelArena.expectations.s": "s",
    "recommend.ModelArena.expectations.single.s": "s",
    "recommend.ModelArena.expectations.batch.s": "s",
    "recommend.ModelArena.batch_which.self_s": "s",
    "recommend.ModelArena.batch_rank.self_s": "s",
    "recommend.rank_method.s": "s",
    "recommend.why_method.s": "s",
    "recommend.render.s": "s",
    "evaluate.split_corpus.s": "s",
    "evaluate.run_evaluation.self_s": "s",
    "evaluate.render.s": "s",
    "cli.main.self_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "op.unattributed_s": "s",
    "trace.op_p50_overhead": "ratio",
}
EXACT_COUNTS = (
    "kernels.node_counts.calls",
    "trees.nodes",
    "trees.leaves",
    "recommend.ModelArena.expectations.rows",
)


def percentile95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


# -- environment -----------------------------------------------------------


def environment() -> dict:
    """Record the interpreter, numpy, kernel backend and cores; refuse oversubscription."""
    import numpy

    from pamper import _kernels, trees
    from pamper.errors import PamperError

    usable = len(os.sched_getaffinity(0))
    try:
        threads = trees.resolve_threads()
    except PamperError as exc:
        sys.exit(f"perfbench: {exc}")
    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": _kernels.backend_name,
        "cpu_count": os.cpu_count(),
        "affinity": usable,
        "threads": threads,
        "PAMPER_THREADS": os.environ.get("PAMPER_THREADS", "unset"),
        "PAMPER_KERNEL": os.environ.get("PAMPER_KERNEL", "unset"),
    }
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if threads > usable:
        print(
            f"perfbench: training would use {threads} threads on {usable} usable cores; "
            "set PAMPER_THREADS to at most the usable cores",
            file=sys.stderr,
        )
        sys.exit(2)
    return env


# -- measurement -----------------------------------------------------------


def closed_loop(workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run ops one at a time until ``seconds`` have passed and every phase has its minimum.

    Phases interleave over the whole run: the next op comes from the phase
    furthest below its share of the time spent so far, so that every phase
    samples the machine over the same window. A traced run runs each op
    index twice, untraced and then traced, so the tracing overhead is
    measured on the same inputs; two traced ops per phase suffice for the
    exact-count check.
    """
    phases = workload.phases
    minimum = {p: min(workload.min_ops[p], 2) if trace else workload.min_ops[p] for p in phases}
    plain = {p: [] for p in phases}
    traced = {p: [] for p in phases}
    spent = dict.fromkeys(phases, 0)
    start = perf_counter_ns()
    while True:
        short = [p for p in phases if len(plain[p]) < minimum[p]]
        if perf_counter_ns() - start < seconds * 1e9:
            short = phases
        if not short:
            return plain, traced
        phase = min(short, key=lambda p: spent[p] / workload.share[p])
        began = perf_counter_ns()
        index = len(plain[phase])
        plain[phase].append(workload.op(phase, index, False))
        if trace:
            traced[phase].append(workload.op(phase, index, True))
        spent[phase] += perf_counter_ns() - began


def end_to_end(workload, ops: dict, setup_times: list[float]) -> dict:
    """Metric name -> (value, sample count); peak_rss_mb only if some op ran in a child."""
    latency_phase = "single" if "single" in ops else "op"
    work_phase = "batch" if "batch" in ops else "op"
    latencies = [ns / 1e6 for op in ops[latency_phase] for ns in op.latencies_ns]
    work = ops[work_phase]
    wall_s = sum(op.wall_ns for op in work) / 1e9
    rss = [op.rss_mb for phase in ops.values() for op in phase if op.rss_mb is not None]
    metrics = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "op_p50_ms": (statistics.median(latencies), len(latencies)),
        "op_p95_ms": (percentile95(latencies), len(latencies)),
        "items_per_s": (workload.items(work_phase) * len(work) / wall_s, len(work)),
    }
    if rss:
        metrics["peak_rss_mb"] = (statistics.median(rss), len(rss))
    return metrics


def op_totals(op) -> dict[str, float]:
    """Sums over one op's spans: calls, ns, self ns and attributes per span name."""
    own, covered = self_times(op.spans)
    totals: dict[str, float] = {"op.unattributed_ns": op.wall_ns - covered}
    for sid, _, name, _, start, end, attrs in op.spans:
        for key, value in (("calls", 1), ("ns", end - start), ("self_ns", own[sid])):
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        if not attrs:
            continue
        for key, value in attrs.items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        if name == "recommend.ModelArena.expectations":
            key = f"{name}.{'single' if attrs['rows'] == 1 else 'batch'}_ns"
            totals[key] = totals.get(key, 0) + (end - start)
        if name == "trees.train":
            key = "trees.train.capacity_ns"
            totals[key] = totals.get(key, 0) + (end - start) * attrs["workers"]
    return totals


def per_layer(traced: dict, cold_start: tuple[float, float], overhead: float) -> dict:
    """Per-layer metrics: means per op, summed over phases.

    Every op of a phase must repeat the first op's call and row counts.
    """
    total: dict[str, float] = {}
    for ops in traced.values():
        per_op = [op_totals(op) for op in ops]
        keys = set().union(*per_op) if per_op else set()
        for key in keys:
            total[key] = total.get(key, 0) + sum(t.get(key, 0) for t in per_op) / len(per_op)
        counted = [{k: v for k, v in t.items() if not k.endswith("ns")} for t in per_op]
        for op, vector in zip(ops, counted):
            if vector != counted[0]:
                op.fail("span counts differ from the first traced op of this phase")

    def get(key):
        return total.get(key, 0)

    def sec(name, kind="ns"):
        return get(f"{name}.{kind}") / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    cli_self = sum(v for k, v in total.items() if k.startswith("cli.") and k.endswith(".self_ns"))
    arena = "recommend.ModelArena"
    values = {
        "corpus.parse_database.s": sec("corpus.parse_database"),
        "corpus.parse_database.rows_per_s": ratio(get("corpus.parse_database.rows"), sec("corpus.parse_database")),
        "corpus.parse_vector.calls": get("corpus.parse_vector.calls"),
        "corpus.parse_vector.s": sec("corpus.parse_vector"),
        "preprocess.single_target_split.s": sec("preprocess.single_target_split"),
        "kernels.node_counts.calls": get("_kernels.node_counts.calls"),
        "kernels.node_counts.rows": get("_kernels.node_counts.rows"),
        "kernels.node_counts.s": sec("_kernels.node_counts"),
        "kernels.partition.calls": get("_kernels.partition.calls"),
        "kernels.partition.s": sec("_kernels.partition"),
        "trees._choose_split.calls": get("trees._choose_split.calls"),
        "trees._choose_split.s": sec("trees._choose_split"),
        "trees.split_accept_ratio": ratio(get("_kernels.partition.calls"), get("_kernels.node_counts.calls")),
        "trees.train.s": sec("trees.train"),
        "trees.build_tree.s": sec("trees.build_tree"),
        "trees.build_tree.parallel_eff": ratio(get("trees.build_tree.ns"), get("trees.train.capacity_ns")),
        "trees.nodes": get("trees.train.nodes"),
        "trees.leaves": get("trees.train.leaves"),
        "trees.model_to_text.s": sec("trees.model_to_text"),
        "trees.model_from_text.s": sec("trees.model_from_text"),
        f"{arena}.init.s": sec(f"{arena}.init"),
        f"{arena}.expectations.calls": get(f"{arena}.expectations.calls"),
        f"{arena}.expectations.rows": get(f"{arena}.expectations.rows"),
        f"{arena}.expectations.s": sec(f"{arena}.expectations"),
        f"{arena}.expectations.single.s": sec(f"{arena}.expectations", "single_ns"),
        f"{arena}.expectations.batch.s": sec(f"{arena}.expectations", "batch_ns"),
        f"{arena}.batch_which.self_s": sec(f"{arena}.batch_which", "self_ns"),
        f"{arena}.batch_rank.self_s": sec(f"{arena}.batch_rank", "self_ns"),
        "recommend.rank_method.s": sec("recommend.rank_method"),
        "recommend.why_method.s": sec("recommend.why_method"),
        "recommend.render.s": sum(
            sec(f"recommend.render_{n}") for n in ("recommendation", "rank", "explanation")
        ),
        "evaluate.split_corpus.s": sec("evaluate.split_corpus"),
        "evaluate.run_evaluation.self_s": sec("evaluate.run_evaluation", "self_ns"),
        "evaluate.render.s": sum(
            sec(f"evaluate.render_{n}") for n in ("table", "csv", "fig2_csv", "fig3_csv")
        ),
        "cli.main.self_s": cli_self / 1e9,
        "cli.interpreter_s": cold_start[0],
        "cli.import_s": cold_start[1],
        "op.unattributed_s": get("op.unattributed_ns") / 1e9,
        "trace.op_p50_overhead": overhead,
    }
    return values


def cold_start(workload, reps: int = 5) -> tuple[float, float]:
    """Median bare interpreter start, and median ``import pamper.cli`` beyond it."""
    bare, imported = [], []
    for _ in range(reps):
        bare.append(workload.spawn([sys.executable, "-c", "pass"], "interp")[1] / 1e9)
        imported.append(workload.spawn([sys.executable, "-c", "import pamper.cli"], "import")[1] / 1e9)
    return statistics.median(bare), statistics.median(imported) - statistics.median(bare)


def write_spans(name: str, seed: int, traced: dict) -> Path:
    path = WORK / f"spans-{name}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for phase, ops in traced.items():
            for index, op in enumerate(ops):
                for span in op.spans:
                    handle.write(json.dumps({"op": f"{phase}-{index}", "span": span}) + "\n")
    return path


def run_workload(cls, args, pinned: dict) -> dict:
    work = WORK / f"{cls.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = cls(work, args.seed, args.scale)
        setup_times = []
        for _ in range(1 if args.trace else workload.setup_reps):
            start = perf_counter_ns()
            workload.setup()
            setup_times.append((perf_counter_ns() - start) / 1e9)
        workload.prepare()
        plain, traced = closed_loop(workload, args.seconds, bool(args.trace))
        plain.update(workload.probes())
        pins = pinned.get(args.scale, {}).get(cls.name, {}) if args.seed == pinned.get("seed") else {}
        digests = workload.finish(plain, pins.get("digests"))
        result = {"name": cls.name, "digests": digests, "plain": plain, "traced": traced}
        result["e2e"] = end_to_end(workload, plain, setup_times)
        if args.trace:
            workload.finish(traced, pins.get("digests"))
            traced_e2e = end_to_end(workload, traced, setup_times)
            result["overhead"] = {
                k: traced_e2e[k][0] / result["e2e"][k][0] - 1 for k in traced_e2e if k != "setup_s"
            }
            layer = per_layer(traced, cold_start(workload), result["overhead"]["op_p50_ms"])
            result["layer"] = layer
            result["counts"] = {k: layer[k] for k in EXACT_COUNTS}
            expected = pins.get("counts")
            if expected and expected != result["counts"]:
                for ops in traced.values():
                    for op in ops:
                        op.fail(f"exact counts differ from pinned.json: {result['counts']}")
            result["spans_path"] = write_spans(cls.name, args.seed, traced)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- reporting -------------------------------------------------------------


def report(result: dict, args, baseline: dict, env: dict) -> None:
    name = result["name"]
    ops = [op for phase in (result["plain"], result["traced"]) for ops in phase.values() for op in ops]
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    print(f"== {name}  seed={args.seed}  scale={args.scale}  trace={'on' if args.trace else 'off'}")
    base = baseline.get("workloads", {}).get(name, {}) if args.scale == "full" else {}
    if base and baseline.get("backend") != env["backend"]:
        print(
            f"  WARNING: kernel backend {env['backend']!r} differs from the baseline's "
            f"{baseline.get('backend')!r}; the comparison below is not like for like"
        )
    for metric, (value, samples) in result["e2e"].items():
        line = f"  {metric:<12} {value:>14.4f} {E2E_UNITS[metric]:<4} {STATISTIC[metric]} of n={samples}"
        if metric in base:
            line += f"  (baseline {base[metric]:.4f}, {value / base[metric] - 1:+.1%})"
        alias = ALIASES.get(name, {}).get(metric)
        if alias:
            line += f"  = {alias[0]} {value * alias[1]:.4f} {alias[2]}"
        print(line)
    if args.trace:
        print("  tracing overhead: " + "  ".join(f"{k} {v:+.1%}" for k, v in result["overhead"].items()))
        for phase, phase_ops in result["traced"].items():
            remainder = [(op.wall_ns - self_times(op.spans)[1]) / 1e6 for op in phase_ops]
            label = "" if phase == "op" else f"{phase} "
            print(f"  unattributed per {label}op (ms): " + " ".join(f"{r:.1f}" for r in remainder))
        for metric, value in result["layer"].items():
            print(f"  {metric:<45} {value:>16.6f} {LAYER_UNITS[metric]}")
        print(f"  spans written to {result['spans_path'].relative_to(ROOT)}")
    pins = {"digests": result["digests"], **({"counts": result["counts"]} if args.trace else {})}
    print(f"  pins: {json.dumps(pins, sort_keys=True)}")
    print(f"  ops attempted {attempted}  failed {failed}")
    for op in ops:
        if op.failed:
            print(f"  FAILED: {op.why_failed}")
            break


def summary(results: list[dict], args, prefix: bool) -> dict:
    ops = [op for r in results for phase in (r["plain"], r["traced"]) for ops in phase.values() for op in ops]
    metrics = {}
    for r in results:
        tag = f"{r['name']}." if prefix else ""
        if args.trace:
            for metric, value in r["layer"].items():
                metrics[tag + metric] = {"value": value, "unit": LAYER_UNITS[metric]}
        else:
            for metric, (value, _) in r["e2e"].items():
                metrics[tag + metric] = {"value": value, "unit": E2E_UNITS[metric]}
    failed = sum(op.failed for op in ops)
    return {
        "correct": failed == 0,
        "attempted": sum(op.attempted for op in ops),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--pinned", type=Path, default=HERE / "pinned.json")
    args = parser.parse_args()
    # On SIGTERM, unwind like an exception: the running child is killed and
    # waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "pamper" / "__init__.py").is_file():
        print(f"perfbench: no pamper sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pamper

    if Path(pamper.__file__).resolve().parent != SRC / "pamper":
        print(f"perfbench: imported pamper from {pamper.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    pinned = json.loads(args.pinned.read_text(encoding="utf-8")) if args.pinned.exists() else {}
    baseline_path = HERE / "baseline.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8")) if baseline_path.exists() else {}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], args, pinned)
        except SetupError as exc:
            print(f"perfbench: set-up of {name} failed: {exc}", file=sys.stderr)
            return 1
        report(result, args, baseline, env)
        results.append(result)
    out = summary(results, args, prefix=len(results) > 1)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
