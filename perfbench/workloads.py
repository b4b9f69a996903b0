"""The benchmark's workloads: inputs, set-up, one operation, and checks.

Every input is generated from the run's seed: planted-model configs are
written by this file and the corpora come from ``pamper gen`` (that is,
``pamper.synth``). The program sees only those files and its argv.
Each workload runs closed loop, one operation in flight at a time.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Sizes per scale. "full" is the benchmark; "tiny" exists for the smoke test.
SIZES = {
    "full": {
        "scale_points": 100_000,
        "planted_points": 50_000,
        "cold_points": 20_000,
        "batch_vectors": 20_000,
        "cold_vectors": 500,
    },
    "tiny": {
        "scale_points": 3_000,
        "planted_points": 3_000,
        "cold_points": 2_000,
        "batch_vectors": 300,
        "cold_vectors": 20,
    },
}
FEATURES = 108
CYCLE = ("which", "which", "which", "why", "rank")


def derive(seed: int, tag: str) -> int:
    """A generator seed for one input, fixed by the run seed and a tag."""
    return int.from_bytes(hashlib.sha256(f"{tag}:{seed}".encode()).digest()[:6], "big")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scale_config() -> str:
    """The acceptance scale point: dense noise, Zipf over 169 methods, no rules."""
    names = " ".join(f"m{i:03d}" for i in range(169))
    return f"features = {FEATURES}\nnoise = 0.3\nfallback zipf 1.4322 : {names}\n"


def planted_config() -> str:
    """Sparse, rule-structured data: 24 rules pinning 1-3 bits, 40 methods.

    The rules are drawn once from a fixed seed, so that runs with different
    seeds differ only in the sampled points, as they do for the scale point.
    """
    rng = random.Random(1806)
    methods = [f"m{i:03d}" for i in range(40)]
    lines = [f"features = {FEATURES}", "noise = 0.05"]
    for _ in range(24):
        bits = rng.sample(range(FEATURES), rng.randint(1, 3))
        pattern = ", ".join(
            f"{bit}={1 if k == 0 else rng.randint(0, 1)}" for k, bit in enumerate(bits)
        )
        picked = rng.sample(methods, 3)
        dist = ", ".join(f"{m}:{p}" for m, p in zip(picked, (0.6, 0.3, 0.1)))
        lines.append(f"rule 0.03 : {pattern} -> {dist}")
    lines.append("fallback zipf 1.2 : " + " ".join(methods))
    return "\n".join(lines) + "\n"


class SetupError(RuntimeError):
    pass


def guarded(check) -> str:
    """Run a check; a check that raises on bad output reports it as a failure."""
    try:
        return check()
    except Exception as exc:  # the output under test is what made it raise
        return f"check raised {exc!r}"


@dataclass
class Op:
    """One closed-loop operation (a query-cli cycle holds several requests)."""

    latencies_ns: list[int]
    attempted: int = 1
    failed: int = 0
    why_failed: str = ""
    rss_mb: float | None = None
    outputs: dict[str, str] = field(default_factory=dict)
    spans: list | None = None

    @property
    def wall_ns(self) -> int:
        return sum(self.latencies_ns)

    def fail(self, reason: str, count: int | None = None) -> None:
        self.failed = self.attempted if count is None else min(self.attempted, self.failed + count)
        self.why_failed = self.why_failed or reason


class Workload:
    """Base: child-process plumbing shared by the workloads."""

    name = ""
    why = ""
    setup_reps = 3
    phases: tuple[str, ...] = ("op",)
    share = {"op": 1.0}  # of --seconds, per phase

    def __init__(self, work: Path, seed: int, scale: str):
        self.work = work
        self.seed = seed
        self.sizes = SIZES[scale]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self._checked: dict[str, str] = {}
        if scale == "tiny":
            self.min_ops = {phase: 2 for phase in self.min_ops}

    # -- child processes -------------------------------------------------
    def spawn(self, argv: list[str], tag: str):
        """Run argv in the work directory; (exit code, wall ns, stdout)."""
        out_path = self.work / f"{tag}.out"
        with open(out_path, "wb") as out, open(self.work / f"{tag}.err", "wb") as err:
            start = perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter_ns() - start
        return proc.returncode, wall, out_path.read_bytes()

    def pamper(self, args: list[str], tag: str = "op", traced: bool = False):
        """Run the CLI through child.py; (exit code, wall ns, peak RSS MiB or None, stdout)."""
        peak_path = self.work / f"{tag}.peak"
        peak_path.unlink(missing_ok=True)
        spans = str(self.work / f"{tag}.spans") if traced else "-"
        code, wall, stdout = self.spawn([sys.executable, str(HERE / "child.py"), str(peak_path), spans, *args], tag)
        peak = float(peak_path.read_text(encoding="ascii")) if peak_path.exists() else None
        return code, wall, peak, stdout

    def read_spans(self, tag: str = "op") -> list:
        path = self.work / f"{tag}.spans"
        if not path.exists():  # the child died before writing; its exit code fails the op
            return []
        spans = [tuple(s) for s in json.loads(path.read_text(encoding="utf-8"))]
        path.unlink()
        return spans

    def must(self, args: list[str], tag: str) -> None:
        """Run a set-up command; a failure stops the benchmark."""
        code = self.pamper(args, tag)[0]
        if code != 0:
            err = (self.work / f"{tag}.err").read_text(encoding="utf-8", errors="replace")
            raise SetupError(f"pamper {args[0]} exited {code}: {err.strip()[-400:]}")

    def gen(self, config: str, points: int, seed_tag: str, output: str) -> None:
        cfg = self.work / f"{output}.cfg"
        cfg.write_text(config, encoding="utf-8")
        self.must(["gen", cfg.name, str(points), str(derive(self.seed, seed_tag)), "-o", output], "setup")

    def vectors_from(self, db: str) -> list[str]:
        text = (self.work / db).read_text(encoding="utf-8")
        return [line.partition(",")[2].strip() for line in text.splitlines() if line]

    # -- checks ----------------------------------------------------------
    def probes(self) -> dict[str, list[Op]]:
        """Ops run once after the closed loop, outside its timing; none by default."""
        return {}

    def check_once(self, digest: str, check) -> str:
        """Run an independent check once per distinct output digest."""
        if digest not in self._checked:
            self._checked[digest] = guarded(check)
        return self._checked[digest]

    def check_same(self, ops: list[Op], pinned: dict | None) -> None:
        """Every op must give the first op's outputs, and the pinned ones if given."""
        if not ops:
            return
        first = ops[0].outputs
        for op in ops:
            if op.outputs != first:
                op.fail("outputs differ from the first operation of this run")
            if pinned is not None and op.outputs != pinned:
                op.fail("outputs differ from the pinned digests")

    def check_prefix(self, ops: list[Op], count: int, pinned: str | None) -> str | None:
        """Digest of the first ``count`` ops' outputs, failing them on a pinned mismatch.

        None when fewer than ``count`` ops ran (a traced run splits its time).
        """
        if len(ops) < count:
            return None
        digest = sha("".join(op.outputs["stdout"] for op in ops[:count]).encode())
        if pinned is not None and digest != pinned:
            for op in ops[:count]:
                op.fail("output prefix differs from the pinned digest")
        return digest


class TrainScale(Workload):
    name = "train-scale"
    why = (
        "dense noise grows every tree to depth 5, so tree growth (kernels plus "
        "_choose_split) dominates; ingest is the rest and queries do nothing"
    )
    min_ops = {"op": 3}

    def setup(self) -> None:
        self.gen(scale_config(), self.sizes["scale_points"], "corpus", "corpus.db")

    def prepare(self) -> None:
        text = (self.work / "corpus.db").read_text(encoding="utf-8")
        names = [line.partition(",")[0] for line in text.splitlines() if line]
        self.points = len(names)
        self.method_counts = Counter(names)

    def items(self, phase: str) -> int:
        return self.points

    def op(self, phase: str, index: int, traced: bool) -> Op:
        path = self.work / "model.txt"
        path.unlink(missing_ok=True)
        code, wall, rss, stdout = self.pamper(["train", "corpus.db", "model.txt"], traced=traced)
        op = Op([wall], rss_mb=rss)
        if traced:
            op.spans = self.read_spans()
        if code != 0 or not path.exists():
            op.fail(f"pamper train exited {code}" if code else "pamper train wrote no model")
            return op
        model = path.read_bytes()
        op.outputs = {"model": sha(model), "stdout": sha(stdout)}
        problem = self.check_once(op.outputs["model"], lambda: self.check_model(model))
        if problem:
            op.fail(problem)
        return op

    def check_model(self, model_bytes: bytes) -> str:
        """Independent check: round trip, one tree per method, leaves cover the corpus."""
        from pamper.trees import Internal, model_from_text, model_to_text

        text = model_bytes.decode("utf-8")
        model = model_from_text(text)
        if model_to_text(model) != text:
            return "model text does not round-trip"
        if sorted(model.trees) != sorted(self.method_counts):
            return "model methods differ from the corpus methods"
        for name, tree in model.trees.items():
            points = positives = 0
            stack = [tree]
            while stack:
                node = stack.pop()
                if isinstance(node, Internal):
                    stack += (node.when_false, node.when_true)
                else:
                    points += node.count
                    positives += round(node.expectation * node.count)
            if points != self.points or positives != self.method_counts[name]:
                return f"leaves of {name} do not partition the corpus"
        return ""

    def finish(self, ops: dict[str, list[Op]], pinned: dict | None) -> dict:
        self.check_same(ops["op"], pinned)
        return ops["op"][0].outputs


class EvaluatePlanted(Workload):
    name = "evaluate-planted"
    why = (
        "sparse rule-structured data where ingest is over a third of an evaluate op, "
        "twice its share in train-scale; exercises batch recommend via batch_rank"
    )
    min_ops = {"op": 5}
    setup_reps = 5  # set-up is one short ``pamper gen``; more reps steady its median
    REPORTS = ("report.txt", "report.csv", "fig2.csv", "fig3.csv")

    def setup(self) -> None:
        self.gen(planted_config(), self.sizes["planted_points"], "corpus", "corpus.db")

    def prepare(self) -> None:
        import numpy as np

        text = (self.work / "corpus.db").read_text(encoding="utf-8")
        names = [line.partition(",")[0] for line in text.splitlines() if line]
        # The CLI's default split: one PCG64(0) draw per point, eval when < 0.10.
        held_out = np.random.Generator(np.random.PCG64(0)).random(len(names)) < 0.10
        self.points = len(names)
        self.train_counts = Counter(n for n, out in zip(names, held_out.tolist()) if not out)
        self.eval_points = int(held_out.sum())

    def items(self, phase: str) -> int:
        return self.points

    def op(self, phase: str, index: int, traced: bool) -> Op:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        code, wall, rss, stdout = self.pamper(["evaluate", "corpus.db", "--out-dir", "out"], traced=traced)
        op = Op([wall], rss_mb=rss)
        if traced:
            op.spans = self.read_spans()
        missing = [name for name in self.REPORTS if not (out / name).exists()]
        if code != 0 or missing:
            op.fail(f"pamper evaluate exited {code}" if code else f"pamper evaluate wrote no {missing[0]}")
            return op
        files = {name: (out / name).read_bytes() for name in self.REPORTS}
        op.outputs = {name: sha(data) for name, data in files.items()}
        op.outputs["stdout"] = sha(stdout)
        problem = self.check_once(
            "".join(op.outputs.values()), lambda: self.check_reports(files, stdout)
        )
        if problem:
            op.fail(problem)
        return op

    def check_reports(self, files: dict[str, bytes], stdout: bytes) -> str:
        """Independent check of the split sizes and the training counts per method."""
        table = files["report.txt"].decode("utf-8")
        if stdout.decode("utf-8") != table + "report files written to out\n":
            return "stdout is not the report table"
        if f"training points: {self.points - self.eval_points}\n" not in table:
            return "training point count is wrong"
        if f"evaluation points: {self.eval_points}\n" not in table:
            return "evaluation point count is wrong"
        rows = files["report.csv"].decode("utf-8").splitlines()[1:]
        got = {cells[0]: int(cells[1]) for cells in (row.split(",") for row in rows)}
        if got != dict(self.train_counts):
            return "per-method training counts are wrong"
        fig2 = [int(r.split(",")[1]) for r in files["fig2.csv"].decode("utf-8").splitlines()[1:]]
        if fig2 != sorted(self.train_counts.values(), reverse=True):
            return "fig2 counts are wrong"
        return ""

    def finish(self, ops: dict[str, list[Op]], pinned: dict | None) -> dict:
        self.check_same(ops["op"], pinned)
        return ops["op"][0].outputs


class QueryMixin:
    """Reference answers for query requests, from the benchmark's own tree walk.

    The leaf each tree reaches, the ordering (descending expectation, ties by
    ascending name), the rank and the decision path are computed here over
    the model's Internal/Leaf nodes; only the model parser and the render_*
    text formatting come from the library.
    """

    def load_reference(self) -> None:
        from pamper.trees import model_from_text

        self.model = model_from_text((self.work / "model.txt").read_bytes())
        self.methods = list(self.model.trees)

    @staticmethod
    def walk(tree, bits: list[bool]) -> tuple[float, list[tuple[int, bool]]]:
        """Expectation of the leaf ``bits`` reaches, and the (feature, bit) path to it."""
        from pamper.trees import Internal

        path = []
        node = tree
        while isinstance(node, Internal):
            path.append((node.feature, bits[node.feature]))
            node = node.when_true if bits[node.feature] else node.when_false
        return node.expectation, path

    def expected(self, argv: list[str]) -> str:
        from pamper.recommend import (
            Explanation,
            ExplanationStep,
            Recommendation,
            render_explanation,
            render_rank,
            render_recommendation,
        )

        bits = [cell.strip() == "1" for cell in argv[2].strip()[1:-1].split(",")]
        if argv[0] == "why":
            expectation, path = self.walk(self.model.trees[argv[3]], bits)
            steps = tuple(ExplanationStep(f, b, self.model.catalog.describe(f)) for f, b in path)
            return render_explanation(Explanation(argv[3], steps, expectation)) + "\n"
        ranking = sorted(
            ((name, self.walk(tree, bits)[0]) for name, tree in self.model.trees.items()),
            key=lambda item: (-item[1], item[0]),
        )
        if argv[0] == "which":
            return render_recommendation(Recommendation(tuple(ranking[:15]), len(ranking))) + "\n"
        rank = 1 + [name for name, _ in ranking].index(argv[3])
        return render_rank(argv[3], rank, len(ranking)) + "\n"


class QueryCli(QueryMixin, Workload):
    name = "query-cli"
    why = (
        "warm in-process which/why/rank requests on the 169-tree model, where "
        "model_from_text dominates, interleaved with batch which over 20k vectors"
    )
    setup_reps = 1
    phases = ("single", "batch")
    share = {"single": 0.75, "batch": 0.25}
    min_ops = {"single": 40, "batch": 3}  # 40 cycles = 200 requests

    def setup(self) -> None:
        self.gen(scale_config(), self.sizes["scale_points"], "corpus", "corpus.db")
        self.must(["train", "corpus.db", "model.txt"], "setup")
        self.gen(scale_config(), self.sizes["batch_vectors"], "queries", "queries.db")
        (self.work / "vectors.txt").write_text(
            "\n".join(self.vectors_from("queries.db")) + "\n", encoding="utf-8"
        )

    def prepare(self) -> None:
        self.load_reference()
        self.vectors = self.vectors_from("queries.db")
        rng = random.Random(derive(self.seed, "requests"))
        self.plan = [
            (rng.randrange(len(self.vectors)), rng.choice(self.methods)) for _ in range(1000)
        ]
        from pamper import cli

        self.cli = cli
        self.model_path = str(self.work / "model.txt")
        self.cores = sorted(os.sched_getaffinity(0))
        # The reference model and request plan are the benchmark's, not the
        # program's: keep the collector from scanning them during requests.
        gc.collect()
        gc.freeze()

    def items(self, phase: str) -> int:
        return len(self.vectors) if phase == "batch" else 1

    def request(self, argv: list[str], tracer) -> tuple[int, int, io.BytesIO]:
        """One CLI call with stdout captured as UTF-8 bytes, as a pipe would get it."""
        raw = io.BytesIO()
        out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n", write_through=True)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.install()
            start = perf_counter_ns()
            code = self.cli.main(argv)
            wall = perf_counter_ns() - start
            if tracer is not None:
                tracer.uninstall()
        out.detach()
        return code, wall, raw

    def op(self, phase: str, index: int, traced: bool) -> Op:
        # Requests run in this one thread; alternating it between the usable
        # cores makes every run sample each core alike, since on a shared
        # host one core can be slower than the other for seconds at a time.
        os.sched_setaffinity(0, {self.cores[index % len(self.cores)]})
        tracer = Tracer() if traced else None
        if phase == "batch":
            code, wall, out = self.request(["which", self.model_path, str(self.work / "vectors.txt")], tracer)
            op = Op([wall])
            if code != 0:
                op.fail(f"batch which exited {code}")
            else:
                op.outputs = {"stdout": sha(out.getbuffer())}
                problem = self.check_once(op.outputs["stdout"], lambda: self.check_batch(out))
                if problem:
                    op.fail(problem)
        else:
            op = Op([], attempted=len(CYCLE))
            texts = []
            for k, kind in enumerate(CYCLE):
                row, method = self.plan[(index * len(CYCLE) + k) % len(self.plan)]
                argv = [kind, self.model_path, self.vectors[row]]
                if kind != "which":
                    argv.append(method)
                code, wall, raw = self.request(argv, tracer)
                out = raw.getvalue().decode("utf-8")
                op.latencies_ns.append(wall)
                texts.append(out)
                if code != 0 or out != guarded(lambda: self.expected(argv)):
                    op.fail(f"{kind} request answered wrongly", count=1)
            op.outputs = {"stdout": "".join(texts)}
        if tracer is not None:
            op.spans = tracer.finish()
        return op

    def probes(self) -> dict[str, list[Op]]:
        """The batch request once more, as a ``pamper which`` child, for its peak RSS.

        The in-process requests share this process with the benchmark's own
        objects, so their memory is not the program's.
        """
        os.sched_setaffinity(0, self.cores)
        code, wall, rss, stdout = self.pamper(["which", "model.txt", "vectors.txt"], "probe")
        op = Op([wall], rss_mb=rss, outputs={"stdout": sha(stdout)})
        if code != 0:
            op.fail(f"batch which child exited {code}")
        return {"rss": [op]}

    def check_batch(self, out: io.BytesIO) -> str:
        """Line count, plus every 50th-of-the-batch answer against the tree walk."""
        block = 1 + min(15, len(self.methods))  # header plus the top k methods
        step = max(1, len(self.vectors) // 50)
        out.seek(0)
        lines = 0
        answer: list[bytes] = []
        for line in out:
            record, offset = divmod(lines, block)
            lines += 1
            if record % step == 0 and record < len(self.vectors):
                answer.append(line)
                if offset == block - 1:
                    want = self.expected(["which", "", self.vectors[record]])
                    if b"".join(answer).decode("utf-8") != want:
                        return f"batch which answer {record} is wrong"
                    answer = []
        if lines != len(self.vectors) * block:
            return "batch which printed the wrong number of lines"
        return ""

    def finish(self, ops: dict[str, list[Op]], pinned: dict | None) -> dict:
        pinned = pinned or {}
        batch = [*ops["batch"], *ops.get("rss", [])]
        self.check_same(batch, {"stdout": pinned["batch"]} if "batch" in pinned else None)
        single = self.check_prefix(ops["single"], self.min_ops["single"], pinned.get("single"))
        return {"single": single, "batch": ops["batch"][0].outputs.get("stdout", "")}


class ColdCli(QueryMixin, Workload):
    name = "cli-cold"
    why = (
        "pamper which spawned as a fresh interpreter per request; interpreter start "
        "plus import pamper.cli is most of it, which no other workload measures"
    )
    min_ops = {"op": 40}

    def setup(self) -> None:
        self.gen(scale_config(), self.sizes["cold_points"], "corpus", "corpus.db")
        self.must(["train", "corpus.db", "model.txt"], "setup")
        self.gen(scale_config(), self.sizes["cold_vectors"], "queries", "queries.db")

    def prepare(self) -> None:
        self.load_reference()
        self.vectors = self.vectors_from("queries.db")

    def items(self, phase: str) -> int:
        return 1

    def op(self, phase: str, index: int, traced: bool) -> Op:
        argv = ["which", "model.txt", self.vectors[index % len(self.vectors)]]
        code, wall, rss, stdout = self.pamper(argv, traced=traced)
        op = Op([wall], rss_mb=rss)
        if traced:
            op.spans = self.read_spans()
        text = stdout.decode("utf-8")
        op.outputs = {"stdout": text}
        if code != 0 or text != guarded(lambda: self.expected(argv)):
            op.fail(f"which exited {code}" if code else "which answered wrongly")
        return op

    def finish(self, ops: dict[str, list[Op]], pinned: dict | None) -> dict:
        digest = self.check_prefix(ops["op"], self.min_ops["op"], (pinned or {}).get("stdout"))
        return {"stdout": digest}


WORKLOADS = {w.name: w for w in (TrainScale, EvaluatePlanted, QueryCli, ColdCli)}
