#!/usr/bin/env python3
"""End-to-end benchmark of the `ctr` pipeline, with a per-layer trace.

Run from the repository root:

    python3 pipebench/run.py --workload din-experiment --seed 1 --seconds 60 --trace 0

With `--trace 0` each stage of the README pipeline runs as its own `ctr`
process, one at a time: generate, train din, train base, eval,
eval --compare, predict, then a closed loop of rank requests. Whole rounds
of these repeat while another fits in `--seconds`; every output is
checked, and the end-to-end metrics are medians over the rounds. With
`--trace 1` the same stages run in this process, once untraced and once
with the layers wrapped (see tracer.py), and the per-layer metrics are
printed.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Metric names and units come from BENCHMARK.json at the repository root.
"""

import os

# One BLAS thread, fixed before NumPy loads here and passed to every child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402
from tracer import STAGES, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".pipebench_work")
SETUPS_PER_ROUND = 2  # set-ups repeated before each round; setup_s is the median of all
IMPORT_PROBES = 5  # cli.import_s is the median of these
RUN_LIMIT_S = 170.0  # a child still running this long after the start is killed; none starts later


@dataclass
class Op:
    """One CLI invocation (or one in-process `cli.main` call when tracing)."""

    stage: str
    code: int
    wall_s: float
    problems: list = field(default_factory=list)
    cold: bool = False  # a cold-start rank request: sent and checked, not timed

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": SRC, **BLAS_ENV}


def import_probe() -> float:
    """Wall time of a fresh interpreter that imports dinctr.cli."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import dinctr.cli"], env=child_env(), capture_output=True, timeout=60
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"pipebench: cannot import dinctr.cli from {SRC}: {proc.stderr.decode(errors='replace')}")
    return wall


class CliExecutor:
    """Runs a stage as `python -m dinctr.cli ...` in its own process."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()

    def __call__(self, stage: str, argv: list, out_path: str) -> Op:
        t0 = time.perf_counter()
        if t0 >= self.deadline:
            return Op(stage, -1, 0.0)  # not started: past the run's time limit
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            try:
                code = subprocess.run(
                    [sys.executable, "-m", "dinctr.cli", *argv], cwd=self.workdir, env=self.env, stdout=out,
                    stderr=err, timeout=self.deadline - t0,
                ).returncode
            except subprocess.TimeoutExpired:  # run() has killed and reaped the child
                return Op(stage, -9, time.perf_counter() - t0)
        return Op(stage, code, time.perf_counter() - t0)


class InProcessExecutor:
    """Runs a stage as `cli.main(argv)` here, optionally as a traced root span."""

    def __init__(self, cli, tracer: Tracer | None = None):
        self.cli = cli
        self.tracer = tracer

    def __call__(self, stage: str, argv: list, out_path: str) -> Op:
        with open(out_path, "w", encoding="utf-8") as out, open(out_path + ".err", "w", encoding="utf-8") as err:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                if self.tracer:
                    self.tracer.enter(stage)
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse rejects its arguments this way
                    code = exc.code if isinstance(exc.code, int) else 1
                finally:
                    if self.tracer:
                        self.tracer.exit()
                wall = time.perf_counter() - t0
        return Op(stage, code, wall)


def _last_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read().strip().splitlines()[-1])


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Pipeline:
    """The workload's stages in README order, plus the checks on their outputs.

    The dataset is parsed once, on the first generate; later rounds must
    regenerate it byte for byte (same seed), which the digest confirms.
    """

    def __init__(self, w: W.Workload, seed: int, workdir: str):
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.digest = None
        self.generate_problems: list = []
        self.val_labels = self.val_users = None
        self.predict_inputs: list = []
        self.rank_offsets: list = []  # start of each context's impressions in predict_inputs
        self.candidates = [W.load_jsonl(self.path(W.candidates_path(c))) for c in range(w.n_contexts)]
        self.eval_report = None
        self.predict_p = None  # predict's p per input line, once checked

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _prepare(self) -> list:
        """Check a fresh dataset and write predict's input from it."""
        records = W.load_jsonl(self.path("data.jsonl"))
        with open(self.path("meta.json"), encoding="utf-8") as fh:
            true_probs = json.load(fh)["true_probs"]
        summary = _last_json(self.path("generate.out"))
        problems = checks.check_generate(summary, [r["label"] for r in records], true_probs, self.w.impressions)
        # The CLI's temporal split: stable sort by ts, the last n_val records.
        order = sorted(range(len(records)), key=lambda i: records[i]["ts"])
        val = [records[i] for i in order[len(records) - self.w.n_val :]]
        self.val_labels = np.array([r["label"] for r in val])
        self.val_users = [r["user_id"] for r in val]
        inputs = [{k: r[k] for k in ("user_id", "ad_id", "behavior_ids")} for r in val]
        inputs += W.load_jsonl(self.path(W.COLD_LINES))
        self.rank_offsets = []
        for c, cands in enumerate(self.candidates):
            ctx = W.load_context(self.workdir, c)
            self.rank_offsets.append(len(inputs))
            inputs += [{"user_id": ctx["user_id"], "ad_id": a["ad_id"], "behavior_ids": ctx["behavior_ids"]} for a in cands]
        with open(self.path("predict_in.jsonl"), "w", encoding="utf-8") as fh:
            for obj in inputs:
                fh.write(json.dumps(obj) + "\n")
        self.predict_inputs = inputs
        return problems

    def _check_generate(self) -> list:
        digest = _digest(self.path("data.jsonl"))
        if self.digest is None:
            self.generate_problems = self._prepare()
            self.digest = digest
        elif digest != self.digest:
            return ["dataset differs from the first round's, with the same seed"]
        n = _last_json(self.path("generate.out")).get("n_records")
        return self.generate_problems or ([] if n == self.w.impressions else [f"generate reports {n} records"])

    def _check(self, op: Op, check) -> None:
        """Record `check()`'s problems on an op that exited 0."""
        if op.code != 0:
            return
        try:
            op.problems = check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            op.problems = [f"output unreadable: {exc!r}"]

    def _check_predict(self) -> list:
        outputs = W.load_jsonl(self.path("predict.out"))
        problems = checks.check_predict(self.predict_inputs, outputs)
        self.predict_p = None if problems else [o["p"] for o in outputs]
        return problems

    def _check_eval(self) -> list:
        if self.predict_p is None:
            return ["not checked: predict failed"]
        self.eval_report = _last_json(self.path("eval.out"))
        return checks.check_eval(self.eval_report, self.predict_p[: self.w.n_val], self.val_labels, self.val_users)

    def _check_compare(self) -> list:
        with open(self.path("compare.out"), encoding="utf-8") as fh:
            table = fh.read()
        return checks.check_compare(table, _last_json(self.path("eval.out")), self.w.claim)

    def _check_rank(self, i: int) -> list:
        if self.predict_p is None:
            return ["not checked: predict failed"]
        c = i % self.w.n_contexts
        start = self.rank_offsets[c]
        predict_p = {a["ad_id"]: p for a, p in zip(self.candidates[c], self.predict_p[start:])}
        return checks.check_rank(self.candidates[c], W.load_jsonl(self.path(f"rank_{i}.out")), predict_p)

    def run_round(self, ex) -> list:
        """Every stage once, then a closed loop of rank requests; all checked."""
        w, out = self.w, self.path
        common = ["--config", W.CONFIG, "--seed", str(self.seed), "--dataset", "data.jsonl"]
        ops = [ex("generate", ["generate", *common, "--metadata", "meta.json"], out("generate.out"))]
        self._check(ops[0], self._check_generate)  # the first one also writes predict's input
        for model in ("din", "base"):
            argv = ["train", *common, "--model", model, "--checkpoint", f"{model}.ckpt", "--history", f"{model}_history.csv"]
            ops.append(ex(f"train_{model}", argv, out(f"train_{model}.out")))
        ops.append(ex("eval", ["eval", *common, "--checkpoint", "din.ckpt", "--report", "din_report.json"], out("eval.out")))
        ops.append(ex("compare", ["eval", *common, "--compare", "din.ckpt", "base.ckpt"], out("compare.out")))
        ops.append(ex("predict", ["predict", "--checkpoint", "din.ckpt", "--input", "predict_in.jsonl"], out("predict.out")))
        for i in range(w.rank_requests):
            c = i % w.n_contexts
            argv = ["rank", "--checkpoint", "din.ckpt", "--candidates", W.candidates_path(c), "--context", W.context_path(c)]
            ops.append(ex("rank", argv, out(f"rank_{i}.out")))
            ops[-1].cold = c < w.cold_contexts

        _, train_din, train_base, ev, cmp_, pred, *ranks = ops
        for op in (train_din, train_base):
            self._check(op, lambda op=op: checks.check_train(_last_json(out(f"{op.stage}.out")), w.config["epochs"]))
        self.predict_p = None
        self._check(pred, self._check_predict)
        self._check(ev, self._check_eval)
        self._check(cmp_, self._check_compare)
        for i, op in enumerate(ranks):
            self._check(op, lambda i=i: self._check_rank(i))
        return ops


def setup(w: W.Workload, seed: int, workdir: str) -> float:
    """Input files and one untimed interpreter start; returns its wall time."""
    t0 = time.perf_counter()
    W.write_inputs(w, seed, workdir)
    import_probe()
    return time.perf_counter() - t0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(w: W.Workload, setups: list, ops: list, report: dict | None) -> dict:
    ok = [o for o in ops if not o.failed and not o.cold]

    def rate(stage, records):
        return _median([records / o.wall_s for o in ok if o.stage == stage])

    epochs = w.config["epochs"]
    return {
        "setup_s": _median(setups),
        "generate_rec_per_s": rate("generate", w.impressions),
        "train_din_rec_per_s": rate("train_din", w.n_train * epochs),
        "train_base_rec_per_s": rate("train_base", w.n_train * epochs),
        "eval_rec_per_s": rate("eval", w.n_val),
        "compare_rec_per_s": rate("compare", w.n_val),
        "predict_rec_per_s": rate("predict", w.n_val + w.n_cold + w.n_contexts * w.candidates),
        "rank_ms": 1000.0 * _median([o.wall_s for o in ok if o.stage == "rank"]),
        "val_gauc": report["gauc_impressions"]["value"] if report else 0.0,
        # The largest max-RSS among reaped children: the stages and the import probes.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def traced_passes(pipe: Pipeline) -> tuple[list, dict]:
    """One untraced and one traced in-process pass over the stages."""
    sys.path.insert(0, SRC)
    from dinctr import cli

    cwd = os.getcwd()
    os.chdir(pipe.workdir)
    tracer = Tracer()
    try:
        before = pipe.run_round(InProcessExecutor(cli))
        tracer.install()
        try:
            traced = pipe.run_round(InProcessExecutor(cli, tracer))
        finally:
            tracer.uninstall()
    finally:
        os.chdir(cwd)
    tracer.write_spans(pipe.path("spans.json"))
    metrics = tracer.layer_metrics()
    metrics["cli.import_s"] = _median([import_probe() for _ in range(IMPORT_PROBES)])
    metrics["trace.overhead_s"] = sum(o.wall_s for o in traced) - sum(o.wall_s for o in before)
    metrics.update({f"trace.unattributed_share.{s}": v for s, v in tracer.unattributed_shares().items()})
    return before + traced, metrics


def machine_info() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": BLAS_ENV,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "dinctr", "cli.py")):
        print(f"pipebench: no dinctr sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    w = W.WORKLOADS[args.workload]
    workdir = os.path.join(WORK_ROOT, w.name)
    shutil.rmtree(workdir, ignore_errors=True)  # the last run's outputs; not part of set-up time
    os.makedirs(workdir)
    setups = [setup(w, args.seed, workdir)]
    pipe = Pipeline(w, args.seed, workdir)

    if args.trace:
        ops, values = traced_passes(pipe)
        wanted = spec["per_layer"]
        rounds = 2
    else:
        ex = CliExecutor(workdir, deadline)
        ops, rounds = [], 0
        t0 = time.perf_counter()
        while True:  # whole rounds, as many as fit in --seconds (at least one)
            r0 = time.perf_counter()
            # Repeated set-ups rewrite the same bytes; spread over the run, they
            # sample its changing load as the stages do.
            setups += [setup(w, args.seed, workdir) for _ in range(SETUPS_PER_ROUND)]
            ops += pipe.run_round(ex)
            rounds += 1
            now = time.perf_counter()
            if now - t0 + (now - r0) > args.seconds:
                break
        values = end_to_end(w, setups, ops, pipe.eval_report)
        wanted = spec["end_to_end"]

    problems = [f"{o.stage}: {msg}" for o in ops for msg in o.problems]
    for msg in problems[:20]:
        print(f"pipebench: check failed: {msg}", file=sys.stderr)
    for o in ops:
        if o.code != 0:
            print(f"pipebench: {o.stage} exited {o.code}", file=sys.stderr)
    by_stage = {s: [round(o.wall_s, 4) for o in ops if o.stage == s and not o.cold] for s in STAGES}
    by_stage["rank_cold"] = [round(o.wall_s, 4) for o in ops if o.cold]
    print(json.dumps({"info": {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "rounds": rounds,
        "setup_s": [round(s, 4) for s in setups], "stage_wall_s": by_stage,
        "run_s": round(time.perf_counter() - start, 2), **machine_info()}}))
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(o.failed for o in ops),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
