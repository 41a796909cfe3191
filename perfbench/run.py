"""Benchmark of the calibens pipeline, end to end and per layer.

    python3 perfbench/run.py --workload c10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 -m pytest perfbench -q          # self-tests of the benchmark

One process is one run, run from the repository root. The run generates its
inputs from --seed with calibens.data.synth_cluster_pair (the same seed gives
the same files) and drives the real CLI stages through calibens.cli.main, one
after another, with every training setting pinned in a --config file per
stage. A pass executes the workload's timed stages once; passes repeat on the
same inputs until the pass time would overrun --seconds, and at least two run
so that their artifacts can be compared byte for byte. Set-up (writing the
inputs and, for ``eval``, training the artifacts) runs three times, before
each of the first three passes, so that its samples spread over the run;
setup_s is the CPU time of interpreter start and imports plus the median
set-up. ``eval``
times only evaluate and report, so its training metrics are the medians of its
set-up stages.

Times are CPU seconds of this process (user + system, all threads) with
one BLAS thread, so on an idle machine they equal the stages' wall time; on a
shared host they leave out the time the host gives to other tenants, which
made wall times of identical passes differ by 20% and more on a shared
2-vCPU VM. The loop that
decides how many passes fit in --seconds uses wall time.

--trace 0 prints the end-to-end metrics (medians over passes). --trace 1
alternates untraced and traced passes and prints the per-layer metrics
(medians over traced passes) and the tracing overhead; a traced ``eval`` pass
also counts the traced training stages of its first set-up. Spans stay in
memory and are written at the end to .perfbench_work/spans-<workload>.csv,
which the next traced run of the workload replaces. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. A pass or set-up that fails a check counts as one failed
operation.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"

KINDS = ("SL", "DL", "DLL", "SLpC")
HEADS = 5  # m
VAL_FRACTION = 0.1
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    dim: int
    n_train: int
    n_test: int
    head_max_epochs: int
    meta_epochs: int
    # train heads and combiners during set-up and time only evaluate + report
    train_in_setup: bool = False


WORKLOADS = {
    # CLI-default shapes: ~10 small numpy calls per mini-batch, so per-batch
    # Python overhead dominates, not BLAS. Heads stop at 20 epochs: early
    # stopping (patience 15) would end them anywhere from epoch 37 to 84
    # depending on the seed, which makes the work itself vary by ~15% per seed.
    # 50k test samples keep the seed-to-seed spread of ECE near 4% (10k: 12%).
    "c10": Workload("c10", 10, 16, 10_000, 50_000, 20, 10),
    # CIFAR-100-shaped features with epochs capped at one: matmul-bound head
    # GEMMs and the DLL combiner (hidden width 500).
    "c100": Workload("c100", 100, 256, 50_000, 10_000, 1, 1),
    # The read side: a large test set through loaders, head_predict, the
    # combine rules and the metrics; artifacts are trained cheaply in set-up.
    # Three combiner epochs: after one, their accuracy spreads 4% by seed.
    # Four head epochs make train-heads last ~1 s instead of ~0.3 s (on a
    # shared 2-vCPU VM its spread over seeds fell from ~23% to ~17%); every
    # head still keeps its epoch-1 snapshot.
    "eval": Workload("eval", 100, 256, 10_000, 50_000, 4, 3, train_in_setup=True),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "train_heads_s": "s",
    "train_meta_s": "s",
    "evaluate_s": "s",
    "head_samples_per_s": "1/s",
    "meta_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "head_acc_pct": "%",
    "avg_ece_pct": "%",
    "meta_acc_pct": "%",
    "meta_ece_pct": "%",
}


def layer_unit(name):
    if name.endswith((".calls", "epochs_run")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("gemm_flops"):
        return "flop-computed"  # from operand shapes, not a hardware counter
    if name.endswith(".bytes"):
        return "B"
    return "ratio"


def stage_configs(w, seed, work):
    """Every setting of each stage, pinned so CLI default changes cannot move
    the workload. --jobs stays unset: heads train sequentially."""
    train, test = work / "train.fds", work / "test.fds"
    art, results = work / "artifacts", work / "results"
    return {
        "train-heads": {
            "train": str(train),
            "out": str(art),
            "m": HEADS,
            "seed": seed,
            "val_fraction": VAL_FRACTION,
            "lr": 0.1,
            "momentum": 0.9,
            "weight_decay": 5e-4,
            "batch_size": 128,
            "max_epochs": w.head_max_epochs,
            "plateau_factor": 0.5,
            "plateau_patience": 5,
            "early_stop_patience": 15,
        },
        "train-meta": {
            "train": str(train),
            "heads_dir": str(art),
            "seed": seed,
            "val_fraction": VAL_FRACTION,
            "meta_input": "probs",
            "epochs": w.meta_epochs,
            "lr": 0.05,  # the CLI default 2e-4 leaves the combiners near chance
            "momentum": 0.9,
            "weight_decay": 0.0,
            "batch_size": 128,
            "plateau_factor": 0.5,
            "plateau_patience": 3,
            "dropout": 0.5,
        },
        "evaluate": {
            "test": str(test),
            "heads_dir": str(art),
            "meta": ",".join(KINDS),
            "bins": 15,
            "norm_degree": 1,
            "meta_input": "probs",
            "out": str(results),
        },
    }


def run_stage(argv):
    """One CLI stage in this process: (exit code, CPU seconds, captured stdout)."""
    from calibens.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not the end of the run
        err.write(traceback.format_exc())
        code = -1
    seconds = time.process_time() - start
    if code != 0:
        sys.stderr.write(f"stage {' '.join(argv)} exited {code}\n{err.getvalue()}")
    return code, seconds, out.getvalue()


def chance_level_bound(num_classes, n, sigmas=3.0):
    """Accuracy reachable by guessing: 1/C plus `sigmas` binomial standard
    errors. The same bound as calibens.data.chance_level_bound, kept here so
    that the benchmark does not depend on a test fixture of the package."""
    p = 1.0 / num_classes
    return p + sigmas * (p * (1.0 - p) / n) ** 0.5


class Bench:
    """One run of one workload: its stages, set-up, passes and checks."""

    def __init__(self, w, seed, work):
        self.w, self.seed, self.work = w, seed, work
        self.art, self.results = work / "artifacts", work / "results"
        self.checks = {}  # check name -> [passed, failed]
        self.attempted = self.failed = 0
        self.config_paths = {}
        self.reference = {}  # first digest of each kind, for the determinism checks

    # -- stages -------------------------------------------------------------

    def train_stages(self):
        cfg = self.config_paths
        stages = [("train-heads", ["train-heads", "--config", cfg["train-heads"]])]
        for kind in KINDS:
            argv = ["train-meta", "--config", cfg["train-meta"], "--kind", kind]
            stages.append((f"train-meta.{kind}", argv))
        return stages

    def eval_stages(self):
        return [
            ("evaluate", ["evaluate", "--config", self.config_paths["evaluate"]]),
            ("report", ["report", str(self.results / "summary.json")]),
        ]

    def run_stages(self, stages):
        """Run stages in order until one fails; returns (times, stdout by stage, ok)."""
        times, outputs = {}, {}
        for name, argv in stages:
            code, seconds, out = run_stage(argv)
            if not self.record("every stage exits 0", code == 0):
                return times, outputs, False
            times[name], outputs[name] = seconds, out
        return times, outputs, True

    # -- set-up -------------------------------------------------------------

    def set_up(self, trace_ctx):
        """Write inputs and configs (and train the artifacts for ``eval``,
        inside ``trace_ctx``); returns (seconds, stage times or None, ok)."""
        from calibens.data import SynthSpec, save_dataset, synth_cluster_pair

        gc.collect()  # every set-up and pass starts from the same heap
        start = time.process_time()
        w = self.w
        self.work.mkdir(parents=True, exist_ok=True)
        spec = SynthSpec(
            w.classes, w.dim, w.n_train, cluster_separation=6.0, label_noise=0.2, seed=self.seed
        )
        train, test = synth_cluster_pair(spec, w.n_test)
        save_dataset(train, self.work / "train.fds")
        save_dataset(test, self.work / "test.fds")
        for stage, cfg in stage_configs(w, self.seed, self.work).items():
            path = self.work / f"config_{stage}.json"
            path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
            self.config_paths[stage] = str(path)
        times, ok = None, True
        if w.train_in_setup:
            shutil.rmtree(self.art, ignore_errors=True)
            with trace_ctx:
                times, _, ok = self.run_stages(self.train_stages())
            ok = ok and self.check_artifacts()
        seconds = time.process_time() - start
        self.count_operation(ok)
        return seconds, times, ok

    # -- checks -------------------------------------------------------------

    def record(self, check, ok):
        self.checks.setdefault(check, [0, 0])[0 if ok else 1] += 1
        return bool(ok)

    def count_operation(self, ok):
        self.attempted += 1
        self.failed += not ok

    def same_as_first(self, check, key, digest):
        first = self.reference.setdefault(key, digest)
        return self.record(check, digest == first)

    def check_artifacts(self):
        files = sorted(self.art.glob("head_*.hdw")) + sorted(self.art.glob("meta_*.mmd"))
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        complete = self.record("m heads and 4 combiners written", len(digest) == HEADS + len(KINDS))
        same = self.same_as_first("same seed gives byte-identical .hdw/.mmd", "artifacts", digest)
        return same and complete

    def check_results(self, report_out):
        summary = json.loads((self.results / "summary.json").read_text(encoding="utf-8"))
        rows = summary["rows"]
        ok = self.record("summary has m+2+4 rows", len(rows) == HEADS + 2 + len(KINDS))
        ok &= self.record("report prints every row", len(report_out.splitlines()) == len(rows) + 2)
        bound = 100.0 * chance_level_bound(self.w.classes, self.w.n_test)
        heads = [r for r in rows if r["kind"] == "head"]
        ok &= self.record(
            "every head beats the chance-level bound",
            len(heads) == HEADS and all(r["accuracy_pct"] > bound for r in heads),
        )
        rows_digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        ok &= self.same_as_first("same seed gives identical summary rows", "rows", rows_digest)
        return ok, rows

    # -- passes -------------------------------------------------------------

    def run_pass(self):
        """One execution of the timed stages; ``duration`` is wall seconds."""
        stages = self.eval_stages()
        shutil.rmtree(self.results, ignore_errors=True)
        if not self.w.train_in_setup:
            stages = self.train_stages() + stages
            shutil.rmtree(self.art, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        times, outputs, ok = self.run_stages(stages)
        duration = time.perf_counter() - start
        rows = None
        if ok:
            try:
                ok, rows = self.check_results(outputs["report"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"unreadable results: {exc!r}", file=sys.stderr)
                ok = self.record("summary.json is readable", False)
            if not self.w.train_in_setup:
                ok = self.check_artifacts() and ok
        self.count_operation(ok)
        return {"ok": ok, "times": times, "rows": rows, "duration": duration}

    def sidecars(self):
        heads = json.loads((self.art / "heads.json").read_text(encoding="utf-8"))["heads"]
        meta_epochs = sum(
            len(json.loads((self.art / f"meta_{k}.json").read_text(encoding="utf-8"))["history"])
            for k in KINDS
        )
        return heads, meta_epochs


def train_metrics(times, heads, meta_epochs, n_fit):
    train_meta_s = sum(times[f"train-meta.{k}"] for k in KINDS)
    return {
        "train_heads_s": times["train-heads"],
        "train_meta_s": train_meta_s,
        "head_samples_per_s": sum(h["epochs_run"] for h in heads) * n_fit / times["train-heads"],
        "meta_samples_per_s": meta_epochs * n_fit / train_meta_s,
    }


def end_to_end(bench, passes, setups, import_s, n_fit):
    w = bench.w
    per_pass = []
    for p in passes:
        t = p["times"]
        metrics = {
            "wall_s": sum(t.values()),
            "evaluate_s": t["evaluate"],
            "eval_samples_per_s": w.n_test / t["evaluate"],
        }
        if not w.train_in_setup:
            metrics.update(train_metrics(t, *p["sidecars"], n_fit))
        per_pass.append(metrics)
    if w.train_in_setup:
        # training stages of eval run in set-up: report their median there
        setup_metrics = [train_metrics(t, *sc, n_fit) for _, t, sc in setups]
        for key in setup_metrics[0]:
            value = statistics.median([s[key] for s in setup_metrics])
            for m in per_pass:
                m[key] = value
    out = {key: statistics.median([m[key] for m in per_pass]) for key in per_pass[0]}
    out["setup_s"] = import_s + statistics.median([s for s, _, _ in setups])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = {r["name"]: r for r in passes[-1]["rows"]}
    heads = [r for r in rows.values() if r["kind"] == "head"]
    out["head_acc_pct"] = statistics.fmean(r["accuracy_pct"] for r in heads)
    out["avg_ece_pct"] = rows["Avg."]["ece_pct"]
    out["meta_acc_pct"] = statistics.fmean(rows[k]["accuracy_pct"] for k in KINDS)
    out["meta_ece_pct"] = statistics.fmean(rows[k]["ece_pct"] for k in KINDS)
    return {k: out[k] for k in END_TO_END_UNITS}


def epoch_metrics(heads):
    run = sum(h["epochs_run"] for h in heads)
    wasted = sum(h["epochs_run"] - h["best_epoch"] for h in heads)
    return {"heads.epochs_run": run, "heads.wasted_epoch_share": wasted / run}


def measure(bench, seconds, trace):
    """Run set-ups and passes. Set-up i runs just before pass i, so set-up
    samples spread over the run like the passes do; passes continue until
    another would take the pass time past ``seconds``. Returns (untraced
    passes, traced passes, set-ups, training samples after the validation
    split, every recorded span)."""
    import tracer as tracing
    from calibens.data import load_dataset, split

    tracer = tracing.Tracer()
    setups, setup_spans, all_spans = [], [], []
    plain, traced_passes = [], []

    def set_up():
        nonlocal setup_spans
        traced = trace and not setups and bench.w.train_in_setup
        seconds_setup, times, ok = bench.set_up(tracer if traced else contextlib.nullcontext())
        if traced:
            setup_spans = tracer.take()
            all_spans.extend(setup_spans)
        if ok:
            setups.append((seconds_setup, times, bench.sidecars() if times else None))

    spent, longest, attempts = 0.0, 0.0, 0
    while True:
        if attempts < SETUP_REPEATS:
            set_up()
        traced = trace and attempts % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            p = bench.run_pass()
        p["index"] = attempts = attempts + 1
        if traced:
            spans = tracer.take()
            all_spans.extend(spans)
            p["layers"] = tracing.layer_metrics(tracing.aggregate(setup_spans + spans))
        if p["ok"]:
            p["sidecars"] = bench.sidecars()
            (traced_passes if traced else plain).append(p)
        spent += p["duration"]
        longest = max(longest, p["duration"])
        if attempts >= 2 and spent + longest > seconds:
            break
    for _ in range(attempts, SETUP_REPEATS):
        set_up()
    n_fit = split(load_dataset(bench.work / "train.fds"), VAL_FRACTION, 0)[0].n
    return plain, traced_passes, setups, n_fit, all_spans


def per_layer(plain, traced_passes):
    names = list(traced_passes[0]["layers"])
    out = {n: statistics.median([p["layers"][n] for p in traced_passes]) for n in names}
    epochs = [epoch_metrics(p["sidecars"][0]) for p in traced_passes]
    for key in epochs[0]:
        out[key] = statistics.median([e[key] for e in epochs])

    def wall(passes):
        return statistics.median([sum(p["times"].values()) for p in passes])

    out["trace_overhead_s"] = wall(traced_passes) - wall(plain)
    return out


# -- environment ------------------------------------------------------------


def nproc():
    return len(os.sched_getaffinity(0))


def single_thread_env():
    """One BLAS thread and no head thread pool; set before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("CALIB_ENSEMBLE_JOBS", None)


def blas_threads(np):
    """Threads the loaded OpenBLAS reports, else the configured limit."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_sha():
    """Commit of the checkout, read from .git without running git; the
    benchmark may run in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(np),
        "nproc": nproc(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
    }


# -- entry points -------------------------------------------------------------


def print_result(bench, metrics, units, env, args, setups, passes):
    print(
        f"perfbench workload={bench.w.name} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    for i, (seconds, times, _) in enumerate(setups):
        stages = " ".join(f"{stage}={s:.4f}" for stage, s in (times or {}).items())
        print(f"set-up {i + 1}: cpu={seconds:.4f} {stages}".rstrip())
    for p in sorted(passes, key=lambda p: p["index"]):
        times = " ".join(f"{stage}={s:.4f}" for stage, s in p["times"].items())
        traced = " traced" if "layers" in p else ""
        print(f"pass {p['index']}{traced}: wall={p['duration']:.4f} cpu: {times}")
    for name, (passed, failed) in bench.checks.items():
        print(f"check {'ok  ' if not failed else 'FAIL'} {name}: {passed} passed, {failed} failed")
    share = bench.failed / max(bench.attempted, 1)
    print(
        f"operations: {bench.attempted} attempted, {bench.failed} failed "
        f"({100 * share:.1f}%); {len(passes)} measured passes"
    )
    for name, value in metrics.items():
        print(f"{name:<44} {value:>16.6g} {units(name)}")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
            }
        )
    )


def run_one(args):
    if not (ROOT / "src" / "calibens" / "__init__.py").is_file():
        print(f"error: calibens sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    single_thread_env()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import calibens.cli  # noqa: F401
    import tracer as tracing

    import_s = time.process_time()  # CPU time since the process started
    env = environment(args.seed)
    w = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    bench = Bench(w, args.seed, work)
    try:
        plain, traced_passes, setups, n_fit, spans = measure(bench, args.seconds, args.trace)
        if not setups or not plain or (args.trace and not traced_passes):
            print("error: no pass completed; nothing to report", file=sys.stderr)
            return 1
        if args.trace:
            tracing.write_spans(spans, WORK_ROOT / f"spans-{w.name}.csv")
            metrics = per_layer(plain, traced_passes)
            units = layer_unit
        else:
            metrics = end_to_end(bench, plain, setups, import_s, n_fit)
            units = END_TO_END_UNITS.get
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_result(bench, metrics, units, env, args, setups, plain + traced_passes)
    return 0


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
