"""End-to-end benchmark: ``run_experiment`` on seeded synthetic ILSUM inputs.

Run from the repository root:

    python3 e2ebench/run.py --workload direct --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 1

One run of one workload:

1. generates its inputs from ``--seed`` in a separate process (gen.py);
2. times ``import indicsum`` in fresh interpreters (``setup_s``);
3. runs one untimed warm-up iteration, reads the peak memory after it
   and checks its output against independent references (checks.py);
4. repeats timed iterations for about ``--seconds`` seconds, each call
   in a fresh output directory, and checks that every iteration
   reproduces the warm-up's records and aggregate.

It is a closed loop with one client: one ``run_experiment`` at a time
in this process, which starts no threads.  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics, each the
median over iterations or samples.  The rate is scaled by the host
speed a fixed reference task measures during the run (see Reference);
the rate as measured is printed too.  With ``--trace 1`` untraced and
traced iterations alternate and it carries the per-layer metrics of
tracing.py instead.  Full results go to ``.bench_results/``.  The exit
code is 0 only when every output check passed.
"""

import argparse
import json
import os
import platform
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")

WORKLOADS = gen.WORKLOADS
SETUP_SAMPLES = 9
# Nominal duration of the reference task; rates are reported for a host
# on which the task takes exactly this long.
REFERENCE_SECONDS = 0.05

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import indicsum; print(time.perf_counter() - t)"
)


def measure_setup(work):
    """Seconds a fresh interpreter takes to ``import indicsum``, per sample.

    One untimed import first caches byte code under ``work``, so every
    sample sees warm byte-code caches whatever the environment's
    byte-code settings.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(work, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, SRC], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=60)
        if i:
            samples.append(float(done.stdout))
    return samples


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Reference:
    """A fixed pure-Python task, timed between iterations to track the
    host's speed.

    On a shared host the CPU speed drifts by a fifth or more over
    minutes, which moves every iteration of a run together.
    ``scale()`` turns a measured rate into the rate on a host on which
    the task takes ``REFERENCE_SECONDS``.  The task tokenizes and scores
    text much as the program does, and it never changes with the program.
    Set-up time is not scaled: it is spent in other processes and on
    imports, and does not follow the task's timings.
    """

    def __init__(self):
        writer = gen.Writer("hindi", 0, random.Random(0))
        self.pairs = [
            (" ".join(" ".join(writer.sentence()[0]) for _ in range(5)),
             " ".join(writer.sentence()[0]))
            for _ in range(200)
        ]
        self.samples = []

    def sample(self):
        start = time.perf_counter()
        for cand, ref in self.pairs:
            cand_tokens, ref_tokens = checks.tokens(cand), checks.tokens(ref)
            for n in checks.ORDERS:
                checks.rouge(cand_tokens, ref_tokens, n)
        self.samples.append(time.perf_counter() - start)

    def scale(self):
        return statistics.median(self.samples) / REFERENCE_SECONDS


def summary(samples, unit):
    """The median, reported as the metric's value, with min, max and count."""
    return {"value": statistics.median(samples), "unit": unit,
            "min": min(samples), "max": max(samples), "n": len(samples)}


class Workload:
    """The ``run_experiment`` calls of one iteration and their checks."""

    def __init__(self, name, inputs, manifest):
        self.name = name
        self.inputs = inputs
        self.manifest = manifest
        self.warm_cache = None
        if name == "direct":
            self.calls = [dict(language=lang, eval_path=self.path(f"{lang}.csv"))
                          for lang in ("english", "hindi", "gujarati")]
        elif name.startswith("translate-map"):
            self.calls = [dict(language="gujarati",
                               eval_path=self.path("gujarati.csv"),
                               pipeline="translate-map",
                               translator="table:" + self.path("gu-en.tsv"),
                               max_tokens=manifest["max_tokens"])]
            if name == "translate-map-warm":
                self.warm_cache = self.path("warm-cache.jsonl")
        else:
            adapter = shlex.join([sys.executable, os.path.join(HERE, "echo_adapter.py")])
            self.calls = [dict(language="hindi", eval_path=self.path("hindi_eval.csv"),
                               train_path=self.path("hindi_train.csv"),
                               preset="hindi-indicbart", adapter=adapter)]

    def path(self, name):
        return os.path.join(self.inputs, name)

    def check(self, k, run):
        """Problems with the output of call ``k``, against the inputs."""
        split = checks.read_csv(self.calls[k]["eval_path"])
        problems = checks.check_scores(run, split)
        if self.name.startswith("translate-map"):
            with open(self.path("sentences.json"), encoding="utf-8") as fh:
                problems += checks.check_extractive(run, json.load(fh))
        elif self.name == "adapter-train":
            train = self.manifest["splits"]["train"]["records"]
            problems += checks.check_echo(run, split, train)
        return problems

    def article_ids(self):
        ids = {}
        for call in self.calls:
            for rec_id, (article, _) in checks.read_csv(call["eval_path"]).items():
                ids[article] = rec_id
        return ids


class Runner:
    """Runs iterations of one workload and counts attempts and failures."""

    def __init__(self, workload, work):
        from indicsum import experiments
        self.experiments = experiments
        self.workload = workload
        self.out_root = os.path.join(work, "out")
        self.attempted = 0
        self.failed = 0
        self.digests = None
        self.cache_bytes = 0
        self._count = 0

    def iteration(self):
        """Run every call once; returns (timed seconds, runs).  A call that
        raised counts as failed and yields None."""
        elapsed = 0.0
        runs = []
        self.cache_bytes = 0
        for kwargs in self.workload.calls:
            self._count += 1
            out = os.path.join(self.out_root, str(self._count))
            os.makedirs(out)
            cache = os.path.join(out, "translation-cache.jsonl")
            if self.workload.warm_cache:
                shutil.copyfile(self.workload.warm_cache, cache)
            cache_before = os.path.getsize(cache) if os.path.exists(cache) else 0
            config = self.experiments.ExperimentConfig(output_dir=out, **kwargs)
            self.attempted += 1
            start = time.perf_counter()
            try:
                run = self.experiments.run_experiment(config)
            except Exception:
                run = None
                traceback.print_exc()
            elapsed += time.perf_counter() - start
            if os.path.exists(cache):
                self.cache_bytes += os.path.getsize(cache) - cache_before
            shutil.rmtree(out)
            if run is None:
                self.failed += 1
            runs.append(run)
        return elapsed, runs

    def verify(self, runs):
        """True when every run of the iteration is correct; each mismatch
        counts as a failure.  The first iteration whose calls all return
        is checked against the references, every later one against it."""
        digests = [checks.digest(run) if run else None for run in runs]
        if self.digests is None:
            if None in digests:
                return False
            for k, run in enumerate(runs):
                problems = self.workload.check(k, run)
                for problem in problems[:5]:
                    print(f"check failed: {problem}", file=sys.stderr)
                if problems:
                    self.failed += 1
                    digests[k] = None
            self.digests = digests
            return None not in digests
        ok = None not in digests
        for k, (got, want) in enumerate(zip(digests, self.digests)):
            if got is not None and got != want:
                print(f"check failed: call {k} did not reproduce the first"
                      " iteration's records and aggregate", file=sys.stderr)
                self.failed += 1
                ok = False
        return ok


def run_workload(args, work):
    inputs = os.path.join(work, "inputs")
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--out", inputs], check=True, timeout=120)
    with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    setup = None if args.trace else measure_setup(work)
    reference = Reference()

    sys.path.insert(0, SRC)
    from indicsum import rouge

    workload = Workload(args.workload, inputs, manifest)
    runner = Runner(workload, work)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(workload.article_ids())
        split = manifest["splits"].get("gujarati", {})
        fuzzy_ratio = split.get("expected_fuzzy_share", 0.0)

    step_start = time.perf_counter()
    warm_s, runs = runner.iteration()
    # Read here so that the peak does not depend on how many iterations
    # fit into --seconds.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.verify(runs)
    del runs
    step = time.perf_counter() - step_start

    untraced = []
    traced = []
    layer = []
    attempts = 0
    started = time.perf_counter()
    while attempts < (2 if tracer else 1) or (
            time.perf_counter() - started + step / 2 < args.seconds):
        trace_this = tracer is not None and attempts % 2 == 1
        attempts += 1
        step_start = time.perf_counter()
        reference.sample()
        if trace_this:
            tracer.reset()
            tracer.install()
            try:
                elapsed, runs = runner.iteration()
            finally:
                tracer.uninstall()
        else:
            elapsed, runs = runner.iteration()
        if runner.verify(runs):
            records = sum(len(run.records) for run in runs)
            (traced if trace_this else untraced).append(records / elapsed)
            if trace_this:
                layer.append(tracing.layer_metrics(
                    tracer, records, runner.cache_bytes, fuzzy_ratio))
        del runs
        step = time.perf_counter() - step_start
    reference.sample()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "kernel_backend": rouge.KERNEL_BACKEND,
        },
        "inputs": manifest,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "warmup_s": warm_s,
        "reference_s": reference.samples,
        "measured_records_per_s": {"untraced": untraced, "traced": traced},
    }
    if tracer is None:
        scale = reference.scale()
        result["metrics"] = {
            "records_per_s": summary([rate * scale for rate in untraced], "1/s"),
            "setup_s": summary(setup, "s"),
            "peak_rss_mb": summary([peak_rss_mb], "MB"),
        } if untraced else {}
        result["measured_medians"] = {"records_per_s": statistics.median(untraced)}
        result["failed_frac"] = runner.failed / runner.attempted
    else:
        per_layer = {name: statistics.median(m[name] for m in layer)
                     for name in layer[0]} if layer else {}
        if traced and untraced:
            per_layer["trace.overhead_frac"] = (
                statistics.median(untraced) / statistics.median(traced) - 1)
        units = dict(tracing.PER_LAYER)
        result["metrics"] = {name: {"value": value, "unit": units[name]}
                             for name, value in per_layer.items()}
        result["layers"] = {
            name: {"calls": calls, "inclusive_s": total, "self_s": own}
            for name, (calls, total, own) in
            sorted(tracing.layer_times(tracer.spans).items())
        }
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(
            RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    return result


def print_result(result):
    env = result["environment"]
    print(f"# {result['workload']} seed {result['seed']}: git {env['git_sha']},"
          f" nproc {env['nproc']}, python {env['python']},"
          f" n-gram kernel {env['kernel_backend']}")
    for split, props in result["inputs"]["splits"].items():
        print(f"# input {split}: " + ", ".join(f"{k} {v}" for k, v in props.items()))
    if "layers" in result:
        print(f"# {'span':36s} {'calls':>8s} {'inclusive s':>12s} {'self s':>10s}")
        for name, row in result["layers"].items():
            print(f"# {name:36s} {row['calls']:8d} {row['inclusive_s']:12.4f}"
                  f" {row['self_s']:10.4f}")
        for name, metric in result["metrics"].items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    else:
        measured = result.get("measured_medians", {})
        for name, m in result["metrics"].items():
            raw = (f", as measured {measured[name]:.6g}" if name in measured else "")
            print(f"{name} {m['value']:.6g} {m['unit']} (median; min {m['min']:.6g},"
                  f" max {m['max']:.6g}, n {m['n']}{raw})")
        print(f"failed_frac {result['failed_frac']:.6g} (of {result['attempted']}"
              " run_experiment calls)")


def final_line(result):
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result["metrics"].items()}
    return json.dumps({"correct": result["failed"] == 0 and bool(metrics),
                       "attempted": result["attempted"], "failed": result["failed"],
                       "metrics": metrics})


def run_all(args):
    """Every workload in its own process; one summary line per workload."""
    ok = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            ok = False
        if not lines:
            print(f"{name}: no result (exit {done.returncode})")
            continue
        last = json.loads(lines[-1])
        cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in last["metrics"].items()]
        if not args.trace:
            cells.append(f"failed_frac {last['failed'] / last['attempted']:.6g}")
        print(f"{name}: " + ", ".join(cells))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of indicsum's run_experiment.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "indicsum", "__init__.py")):
        print(f"no indicsum sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        result = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print_result(result)
    print(final_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
