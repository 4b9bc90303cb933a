"""Benchmark of the recpascal command line, run from the root of a checkout.

    python3 perfbench/run.py --workload inverse --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 36 --out perfbench/results/seed.json

One closed-loop client runs `python -m recpascal <argv>` one process at a
time and times it from outside.  The seed sets the order of the ops within
each pass; the program sees only argv and the reference b-files, which are
written at set-up from closed forms.  Every distinct output is checked once,
after the timed region, by the exact gates in gates.py.  The harness and its
children share one pinned CPU; each child's time is reported raw and scaled
by host probes run on that CPU just before and after it (see ProbedClock).

--trace 0 reports the end-to-end metrics; --trace 1 runs the same ops in
process through recpascal.cli.main, alternating plain and traced passes, and
reports per-layer metrics.  --all runs every workload both ways and prints
every metric.  The last line of a single-workload run is one JSON object
with the metrics BENCHMARK.json declares.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import gates
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUTPUTS = WORK / "outputs"

SETUP_SAMPLES = 11
#: host_probe()'s time on a quiet host; declared times are scaled to it.
NOMINAL_PROBE_S = 0.05
MIN_PASSES = 3
OP_TIMEOUT_S = 120
COMMAND_KINDS = ("invert", "gen", "check", "det", "bench", "oeis", "crosscheck")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list, stdout, stderr, env: dict, timeout: float = OP_TIMEOUT_S):
    """Run one child to completion, killing it after timeout seconds:
    (wall seconds, exit code, its rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
    timer = threading.Timer(timeout, _kill, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _median(values):
    return statistics.median(values) if values else None


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


class Trial:
    """One run of one workload: its ops, the outputs seen, and the samples."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.ops = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.outputs: dict = {}
        self.samples: list = []
        OUTPUTS.mkdir(parents=True, exist_ok=True)
        for stale in OUTPUTS.glob(f"{workload}-*.out"):
            stale.unlink()
        self.references_s = spawn_references(workload)

    def record(self, index: int, wall: float, code: int, out_path: Path, err: str, rss_kb=0):
        """Keep one sample; the output stays on disk, once per distinct digest,
        so the harness's own RSS does not grow while children run."""
        digest = hashlib.sha256()
        with open(out_path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
        digest = digest.hexdigest()
        if (index, digest) not in self.outputs:
            kept = OUTPUTS / f"{self.workload}-{index}-{digest[:16]}.out"
            out_path.replace(kept)
            self.outputs[index, digest] = kept
        sample = {
            "op": index, "wall": wall, "code": code, "digest": digest, "rss_kb": rss_kb,
            "traceback": "Traceback (most recent call last)" in err,
            "stderr_tail": err[-300:],
        }
        self.samples.append(sample)
        return sample

    def passes(self, run_pass):
        """Call run_pass(order, probe_order) while the next pass is projected
        to end within the time; at least MIN_PASSES times, unless the next
        would end past 1.5 times the time, which bounds a run on a slow host."""
        regular = [i for i, op in enumerate(self.ops) if not op.probe]
        probes = [i for i, op in enumerate(self.ops) if op.probe]
        records = []
        start = time.perf_counter()
        while True:
            order = self.rng.sample(regular, len(regular))
            probe_order = self.rng.sample(probes, len(probes))
            records.append(run_pass(order, probe_order))
            elapsed = time.perf_counter() - start
            projected = elapsed + elapsed / len(records)
            if projected > self.seconds * (1 if len(records) >= MIN_PASSES else 1.5):
                return records

    def verify(self) -> dict:
        """Gate every distinct output once; counts failures over all samples."""
        verdicts = {}
        with gates.unlimited_int_digits():
            for (index, digest), path in self.outputs.items():
                try:
                    self.ops[index].gate(path.read_text())
                    verdicts[index, digest] = None
                except Exception as exc:  # any parse error in the output is a mismatch
                    verdicts[index, digest] = f"{type(exc).__name__}: {exc}"
        tally = {"attempted": 0, "failed": 0, "probes_attempted": 0, "probes_failed": 0}
        wrong, failures = 0, {}
        for s in self.samples:
            probe = self.ops[s["op"]].probe
            reason = None
            if s["code"] != 0 or s["traceback"]:
                reason = f"exit {s['code']}" + (" with traceback" if s["traceback"] else "")
                last = s["stderr_tail"].strip().splitlines()[-1:] or [""]
                reason += f": {last[0][:160]}"
            elif verdicts[s["op"], s["digest"]] is not None:
                reason = f"wrong output: {verdicts[s['op'], s['digest']]}"
                wrong += 1
            s["ok"] = reason is None
            prefix = "probes_" if probe else ""
            tally[prefix + "attempted"] += 1
            if reason is not None:
                tally[prefix + "failed"] += 1
                failures.setdefault(self.ops[s["op"]].label, reason)
        tally["correct"] = tally["failed"] == 0 and wrong == 0
        tally["failures"] = failures
        tally["samples"] = [
            {"op": self.ops[s["op"]].label, "wall": s["wall"], "scaled": s.get("scaled"),
             "ok": s["ok"]} for s in self.samples
        ]
        return tally


def spawn_references(workload: str) -> float:
    """Write the workload's reference b-files from a separate process."""
    argv = [sys.executable, str(HERE / "workloads.py"), workload]
    wall, code, _ = spawn(argv, None, None, dict(os.environ))
    if code != 0:
        raise SystemExit(f"perfbench: writing the references exited {code}")
    return wall


def host_probe() -> float:
    """Seconds for a fixed piece of big-integer and Fraction arithmetic, run in
    the harness on the CPU its children use: the host's speed right now,
    independent of the program."""
    start = time.perf_counter()
    for _ in range(10):
        acc = Fraction(0)
        x = 1
        for i in range(1, 600):
            acc += Fraction(i, i + 1)
            x = (x * 3 + i) % 10 ** 600
    return time.perf_counter() - start


class ProbedClock:
    """Brackets each child with host probes.  A child's time scaled to the
    nominal host is wall * NOMINAL_PROBE_S / (mean of the probes just before
    and just after it); the probe after one child is the one before the next."""

    def __init__(self) -> None:
        self.last = host_probe()
        self.probes = [self.last]

    def scale(self) -> float:
        now = host_probe()
        self.probes.append(now)
        factor = NOMINAL_PROBE_S / ((self.last + now) / 2)
        self.last = now
        return factor


def measure_setup(env: dict) -> tuple[list, list, list]:
    """Fresh interpreters that import recpascal.cli and exit; one warm-up
    first, so bytecode compilation is not counted."""
    argv = [sys.executable, "-c", "import recpascal.cli"]
    spawn(argv, subprocess.DEVNULL, subprocess.DEVNULL, env)
    clock = ProbedClock()
    walls, scaled, cpus = [], [], []
    for _ in range(SETUP_SAMPLES):
        wall, code, usage = spawn(argv, subprocess.DEVNULL, subprocess.DEVNULL, env)
        if code != 0:
            raise SystemExit(f"perfbench: `import recpascal.cli` exited {code}")
        walls.append(wall)
        scaled.append(wall * clock.scale())
        cpus.append(usage.ru_utime + usage.ru_stime)
    return walls, scaled, cpus


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    trial = Trial(workload, seed, seconds)
    env = _child_env()
    out_path, err_path = WORK / "op.out", WORK / "op.err"
    setup_walls, setup_scaled, setup_cpus = measure_setup(env)
    clock = ProbedClock()

    def run_op(index):
        argv = [sys.executable, "-m", "recpascal", *trial.ops[index].argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            wall, code, usage = spawn(argv, out, err, env)
        sample = trial.record(index, wall, code, out_path,
                              err_path.read_text(errors="replace"), usage.ru_maxrss)
        sample["scaled"] = wall * clock.scale()
        return sample

    def run_pass(order, probe_order):
        samples = [run_op(i) for i in order]
        probes = [run_op(i) for i in probe_order]
        return {"samples": samples, "probes": probes}

    records = trial.passes(run_pass)
    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = time.perf_counter()
    tally = trial.verify()
    verify_s = time.perf_counter() - t0

    def pass_median(key, kinds=COMMAND_KINDS):
        per_pass = [sum(s[key] for s in r["samples"] if trial.ops[s["op"]].kind in kinds)
                    for r in records]
        return _metric(_median(per_pass), "s", len(per_pass))

    metrics = {
        "setup_s": _metric(_median(setup_scaled), "s", len(setup_scaled)),
        "setup_wall_s": _metric(_median(setup_walls), "s", len(setup_walls)),
        "setup_cpu_s": _metric(_median(setup_cpus), "s", len(setup_cpus)),
        "pass_s": pass_median("scaled"),
        "pass_wall_s": pass_median("wall"),
    }
    for kind in COMMAND_KINDS:
        if any(op.kind == kind for op in trial.ops):
            metrics[f"{kind}_s"] = pass_median("scaled", (kind,))
    if any(op.probe for op in trial.ops):
        good = [s["scaled"] for r in records for s in r["probes"] if s["ok"]]
        metrics["bigterm_s"] = _metric(_median(good), "s", len(good))
    metrics["host_probe_ms"] = _metric(_median(clock.probes) * 1000, "ms", len(clock.probes))
    regular = [s for r in records for s in r["samples"]]
    metrics["peak_rss_mb"] = _metric(max(s["rss_kb"] for s in regular) / 1024, "MB", len(regular))
    everything = tally["attempted"] + tally["probes_attempted"]
    metrics["fail_ratio"] = _metric(
        (tally["failed"] + tally["probes_failed"]) / everything, "ratio", everything)
    return {"workload": workload, "trace": 0, "seconds": seconds, "env": environment(seed),
            "references_s": trial.references_s, "verify_s": verify_s,
            "harness_rss_mb": harness_rss_mb, **tally, "metrics": metrics}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    trial = Trial(workload, seed, seconds)
    out_path = WORK / "op.out"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import recpascal.cli as cli

    tracer = tracing.Tracer()
    all_spans = []

    def run_op(index):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cli.main(list(trial.ops[index].argv))
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # the program crashed: keep the traceback as it would print
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
        out_path.write_text(out.getvalue())
        return trial.record(index, wall, code, out_path, err.getvalue())

    def run_pass(order, _probe_order):
        plain = sum(run_op(i)["wall"] for i in order)
        traced_order = trial.rng.sample(order, len(order))
        with tracer.install():
            traced = 0.0
            for i in traced_order:
                tracer.op = f"{len(all_spans)}:{i}"
                traced += run_op(i)["wall"]
        spans, counts = tracer.take()
        all_spans.append(spans)
        return {"plain": plain, "traced": traced, "layers": tracing.layer_metrics(spans, counts)}

    records = trial.passes(run_pass)
    tally = trial.verify()
    with open(WORK / f"spans-{workload}.jsonl", "w") as f:
        for pass_no, spans in enumerate(all_spans):
            for span in spans:
                f.write(json.dumps([pass_no, *span]) + "\n")

    n = len(records)
    metrics = {}
    for name in records[0]["layers"]:
        values = [r["layers"][name] for r in records]
        if name.endswith(".calls"):
            metrics[name] = _metric(statistics.median_low(values), "count", n)
        else:
            metrics[name] = _metric(_median(values), "s", n)
    plain = _median([r["plain"] for r in records])
    metrics["inproc_pass_s"] = _metric(plain, "s", n)
    metrics["trace.overhead_ratio"] = _metric(
        _median([r["traced"] for r in records]) / plain, "ratio", n)
    return {"workload": workload, "trace": 1, "seconds": seconds, "env": environment(seed),
            **tally, "metrics": metrics}


def print_table(result: dict) -> None:
    env = result["env"]
    print(f"workload {result['workload']}  trace {result['trace']}  seed {env['seed']}  "
          f"seconds {result['seconds']}  python {env['python']}  numpy {env['numpy']}  "
          f"nproc {env['nproc']}  thread env {env['thread_env']}")
    if "verify_s" in result:
        print(f"  set-up of references {result['references_s']:.2f} s, "
              f"output gates {result['verify_s']:.2f} s (both untimed); harness peak RSS "
              f"{result['harness_rss_mb']:.1f} MB, the floor of every child's ru_maxrss")
    print(f"  ops attempted {result['attempted']} failed {result['failed']}  "
          f"probes attempted {result['probes_attempted']} failed {result['probes_failed']}  "
          f"correct {result['correct']}")
    for label, reason in result["failures"].items():
        print(f"  FAILED {label}: {reason}")
    for name, m in result["metrics"].items():
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:45s} {value:>12s} {m['unit']:6s} n={m['samples']}")


def predictions(results: dict) -> list:
    """The workloads' stated predictions, checked against one --all run."""
    def value(workload, trace, name):
        return results[workload, trace]["metrics"][name]["value"]

    self_times = {layer: value("verify", 1, f"{layer}.self_s") for layer in tracing.LAYERS}
    seq = results["sequence", 0]
    probe_share = seq["probes_attempted"] / (seq["attempted"] + seq["probes_attempted"])
    return [
        ("linalg.invert_rational.calls is 0 on inverse",
         value("inverse", 1, "linalg.invert_rational.calls") == 0),
        ("linalg.det_bareiss.calls is 0 on inverse",
         value("inverse", 1, "linalg.det_bareiss.calls") == 0),
        ("linalg has the largest self time on verify",
         max(self_times, key=self_times.get) == "linalg"),
        ("fail_ratio is 0 on inverse and verify",
         value("inverse", 0, "fail_ratio") == 0 == value("verify", 0, "fail_ratio")),
        ("fail_ratio on sequence is the probes' share of the ops",
         value("sequence", 0, "fail_ratio") == probe_share),
    ]


def result_line(result: dict, spec: dict) -> str:
    declared = spec["per_layer" if result["trace"] else "end_to_end"]
    metrics = {}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        if value is None:
            raise SystemExit(f"perfbench: metric {m['name']} has no samples")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full results as JSON")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (SRC / "recpascal" / "cli.py").is_file():
        print(f"perfbench: no recpascal sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the harness and, by inheritance, every child: the host
    # probes then measure the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.all:
        # One process per run, so no run inherits another's peak RSS or imports.
        results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                out = WORK / f"all-{workload}-{trace}.json"
                argv = [sys.executable, __file__, "--workload", workload, "--seed",
                        str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                        "--out", str(out)]
                sys.stdout.flush()
                _, code, _ = spawn(argv, None, None, dict(os.environ), timeout=600)
                if code != 0:
                    raise SystemExit(f"perfbench: {workload} trace {trace} exited {code}")
                results[workload, trace] = json.loads(out.read_text())
        for claim, holds in predictions(results):
            print(f"prediction {'holds' if holds else 'DEVIATES'}: {claim}")
        results = list(results.values())
        if args.out:
            args.out.write_text(json.dumps(results, indent=1) + "\n")
        return 0 if all(r["correct"] for r in results) else 1

    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds)
    print_table(result)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(result_line(result, json.loads((ROOT / "BENCHMARK.json").read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
