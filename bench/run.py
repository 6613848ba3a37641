"""specscale benchmark: one closed-loop client driving the CLI in-process.

Usage, from the repository root:

    python3 bench/run.py --workload fixtures --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1   # each workload in turn

One process, one thread, BLAS pinned to one thread.  A pass runs the
workload's fixed list of ``specscale.cli.main(argv)`` invocations; passes
repeat until ``--seconds`` have elapsed.  Every output is checked against
the benchmark's own oracle (bench/check.py) outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  A pass
starts only if, going by the last pass of its kind, it ends within
``--seconds``.

Each time metric is printed twice, both as medians over untraced passes
with a high percentile and the sample count: ``wall_s``, ``support_s``,
... in seconds as measured, and ``wall_norm_s``, ``support_norm_s``, ...
with each op's time scaled to a reference host speed by the probe run
before and after it (bench/hostspeed.py).  BENCHMARK.json gates the
scaled ones, because the raw ones follow the shared host's speed.  For
the same reason ``setup_s`` is the median of SETUP_REPEATS cold set-ups,
each scaled by a cold-start probe run before and after it;
``setup_raw_s`` is their median as measured.

Human readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` holding exactly
the metrics BENCHMARK.json declares for the mode.  A full record, with the
environment, percentiles and every layer, is written to
``.bench_out/BENCH_<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS and OpenMP to one thread before anything imports numpy.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
# No bytecode caches in the checkout: every set-up compiles specscale, so
# setup_s means the same on the first run as on later ones.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import check  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
COMMAND_METRICS = {
    "support": "support_s",
    "extremes": "extremes_s",
    "obj": "obj_s",
    "slice": "slice_s",
    "faces": "faces_s",
    "corners": "corners_s",
    "center": "center_s",
    "abelian": "abelian_s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_specscale():
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "specscale", "cli.py")):
        raise BenchError(f"no specscale sources under {SRC}")
    sys.path.insert(0, SRC)
    import specscale.cli
    import specscale.oracle  # noqa: F401  (the OBJ export imports it lazily)

    where = os.path.dirname(os.path.abspath(specscale.__file__))
    if where != os.path.join(SRC, "specscale"):
        raise BenchError(f"specscale imported from {where}, not from {SRC}")
    return specscale.cli


def input_dir(workload, seed):
    return os.path.join(OUT, "inputs", f"{workload}-seed{seed}")


def all_tuples(workload, seed):
    tuples, ops, known = workloads.build(workload, seed)
    fixtures = inputs.fixture_tuples()
    for op in workloads.warmup_ops():
        tuples.setdefault(op.tuple_name, fixtures[op.tuple_name])
    return tuples, ops, known


def setup_child(workload, seed):
    """What ``setup_s`` times: a cold import plus writing the inputs."""
    import_specscale()
    tuples, _, _ = all_tuples(workload, seed)
    inputs.write_inputs(tuples, input_dir(workload, seed))


def dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def timed_setups(workload, seed):
    """Run the set-up SETUP_REPEATS times in fresh interpreters, with the
    cold-start probe before the first and after each; return the wall
    times, as measured and scaled.  Every repeat must write the same bytes."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-child",
            "--workload", workload, "--seed", str(seed)]
    times, digests = [], set()
    probes = [hostspeed.cold_probe()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up did not finish within 120 s") from exc
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
        digests.add(dir_digest(input_dir(workload, seed)))
        probes.append(hostspeed.cold_probe())
    if len(digests) != 1:
        raise BenchError("set-up wrote different inputs for the same seed")
    scaled = [hostspeed.scaled(t, probes[i], probes[i + 1], hostspeed.COLD_REFERENCE_S)
              for i, t in enumerate(times)]
    return times, scaled


def environment():
    import numpy
    import scipy

    blas = "unknown"
    with contextlib.suppress(KeyError, TypeError):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run from an export that is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Runs passes over one workload and records every op execution."""

    def __init__(self, cli, workload, seed):
        self.cli = cli
        tuples, self.ops, self.known_failures = all_tuples(workload, seed)
        self.paths = {name: os.path.join(input_dir(workload, seed), f"{name}.json") for name in tuples}
        used = {op.tuple_name for op in self.ops + self.known_failures}
        self.verifier = check.Verifier({k: v for k, v in tuples.items() if k in used}, seed)
        self.attempted = 0
        self.failures = []  # (op label, problems)
        self.known = {op.label: [] for op in self.known_failures}

    def call(self, op):
        """Run one op; returns (seconds, exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(op.argv(self.paths[op.tuple_name]))
            except Exception:  # a traceback is a failed op, not a crashed run
                rc = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            elapsed = time.perf_counter() - start
        return elapsed, rc, out.getvalue()

    def warm_up(self):
        for op in workloads.warmup_ops():
            self.call(op)

    def run_pass(self, tracer=None):
        """One timed pass: ``(record, results)``, unchecked.

        An untraced pass runs the host-speed probe before every op and
        after the last; ``wall`` leaves the probes out."""
        results, probes = [], []
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is None:
                probes.append(hostspeed.probe())
            else:
                tracer.op_id = self.attempted + i
            results.append(self.call(op))
        if tracer is None:
            probes.append(hostspeed.probe())
        wall = time.perf_counter() - start - sum(probes)
        op_seconds = [elapsed for elapsed, _, _ in results]
        record = {
            "wall": wall,
            "per_command": self.by_command(op_seconds),
            "out_bytes": sum(len(stdout.encode("utf-8")) for _, _, stdout in results),
            "op_seconds": op_seconds,
        }
        if tracer is None:
            scaled = [hostspeed.scaled(t, probes[i], probes[i + 1])
                      for i, t in enumerate(op_seconds)]
            record.update(probe_seconds=probes, op_scaled=scaled,
                          wall_scaled=sum(scaled), per_command_scaled=self.by_command(scaled))
        return record, results

    def by_command(self, op_values):
        totals = {}
        for op, value in zip(self.ops, op_values):
            totals[op.command] = totals.get(op.command, 0.0) + value
        return totals

    def check_pass(self, results):
        """Check a pass's outputs, then attempt the known failures."""
        for i, (op, (_, rc, stdout)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            problems = self.verifier.verify(i, op, rc, stdout)
            if problems:
                self.failures.append((op.label, problems))
        for op in self.known_failures:
            elapsed, rc, stdout = self.call(op)
            problems = self.verifier.verify(op.label, op, rc, stdout)
            self.known[op.label].append({"seconds": elapsed, "problems": problems})


def high_percentile(values):
    """(p, value) for the highest whole percentile with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timing(values):
    entry = {"value": statistics.median(values), "samples": len(values)}
    hp = high_percentile(values)
    if hp is not None:
        entry[f"p{hp[0]}"] = hp[1]
    return entry


def end_to_end(passes, setups, runner):
    metrics = {
        "wall_s": dict(timing([p["wall"] for p in passes]), unit="s"),
        "wall_norm_s": dict(timing([p["wall_scaled"] for p in passes]), unit="s"),
    }
    for cmd, name in COMMAND_METRICS.items():
        if any(op.command == cmd for op in runner.ops):
            metrics[name] = dict(timing([p["per_command"][cmd] for p in passes]), unit="s")
            metrics[name[:-2] + "_norm_s"] = dict(
                timing([p["per_command_scaled"][cmd] for p in passes]), unit="s")
    metrics["probe_ms"] = dict(
        timing([1e3 * x for p in passes for x in p["probe_seconds"]]), unit="ms")
    metrics["setup_raw_s"] = dict(timing(setups[0]), unit="s")
    metrics["setup_s"] = dict(timing(setups[1]), unit="s")
    metrics["fail_frac"] = {"value": len(runner.failures) / runner.attempted, "unit": "ratio"}
    # The same share with the known failures' attempts counted in.
    known = [a for attempts in runner.known.values() for a in attempts]
    metrics["fail_frac_with_known"] = {
        "value": (len(runner.failures) + sum(bool(a["problems"]) for a in known))
        / (runner.attempted + len(known)),
        "unit": "ratio",
    }
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB",
    }
    return metrics


def per_layer(traced, untraced):
    """Median over traced passes of every layer metric."""
    rows = []
    for p in traced:
        stats, counters = p["layers"]
        row = {}
        for name, (calls, self_s) in stats.items():
            row[f"{name}.calls"] = (calls, "count")
            row[f"{name}.self_s"] = (self_s, "s")
        row["spectral.eigh.work_d3"] = (counters["eigh_work_d3"], "count")
        adds = stats["scale.ExtremePointCloud.add"][0]
        row["scale.ExtremePointCloud.add.kept_ratio"] = (
            counters["cloud_adds_kept"] / adds if adds else 0.0, "ratio")
        cones = counters["cone_intervals"]
        row["faces.normal_cone.member_ratio"] = (
            counters["cone_members"] / cones if cones else 0.0, "ratio")
        row["cli.out_bytes"] = (p["out_bytes"], "bytes")
        row["trace.accounted"] = (counters["root_s"] / p["wall"], "ratio")
        row["trace.spans"] = (counters["spans"], "count")
        rows.append(row)
    metrics = {
        k: {"value": statistics.median(r[k][0] for r in rows), "unit": unit}
        for k, (_, unit) in rows[0].items()
    }
    metrics["trace.overhead"] = {
        "value": statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in untraced),
        "unit": "ratio",
    }
    return metrics


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return spec["per_layer" if trace else "end_to_end"]


def run(args):
    cli = import_specscale()
    setups = timed_setups(args.workload, args.seed)
    runner = Runner(cli, args.workload, args.seed)
    runner.warm_up()
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []
    spans = None
    start = time.perf_counter()
    last = {}  # seconds the last pass of each kind took, check included
    # At least one pass, and in a traced run at least one of each kind.
    while True:
        kind = "traced" if tracer is not None and len(traced) < len(untraced) else "untraced"
        elapsed = time.perf_counter() - start
        have_each_kind = untraced and (traced or not args.trace)
        if have_each_kind and elapsed + last.get(kind, 0.0) > args.seconds:
            break
        pass_start = time.perf_counter()
        if kind == "traced":
            tracer.reset()
            tracer.install()
            try:
                record, results = runner.run_pass(tracer)
            finally:
                tracer.remove()
            record["layers"] = tracer.layer_stats()
            spans = tracer.arrays()
            traced.append(record)
        else:
            record, results = runner.run_pass()
            untraced.append(record)
        runner.check_pass(results)
        last[kind] = time.perf_counter() - pass_start
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(untraced, setups, runner)
    env = environment()
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "label": label,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "passes": {"untraced": untraced, "traced": [
            {k: v for k, v in p.items() if k != "layers"} for p in traced]},
        "ops_per_pass": [op.label for op in runner.ops],
        "attempted": runner.attempted,
        "failures": runner.failures,
        "known_failures": runner.known,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"BENCH_{label}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        import numpy

        numpy.savez_compressed(
            os.path.join(OUT, f"BENCH_{label}.spans.npz"),
            names=numpy.array(tracing.SPAN_NAMES), **spans)

    print(f"# env {json.dumps(env)}")
    print(f"# passes untraced={len(untraced)} traced={len(traced)}, {len(runner.ops)} ops per pass")
    for name, m in metrics.items():
        extra = "".join(f" {k}={v:.6g}" for k, v in m.items() if k.startswith("p") and k[1:].isdigit())
        if "samples" in m:
            extra += f" samples={m['samples']}"
        print(f"metric {name} {m['value']:.6g} {m['unit']}{extra}")
    for label_, attempts in runner.known.items():
        bad = [a["problems"][0] for a in attempts if a["problems"]]
        print(f"# known failure {label_}: failed {len(bad)}/{len(attempts)} attempts"
              + (f" ({bad[0]})" if bad else " -- fixed? move it into the timed list"))
    for label_, problems in runner.failures[:10]:
        print(f"# FAILED {label_}: {problems[0]}")

    result = {}
    for spec in declared_metrics(args.trace):
        if spec["name"] not in metrics or metrics[spec["name"]]["unit"] != spec["unit"]:
            raise BenchError(f"declared metric {spec['name']} ({spec['unit']}) was not measured")
        result[spec["name"]] = {"value": metrics[spec["name"]]["value"], "unit": spec["unit"]}
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": result,
    }))


def run_all(args):
    """Every workload in turn, each in its own process."""
    worst = 0
    for workload in workloads.WORKLOADS:
        print(f"## workload {workload}", flush=True)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_child:
            setup_child(args.workload, args.seed)
        elif args.workload == "all":
            return run_all(args)
        else:
            run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
