"""Benchmark of the `padua` command line, driven in-process.

    python3 perfbench/run.py --workload interp-grid --seed 1 --seconds 24 --trace 0

`--workload all` runs the three workloads one after another, each in its own
process, and prints each report.

One client runs a closed loop over `padua.cli.main(argv)`: each command
starts when the previous one has returned.  A pass is the seeded command list
of the workload (see inputs.py); a run does max(2, round(seconds / nominal
pass seconds)) passes, so it measures about --seconds of command time on a
quiet host and always the same number of commands.  Every output is checked
by oracles.py and deleted after its check.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain and
traced passes and reports the per-layer metrics of the traced passes, per
pass, plus the tracing overhead.  The human-readable report goes to stdout;
its last line is the JSON result.  Spans and the recorded run environment go
to perfbench/_run/.  --perturb shifts one value in the first timed output, a
negative control that must show up as a failed command.
"""

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / "perfbench" / "_run"
SETUP_SAMPLES = 11
MIN_PASSES = 2
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import padua.cli\n"
    "padua.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)

# Per-layer metrics, in the order BENCHMARK.json lists them: span name and
# the aggregate reported for it (calls, self_s, total_s, minor page faults or
# a work counter).
LAYER_METRICS = (
    ("kernel.star_matrix", ("calls", "self_s", "pairs", "pairs_per_s")),
    ("kernel.point_tables", ("self_s", "points")),
    ("kernel.node_tables", ("self_s", "points")),
    ("kernel.kernel_compact", ("self_s",)),
    ("kernel.kernel_direct", ("self_s",)),
    ("kernel.node_star_direct", ("self_s",)),
    ("interp.interpolate_grid", ("self_s", "total_s", "grid_pts", "minflt")),
    ("interp.lebesgue_constant", ("self_s", "total_s", "grid_pts", "minflt")),
    ("interp.lagrange_matrix", ("calls", "self_s")),
    ("interp.sample", ("calls", "self_s")),
    ("interp.to_coefficients", ("calls", "self_s")),
    ("cheb.product_series_grid", ("self_s",)),
    ("cheb.t_norm_lattice", ("self_s",)),
    ("analysis.convergence_study", ("self_s",)),
    ("analysis.marcinkiewicz_trials", ("self_s",)),
    ("points.generate", ("self_s", "nodes")),
    ("cubature.build_rule", ("self_s",)),
    ("cubature.integrate", ("self_s",)),
    ("ideal.q_poly", ("calls", "self_s")),
    ("ideal.three_term_residual", ("calls", "self_s")),
    ("ideal.cd_residual", ("calls", "self_s")),
    ("verify.run_verification", ("self_s",)),
    ("cli.main", ("total_s", "self_s", "minflt")),
    ("cli.output", ("self_s", "bytes")),
)
UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "pairs": "count",
         "pairs_per_s": "1/s", "points": "count", "grid_pts": "count",
         "nodes": "count", "bytes": "B", "minflt": "count"}


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="negative control: corrupt the first timed output")
    return parser


def configure_environment():
    """One workload per process, PADUA_THREADS unset, BLAS threads <= CPUs.

    Must run before numpy is imported."""
    os.environ.pop("PADUA_THREADS", None)
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, cpus))
        except ValueError:
            current = cpus
        os.environ[var] = str(min(max(current, 1), cpus))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(ROOT / "src"))
    return cpus


def run_environment(cpus):
    import numpy as np

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu_model": model,
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "padua_threads": os.environ.get("PADUA_THREADS"),
    }


def measure_setup():
    """Median time for a fresh interpreter to import padua.cli and build the
    parser; one unrecorded start first so bytecode caches exist."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"fresh import of padua.cli failed:\n{proc.stderr}")
        if i:
            samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


class Runner:
    """Closed-loop client: runs, times and checks one command at a time."""

    def __init__(self, cli, oracles, tmpdir, perturb):
        self.cli = cli
        self.oracles = oracles
        self.tmpdir = tmpdir
        self.perturb = perturb
        self.digests = {}
        self.failures = []
        self.max_dev = 0.0

    def run(self, cmd, command_id):
        """Returns (seconds, ok)."""
        out = os.path.join(self.tmpdir, f"out-{cmd.slot}.{cmd.ext}")
        err = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stderr(err):
                code = self.cli.main(cmd.argv + ["--output", out])
        except Exception:
            code = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
        try:
            if self.perturb and code == 0:
                self.perturb = False
                self.oracles.perturb_last_value(out)
            dev = self.oracles.check(cmd, out, code, err.getvalue(), self.digests)
            if dev is not None:
                self.max_dev = max(self.max_dev, dev)
            ok = True
        except Exception as exc:
            self.failures.append(f"#{command_id} {cmd.label}: {type(exc).__name__}: {exc}")
            ok = False
        finally:
            if os.path.exists(out):
                os.remove(out)
        return elapsed, ok


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def layer_metrics(totals, passes):
    metrics = {}
    for name, fields in LAYER_METRICS:
        agg = totals.get(name, {})
        for field in fields:
            if field == "pairs_per_s":
                value = agg.get("pairs", 0) / agg["self_s"] if agg.get("self_s") else 0.0
            else:
                value = agg.get(field, 0) / passes
            metrics[f"{name}.{field}"] = {"value": value, "unit": UNITS[field]}
    return metrics


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "padua" / "cli.py").is_file():
        print(f"error: no padua sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpus = configure_environment()

    import inputs
    import oracles
    import spans

    if args.workload == "all":
        # one process per workload, so that peak_rss_mb stays per workload
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)] + ["--perturb"] * args.perturb
        return max(subprocess.run([sys.executable, __file__, "--workload", name] + flags)
                   .returncode for name in inputs.WORKLOADS)
    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be all or one of {', '.join(inputs.WORKLOADS)}")
    env = run_environment(cpus)
    setup_s = measure_setup()

    import padua
    import padua.cli as cli

    RUN_DIR.mkdir(parents=True, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=RUN_DIR)
    tracer = spans.Tracer(padua)
    try:
        commands = inputs.command_pass(args.workload, args.seed, tmpdir)
        runner = Runner(cli, oracles, tmpdir, perturb=False)
        runner.run(commands[0], -1)  # warm-up, neither timed nor counted
        runner.failures.clear()
        runner.perturb = args.perturb

        total_passes = max(MIN_PASSES,
                           round(args.seconds / inputs.PASS_SECONDS[args.workload]))
        latencies = {False: [], True: []}   # keyed by traced
        passes = {False: 0, True: 0}
        attempted = failed = 0
        origin = perf_counter()
        for number in range(total_passes):
            traced = bool(args.trace) and number % 2 == 1
            if traced:
                tracer.install()
            for cmd in commands:
                tracer.command = attempted
                elapsed, ok = runner.run(cmd, attempted)
                attempted += 1
                failed += not ok
                latencies[traced].append(elapsed)
            if traced:
                tracer.uninstall()
            passes[traced] += 1
    finally:
        tracer.uninstall()
        shutil.rmtree(tmpdir, ignore_errors=True)

    plain = latencies[False]
    window = sum(plain)
    # each command's median over the plain passes: a pass on a busy host
    # moves one sample per command, not the throughput
    slot_medians = [statistics.median(plain[i::len(commands)]) for i in range(len(commands))]
    p_tail, pct = tail(plain)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={total_passes} commands/pass={len(commands)} "
          f"window={window:.2f}s")
    if args.trace:
        totals = tracer.totals()
        metrics = layer_metrics(totals, passes[True])
        traced_s = sum(latencies[True]) / passes[True]
        plain_s = window / passes[False]
        metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
        tracer.write(RUN_DIR / f"spans-{args.workload}.jsonl", origin)
        for name, metric in metrics.items():
            print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
        print(f"  tracing overhead: traced cli.main {traced_s:.4f} s/pass"
              f" vs plain {plain_s:.4f} s/pass")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "cmds_per_s": {"value": len(commands) / sum(slot_medians), "unit": "1/s"},
            "cmd_p50_s": {"value": statistics.median(plain), "unit": "s"},
            "cmd_tail_s": {"value": p_tail, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        for name, metric in metrics.items():
            print(f"  {name:12s} {metric['value']:.6g} {metric['unit']}")
        print(f"  cmd_tail_s is p{pct:.1f} of {len(plain)} samples")
    print(f"  failed_frac  {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(f"  max_abs_err  {runner.max_dev:.6g} abs (largest oracle deviation)")
    for line in runner.failures:
        print(f"  FAILED {line}")
    print("env: " + json.dumps(env))
    record = dict(result, metrics=metrics, failed_frac=failed / attempted,
                  max_abs_err=runner.max_dev, tail_percentile=pct,
                  workload=args.workload, seed=args.seed, env=env,
                  failures=runner.failures, latencies=latencies)
    with open(RUN_DIR / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
