"""Benchmark of whole qelm-lab runs, end to end and per layer.

    python3 bench/run.py --workload noisy_probs8 --seed 1 --seconds 25 --trace 0

Runs one workload in a closed loop, one operation at a time, for
``--seconds`` of operation time. An operation is one or two ``qelm-lab``
command lines, driven in-process through ``qelm_lab.cli.main``. Every
operation's outputs are checked after the timed region.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of three
fresh interpreters that import the package, load the profile and generate
the first operation's inputs), ``op_s`` (median wall time of one operation)
and ``peak_rss_mb``. ``--trace 1`` traces every second operation and reports
per-layer metrics per traced operation, plus ``trace.overhead_s``. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See bench/README.md.
"""

import os

# pin BLAS and OpenMP pools before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import qelm_lab from this checkout's src/ and nowhere else."""
    if not (SRC / "qelm_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no qelm_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qelm_lab.cli

    if Path(qelm_lab.__file__).resolve().parent != SRC / "qelm_lab":
        raise SystemExit(f"error: imported qelm_lab from {qelm_lab.__file__}, not {SRC}")
    return qelm_lab.cli


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


def measure_setup(args) -> float:
    """Median set-up time of fresh interpreters, from spawn until the first
    operation could start."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if probe.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{probe.stderr}")
        samples.append(float(probe.stdout.split()[-1]) - start)
    return statistics.median(samples)


def fresh_process_state(package: str = "qelm_lab") -> None:
    """Empty the package's process-wide caches and collect garbage, so the
    next operation starts from the state a new ``qelm-lab`` process has."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    gc.collect()


def run_cli(cli, argv) -> tuple[int | None, str]:
    """Run one command line in-process; (exit code, captured error text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # a traceback the CLI let escape counts as a failed call
            return None, traceback.format_exc()
    return code, err.getvalue()


class Loop:
    """Closed loop over a workload's operations; checks each one after its
    timed region."""

    def __init__(self, cli, workload, seed, out, tracer=None):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out = out
        self.tracer = tracer
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, seconds: float, alternate: bool = False) -> tuple[list[float], list[float]]:
        """Operation times, untraced and traced, over ``seconds`` of operation
        time. With ``alternate``, every second operation is traced, so both
        kinds sample the same stretch of machine time."""
        plain, traced = [], []
        while sum(plain) + sum(traced) < seconds or not plain or (alternate and not traced):
            use_trace = alternate and self.index % 2 == 1
            op_out = self.out / f"op{self.index}"
            calls = self.workload.build(self.seed, self.index, op_out)
            scope = self.tracer.operation(self.index) if use_trace else contextlib.nullcontext()
            start = time.perf_counter()
            with scope:
                results = [run_cli(self.cli, call.argv) for call in calls]
            (traced if use_trace else plain).append(time.perf_counter() - start)
            self._verify(calls, results)
            shutil.rmtree(op_out, ignore_errors=True)
            fresh_process_state()
            self.index += 1
        return plain, traced

    def _verify(self, calls, results):
        self.attempted += 1
        problems = [
            f"{call.label}: exit code {code}\n{err}"
            for call, (code, err) in zip(calls, results)
            if code != 0
        ]
        problems = problems or self.workload.run_failures(calls)
        if not problems:
            try:
                problems = self.workload.check(calls)
            except Exception:  # a check that cannot complete is a failed check
                problems = [traceback.format_exc()]
            self.correct = self.correct and not problems
        if problems:
            self.failed += 1
            print(f"operation {self.index} failed:", *problems, sep="\n  ", file=sys.stderr)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    cli = _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workloads.prepare(workload, args.seed)
        print(time.monotonic())
        return 0

    info = machine_info()
    print("machine:", json.dumps(info, sort_keys=True))
    out = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    metrics = {}
    if args.trace == 0:
        metrics["setup_s"] = _metric(measure_setup(args), "s")
        loop = Loop(cli, workload, args.seed, out)
        times, _ = loop.run(args.seconds)
        metrics["op_s"] = _metric(statistics.median(times), "s")
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        )
    else:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        loop = Loop(cli, workload, args.seed, out, tracer)
        times, traced = loop.run(args.seconds, alternate=True)
        tracer.uninstall()
        for name, (total, unit) in tracer.per_layer().items():
            metrics[name] = _metric(total / len(traced), unit)
        metrics["trace.overhead_s"] = _metric(
            statistics.median(traced) - statistics.median(times), "s"
        )
        for name in tracer.absent:
            print(f"absent from the package, not traced: {name}", file=sys.stderr)
        dump = dict(tracer.dump(), workload=args.workload, seed=args.seed,
                    machine=info, traced_ops=len(traced))
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(dump))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    shutil.rmtree(out, ignore_errors=True)

    print(f"{args.workload}: {loop.attempted} operations attempted, {loop.failed} failed")
    print("  untraced operation times (s):", " ".join(f"{t:.3f}" for t in times))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
