"""End-to-end and per-layer benchmark of the uhfree command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0

Workloads (all closed loops with one client, requests one after another):

  family     in-process ``uhfree.cli.main`` calls over seeded sl(m|1)
             presentations, m = 1..6: verify, classify, iso, endo,
             submodules, canon-sl11 and string-check.  Brackets, relation
             checks, classification and hom solving do the work; the
             emptiness layer is idle.
  emptiness  in-process ``empty-check`` followed by ``empty-check --verify``
             of the written certificate for every (m, n) in {2..7}^2, about
             one certificate in ten tampered.  Brackets, normal forms and
             morphisms are idle; point evaluation dominates large shapes.
  cli-cold   both mixes at small sizes, each request a fresh
             ``python -m uhfree.cli`` process: interpreter start, imports
             and cold caches dominate.

Requests run in whole cycles of a fixed mix (perfbench/gen.py) until
--seconds have passed and at least MIN_SAMPLES requests are done, so every
run measures the same mix.  Every answer is checked against the ground
truth the generator knows; a wrong verdict, a wrong payload, an unexpected
exit code, an exception or a timeout counts as a failed request.

Times are wall times scaled to a reference machine speed as described in
perfbench/measure.py; the raw figures are printed alongside.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs untraced
cycles (for the per-command wall times and the untraced throughput), then
traces the first cycle again with wrappers installed from perfbench/tracer.py
and prints the per-layer metrics.  The last line of standard output is
the result object; the line before it carries the details of the run
(tail percentile, sample counts, payload digests, raw times, versions).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work" / str(os.getpid())
TRACE_OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer as tracing  # noqa: E402
from measure import REFERENCE_START_S, Speed, hd_quantile  # noqa: E402

REQUEST_LIMIT_S = 30  # a request running longer fails
RUN_LIMIT_S = 150  # no request starts after this much wall time
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
# The tail is the highest percentile with at least ten samples beyond it
# at the guaranteed sample count: p90 at 100 samples.
TAIL_PERCENTILE = 90
MIN_SAMPLES = 100
FILES = ("in.json", "src.json", "dst.json", "out.json", "cert.json")
SUBCOMMANDS = (
    "verify", "classify", "iso", "endo", "submodules",
    "canon-sl11", "string-check", "empty-check", "empty-check-verify",
)


class RequestTimeout(BaseException):
    """Raised by the interval timer inside a request that ran too long."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- set-up and start-up ------------------------------------------------------------

SETUP_CODE = """
import sys, time
sys.path.insert(0, {here!r})
from measure import Speed

def setup():
    t0 = time.perf_counter()
    import uhfree.cli
    from uhfree.superlie import algebra
    for m, n in {shapes!r}:
        algebra(m, n)
    return None, time.perf_counter() - t0

print(Speed().timed(setup, sample=True)[2])
"""


def measure_setup(shapes) -> float:
    """Median over fresh interpreters of importing uhfree.cli and building every algebra.

    Each interpreter scales its own time with the speed probe, sampled
    inside the import; the probe's own imports (fractions, statistics)
    are loaded before the clock starts.
    """
    code = SETUP_CODE.format(here=str(HERE), shapes=list(shapes))
    times = []
    for k in range(SETUP_REPEATS + 1):
        res = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=WORK,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if k:  # the first run only fills the bytecode cache
            times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def start_time() -> float:
    """Wall time of a bare interpreter start, the speed reference of cli-cold requests."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=WORK, capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


def measure_startup() -> float:
    """Median wall time of a bare ``import uhfree.cli`` subprocess, in ms."""
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import uhfree.cli"], env=child_env(), cwd=WORK,
            capture_output=True, timeout=60, check=True,
        )
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


# -- request execution ----------------------------------------------------------------


class InProcess:
    """Calls uhfree.cli.main(argv) in this process under a per-request timer.

    run() returns ((exit code, error), seconds, seconds scaled by the speed probe).
    """

    def __init__(self, speed: Speed, tracer=None):
        import uhfree.cli

        self.main = uhfree.cli.main
        self.speed = speed
        self.tracer = tracer

    def run(self, argv):
        return self.speed.timed(lambda: self._call(argv), sample=True)

    def _call(self, argv):
        sink = io.StringIO()
        error = None
        code = None
        signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if self.tracer is None:
                    code = self.main(argv)
                else:
                    code = self.tracer.request(self.main, argv)
        except RequestTimeout:
            error = f"timed out after {REQUEST_LIMIT_S} s"
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed request, not a crash of the run
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return (code, error), time.perf_counter() - t0


class Cold:
    """Runs each request as a fresh ``python -m uhfree.cli`` process.

    run() returns ((exit code, error), seconds, seconds scaled by the bare
    interpreter starts around the request; see measure.py).  With a trace
    directory, the process is perfbench/trace_child.py, which traces the
    same call and leaves its summary in that directory.
    """

    def __init__(self, trace_dir=None):
        self.trace_dir = trace_dir
        self.summaries = []
        self.last_start = None

    def run(self, argv):
        before = self.last_start or start_time()
        result, elapsed = self._call(argv)
        self.last_start = start_time()
        return result, elapsed, elapsed * REFERENCE_START_S / ((before + self.last_start) / 2)

    def _call(self, argv):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "uhfree.cli", *argv]
        else:
            stats = self.trace_dir / f"child{len(self.summaries)}.json"
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(stats), *argv]
        t0 = time.perf_counter()
        try:
            res = subprocess.run(cmd, env=child_env(), cwd=WORK, capture_output=True, timeout=REQUEST_LIMIT_S)
        except subprocess.TimeoutExpired:
            return (None, f"timed out after {REQUEST_LIMIT_S} s"), time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        error = None
        if b"Traceback" in res.stderr:
            error = "traceback: " + res.stderr.decode(errors="replace").strip().splitlines()[-1]
        if self.trace_dir is not None and stats.exists():
            self.summaries.append(json.loads(stats.read_text()))
            stats.unlink()
        return (res.returncode, error), elapsed


class Tally:
    """Latencies, failures and payload digests of a sequence of requests."""

    def __init__(self):
        self.latencies = []  # as reported (scaled, for in-process requests)
        self.raw = []  # as measured
        self.by_command: dict[str, list] = {}
        self.failures = []
        self.digest_out = hashlib.sha256()
        self.digest_cert = hashlib.sha256()

    def throughput(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_request(executor, req, index: int, tally: Tally, digest: bool) -> None:
    for name, text in req.files.items():
        (WORK / name).write_text(text)
    out = WORK / req.argv[req.argv.index("--out") + 1] if "--out" in req.argv else None
    if out is not None:
        out.unlink(missing_ok=True)
    if req.mutate is not None:
        cert = WORK / "cert.json"
        cert.write_text(req.mutate(cert.read_text()))
    argv = [str(WORK / a) if a in FILES else a for a in req.argv]
    (code, error), elapsed, latency = executor.run(argv)
    tally.raw.append(elapsed)
    tally.latencies.append(latency)
    tally.by_command.setdefault(req.command, []).append(latency)
    payload = raw = None
    if out is not None and out.exists():
        raw = out.read_bytes()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            error = error or "--out is not valid JSON"
    if error is None:
        try:
            error = req.check(code, payload)
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            error = f"malformed payload ({type(exc).__name__}: {exc})"
    if error is not None:
        tally.failures.append(f"#{index} {req.command}: {error}")
    if digest and raw is not None:
        target = tally.digest_out if req.deterministic else tally.digest_cert
        target.update(f"{index}:{req.command}:".encode() + raw)


def run_cycles(executor, make_cycle, seed, tally, deadline, seconds=0.0, min_samples=0, count=None) -> int:
    """Whole cycles until `seconds` and `min_samples` are both reached, or `count` cycles."""
    start = time.perf_counter()
    k = 0
    while True:
        for i, req in enumerate(make_cycle(random.Random(f"{seed}:{k}"))):
            if time.perf_counter() > deadline:
                return k
            run_request(executor, req, i, tally, digest=(k == 0))
        k += 1
        if count is not None:
            if k >= count:
                return k
        elif time.perf_counter() - start >= seconds and len(tally.latencies) >= min_samples:
            return k


# -- reporting --------------------------------------------------------------------------------


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def git_sha() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_rps"):
        return "1/s"
    return "count"


# -- main -------------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uhfree" / "cli.py").is_file():
        print(f"error: no uhfree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import uhfree

    if SRC not in Path(uhfree.__file__).resolve().parents:
        print(f"error: uhfree imported from {uhfree.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    WORK.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    make_cycle, shapes = gen.WORKLOADS[args.workload]
    cold = args.workload == "cli-cold"
    try:
        setup_s = measure_setup(shapes)
        speed = None if cold else Speed()
        tally = Tally()
        executor = Cold() if cold else InProcess(speed)
        if args.trace:
            cycles = run_cycles(executor, make_cycle, args.seed, tally, deadline, seconds=args.seconds / 2)
        else:
            cycles = run_cycles(
                executor, make_cycle, args.seed, tally, deadline, seconds=args.seconds, min_samples=MIN_SAMPLES
            )
        tail = hd_quantile(tally.latencies, TAIL_PERCENTILE / 100)
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "cycles": cycles,
            "samples": len(tally.latencies),
            "tail_percentile": TAIL_PERCENTILE,
            "tail_samples_beyond": sum(1 for v in tally.latencies if v > tail),
            "digest_out": tally.digest_out.hexdigest(),
            "digest_cert": tally.digest_cert.hexdigest(),
            "raw_throughput_rps": len(tally.raw) / sum(tally.raw),
            "raw_latency_p50_ms": 1000 * hd_quantile(tally.raw, 0.5),
            "speed_factor": speed.factor() if speed else None,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
        }
        if args.trace:
            metrics, traced = traced_metrics(args, speed, make_cycle, deadline, tally)
            info["traced_samples"] = len(traced.latencies)
            tally.latencies += traced.latencies
            tally.failures += traced.failures
        else:
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "throughput_rps": metric(tally.throughput(), "1/s"),
                "latency_p50_ms": metric(1000 * hd_quantile(tally.latencies, 0.5), "ms"),
                "latency_tail_ms": metric(1000 * tail, "ms"),
                "peak_rss_mb": metric(peak_rss_mb(children=cold), "MB"),
            }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    attempted, failed = len(tally.latencies), len(tally.failures)
    info["error_rate"] = failed / attempted
    info["failures"] = tally.failures[:10]
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def traced_metrics(args, speed, make_cycle, deadline, untraced: Tally):
    """Trace the first cycle again; returns the per-layer metrics and the traced tally.

    In-process self times are scaled by the median speed factor of the
    traced cycle; cli-cold ones (speed None) are reported as measured.
    """
    startup_ms = measure_startup()
    traced = Tally()
    if speed is None:
        trace_dir = WORK / "trace"
        trace_dir.mkdir()
        executor = Cold(trace_dir)
        run_cycles(executor, make_cycle, args.seed, traced, deadline, count=1)
        summaries = executor.summaries
        scale = 1.0
    else:
        first_reading = len(speed.readings)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_cycles(InProcess(speed, tracer), make_cycle, args.seed, traced, deadline, count=1)
        finally:
            tracer.uninstall()
        summaries = [tracer.export()]
        write_spans(args, tracer.spans)
        scale = speed.factor(since=first_reading)
    values = tracing.layer_metrics(tracing.merge(summaries), scale=scale)
    values["cli.startup_ms"] = startup_ms
    for command in SUBCOMMANDS:
        walls = untraced.by_command.get(command)
        values[f"cli.{command}.wall_ms"] = 1000 * statistics.median(walls) if walls else 0.0
    values["trace.throughput_rps"] = traced.throughput()
    values["trace.overhead_ratio"] = untraced.throughput() / traced.throughput()
    return {name: metric(v, unit_of(name)) for name, v in values.items()}, traced


def write_spans(args, spans) -> None:
    """Keep the raw spans of a traced in-process run for inspection."""
    TRACE_OUT.mkdir(exist_ok=True)
    path = TRACE_OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
