#!/usr/bin/env python3
"""relent's benchmark: four seeded workloads, end-to-end metrics and per-layer spans.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # every workload, one table

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's metadata,
sample counts and any failures. See perfbench/README.md.
"""

import os

#: BLAS threads are fixed before numpy loads, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "relent" / "__init__.py").is_file():
    sys.exit(f"no relent sources under {SRC}; run from the root of a source checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

from relent import cli, coherence, errors, scenario, solver  # noqa: E402

NULL = tracing.NullTracer()

#: Fresh-interpreter imports timed for setup_s (after one untimed launch
#: that warms the file and bytecode caches), and builds of the library objects.
IMPORT_LAUNCHES = 5
BUILD_REPEATS = 3
CHILD_TIMEOUT_S = 90.0

METHODS = ("no_op", "jeffrey", "conditionalization", "dual_newton", "infeasible")


@dataclass
class Answer:
    """What one operation returned, reduced to what the oracle checks."""

    method: str
    iterations: int = 0
    posterior: object = None
    text: str = ""  # must repeat byte for byte for the same item
    error: BaseException | None = None
    admissible: bool | None = None
    dominating: tuple | None = None


@dataclass
class Record:
    pass_no: int
    index: int
    latency: float  # wall time of the call, less any kernel samples taken in it
    answer: Answer
    first_span: int = 0
    failed: bool = False


# ---------------------------------------------------------------------------
# Operations (each times nothing itself; spans are no-ops when untraced)
# ---------------------------------------------------------------------------


def doc_op(item, tr) -> Answer:
    """The CLI path in process: parse, update, render the report and the queries."""
    with tr.span("scenario.parse"):
        sc = scenario.parse(item.text)
    try:
        with tr.span("solver.update"):
            report = solver.maxent_update(sc.prior, sc.constraints)
    except errors.InfeasibleConstraint as e:
        return Answer("infeasible", text=f"infeasible\ncertificate: {e}\n", error=e)
    with tr.span("scenario.emit_report"):
        text = scenario.emit_report(report)
    if sc.queries:
        with tr.span("scenario.run_queries"):
            text += "\n".join(scenario.run_queries(report.posterior, sc.queries)) + "\n"
    return Answer(report.method, report.iterations, report.posterior.array, text)


def library_op(item, tr) -> Answer:
    """maxent_update on prebuilt objects; the report's numbers must repeat exactly."""
    with tr.span("solver.update"):
        report = solver.maxent_update(*item.objects)
    p = report.posterior.array
    digest = hashlib.sha256(p.tobytes()).hexdigest()
    text = repr((report.multipliers, report.final_residual, report.objective, digest))
    return Answer(report.method, report.iterations, p, text)


def audit_op(item, tr) -> Answer:
    """Audit a forecast book and render the verdict with its per-world losses."""
    with tr.span("coherence.audit"):
        verdict = coherence.audit_admissibility(item.objects)
    with tr.span("scenario.emit_report"):
        text = scenario.emit_report(verdict, system=item.objects)
    return Answer("admissible" if verdict.admissible else "dominated", text=text,
                  admissible=verdict.admissible, dominating=verdict.dominating)


OPS = {"doc": doc_op, "library": library_op, "audit": audit_op}


def closed_loop(workload, tr, seconds: float, min_passes: int,
                clock: speed.Stopwatch) -> tuple[list[Record], float]:
    """One client: whole passes over the pool until ``seconds`` have gone by.

    ``clock`` times each operation; a :class:`speed.Speedometer` also
    runs the reference kernel around and during each one.
    """
    op = OPS[workload.kind]
    spans = tr.spans
    records: list[Record] = []
    gc.collect()
    t0 = perf_counter()
    passes = 0
    with clock:
        while passes < min_passes or perf_counter() - t0 < seconds:
            for index, item in enumerate(workload.items):
                first_span = len(spans)
                with clock.op():
                    try:
                        answer = op(item, tr)
                    except Exception as e:  # a failed operation; the oracle counts it
                        answer = Answer("error", error=e)
                records.append(Record(passes, index, clock.times[-1], answer, first_span))
            tr.end_pass()
            passes += 1
    return records, perf_counter() - t0


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def judge(workload, records: list[Record]) -> list[str]:
    """Oracle verdict on every record, plus byte-identity of repeated items."""
    failures = []
    first_text: dict[int, str] = {}
    for rec in records:
        item = workload.items[rec.index]
        a = rec.answer
        if workload.kind == "audit":
            problems = ([f"audit failed: {a.error!r}"] if a.error is not None else
                        oracle.check_book(item, a.admissible, a.dominating))
        else:
            problems = oracle.check_update(item, a.posterior, a.error)
        if a.error is None or a.method == "infeasible":
            if first_text.setdefault(rec.index, a.text) != a.text:
                problems.append("report differs from the first run of the same item")
        failures += [f"item {rec.index} pass {rec.pass_no}: {p}" for p in problems]
        rec.failed = bool(problems)
    return failures


def per_pass(workload, records: list[Record], tr) -> list[dict]:
    """Exact counts of each complete pass: methods, iterations, report bytes, spans."""
    passes: dict[int, dict] = {}
    for rec in records:
        c = passes.setdefault(rec.pass_no, {"iterations": 0, "report_bytes": 0,
                                            **{f"method.{m}": 0 for m in METHODS}})
        c["iterations"] += rec.answer.iterations
        if workload.kind != "library":
            c["report_bytes"] += len(rec.answer.text.encode())
        if rec.answer.method in METHODS:
            c[f"method.{rec.answer.method}"] += 1
    out = [passes[k] for k in sorted(passes)]
    for c, spans in zip(out, tr.pass_counts):
        c.update({f"calls.{k}": v for k, v in sorted(spans.items())})
    return out


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


#: A child process: ``{imports}``, then ``{body}`` with the reference
#: kernel sampled (speed.py); then, on stderr, when the body ran, the
#: samples, and the process's own peak RSS (VmHWM). ru_maxrss would not
#: do: on Linux a child's ru_maxrss includes the parent's peak at the time
#: of exec. The first argument is the directory of speed.py.
CHILD = """import json, sys
from time import perf_counter
sys.path.insert(0, sys.argv.pop(1))
import speed
{imports}
with speed.Sampler() as sampler:
    t0 = perf_counter()
    sampler.arm()
    {body}
    t1, paused, samples = sampler.disarm()
sys.stdout.flush()
sys.stderr.write(json.dumps({{"t0": t0, "t1": t1, "paused_s": paused, "samples": samples}}) + "\\n")
sys.stderr.write(next(ln for ln in open("/proc/self/status") if ln.startswith("VmHWM:")))
sys.exit(code)
"""
#: What a fresh interpreter does for setup_s, and what the installed
#: ``relent`` script runs.
IMPORT_CHILD = CHILD.format(imports="import relent.cli", body="code = 0")
CLI_CHILD = CHILD.format(imports="from relent.cli import main", body="code = main(sys.argv[1:])")


def launch(argv: list[str], out: Path, err: Path) -> tuple[float, float, int]:
    """Run a child with stdout and stderr to files; return (start, end, exit code).

    The wait blocks in waitpid: a wait with a timeout polls with sleeps of
    up to 50 ms, which would round every wall time up to that grid. A
    timer kills a child that outlives ``CHILD_TIMEOUT_S``.
    """
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=_child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        return start, perf_counter(), code


def reference_launch(meter: speed.LaunchMeter, out: Path, err: Path) -> None:
    start, end, _ = launch([sys.executable, "-c", speed.REF_LAUNCH_CODE], out, err)
    meter.reference(end - start)


def launch_child(meter: speed.LaunchMeter, code: str, args: list[str],
                 out: Path, err: Path) -> tuple[int, float | None]:
    """Run a reference launch, then a CHILD, and record the child in
    ``meter``; return (exit code, peak RSS in MB or None)."""
    reference_launch(meter, out, err)
    here = str(Path(__file__).resolve().parent)
    start, end, exit_code = launch([sys.executable, "-c", code, here, *args], out, err)
    tail = err.read_text().splitlines()[-2:]
    if len(tail) == 2 and tail[1].startswith("VmHWM:"):
        timing, rss = json.loads(tail[0]), int(tail[1].split()[1]) / 1024.0
    else:
        timing, rss = {"t0": end, "t1": end, "paused_s": 0.0, "samples": []}, None
    meter.add(start, end, timing)
    return exit_code, rss


def import_time(tmp: Path) -> tuple[float, float]:
    """Median time of a fresh interpreter importing relent.cli: (scaled, raw)."""
    out, err = tmp / "import.out", tmp / "import.err"
    launch([sys.executable, "-c", "import relent.cli"], out, err)
    with speed.LaunchMeter() as meter:
        for _ in range(IMPORT_LAUNCHES):
            code, _ = launch_child(meter, IMPORT_CHILD, [], out, err)
            if code != 0:
                raise RuntimeError("importing relent.cli failed in a fresh interpreter")
        reference_launch(meter, out, err)
    return statistics.median(meter.all_scaled()), statistics.median(meter.times)


def build_time(workload) -> tuple[float, float]:
    """Median time to build the workload's library objects: (scaled, raw); 0 without any."""
    if workload.build is None:
        return 0.0, 0.0
    with speed.Speedometer() as meter:
        for _ in range(BUILD_REPEATS):
            with meter.op():
                workload.build()
    return statistics.median(meter.all_scaled()), statistics.median(meter.times)


def cli_documents(workload, records, tmp: Path) -> list[tuple[str, Path, str, int]]:
    """(subcommand, file, expected stdout, expected exit code) for each CLI document."""
    texts = {rec.index: rec.answer.text for rec in records if workload.kind != "library"}
    docs = []
    for k, (command, index) in enumerate(workload.cli):
        item = workload.items[index]
        path = tmp / f"doc{k}.json"
        path.write_text(item.text, encoding="utf-8")
        if workload.kind == "library":
            answer = doc_op(item, NULL)
            problems = oracle.check_update(item, answer.posterior, answer.error)
            if problems:
                raise RuntimeError(f"reference run of CLI document {k} failed: {problems}")
            expected = answer.text
        else:
            expected = texts[index]
        ok = item.admissible if command == "audit" else item.expect != "infeasible"
        docs.append((command, path, expected, 0 if ok else 2))
    return docs


def run_cli(workload, docs, tmp: Path) -> tuple[float, float, list[float], list[str], int]:
    """Launch ``relent <command> <file>`` on each document; check stdout and exit code.

    Returns the mean over documents of each one's median wall time
    (scaled, then raw), peak RSS in MB, failures and the launch count.
    """
    out, err = tmp / "cli.out", tmp / "cli.err"
    order, rss, failures = [], [], []
    with speed.LaunchMeter() as meter:
        for rep in range(workload.cli_repeats):
            for k, (command, path, expected, code) in enumerate(docs):
                got, peak = launch_child(meter, CLI_CHILD, [command, str(path)], out, err)
                if peak is None:
                    failures.append(f"CLI document {k} launch {rep}: no timing or peak RSS")
                else:
                    rss.append(peak)
                order.append(k)
                if got != code:
                    failures.append(f"CLI document {k} launch {rep}: exit {got}, expected {code}")
                elif out.read_bytes() != expected.encode():
                    failures.append(f"CLI document {k} launch {rep}: stdout differs from the library")
        reference_launch(meter, out, err)

    def per_doc(times: list[float]) -> float:
        return statistics.fmean(
            statistics.median(t for k, t in zip(order, times) if k == doc) for doc in range(len(docs)))

    return per_doc(meter.all_scaled()), per_doc(meter.times), rss, failures, len(order)


def cli_in_process(docs) -> tuple[float, list[str]]:
    """Median time of relent.cli.main in this process, stdout and stderr captured."""
    times, failures = [], []
    for k, (command, path, expected, code) in enumerate(docs):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            got = cli.main([command, str(path)])
            times.append(perf_counter() - start)
        if got != code or captured.getvalue() != expected:
            failures.append(f"in-process CLI on document {k} disagrees with the library")
    return statistics.median(times), failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def warm_up(workload) -> None:
    """One untimed pass over prebuilt library objects, so that their lazily
    cached arrays are filled before timing; documents are parsed afresh by
    every operation and need none."""
    if workload.build is not None:
        closed_loop(workload, NULL, 0.0, 1, speed.Stopwatch())


def end_to_end(args, workload, tmp: Path) -> tuple[dict, dict, list[str], int, int]:
    """End-to-end metrics; every time is in seconds at reference speed (speed.py)."""
    speed.warm()
    import_s, import_raw = import_time(tmp)
    build_s, build_raw = build_time(workload)
    warm_up(workload)
    meter = speed.Speedometer()
    records, wall = closed_loop(workload, NULL, args.seconds, 1, meter)
    failures = judge(workload, records)
    docs = cli_documents(workload, records, tmp)
    cli_s, cli_raw, rss, cli_failures, launches = run_cli(workload, docs, tmp)
    lat = meter.all_scaled()
    raw = [r.latency for r in records]
    metrics = {
        "setup_s": _metric(import_s + build_s, "s"),
        "latency_p50_s": _metric(statistics.median(lat), "s"),
        "latency_p90_s": _metric(float(numpy.percentile(lat, 90)), "s"),
        "ops_per_s": _metric(len(lat) / sum(lat), "1/s"),
        "cli_wall_s": _metric(cli_s, "s"),
        "peak_rss_mb": _metric(statistics.median(rss) if rss else 0.0, "MB"),
    }
    samples = {"operations": len(records), "passes": records[-1].pass_no + 1,
               "loop_wall_s": wall, "import_launches": IMPORT_LAUNCHES,
               "cli_launches": launches, "p90_samples_beyond": len(lat) - int(0.9 * len(lat)),
               "kernel_median_s": meter.kernel_median_s(),
               "raw": {"setup_s": import_raw + build_raw,
                       "latency_p50_s": statistics.median(raw),
                       "latency_p90_s": float(numpy.percentile(raw, 90)),
                       "ops_per_s": len(raw) / sum(raw),
                       "cli_wall_s": cli_raw}}
    failed = sum(r.failed for r in records) + len(cli_failures)
    return metrics, samples, failures + cli_failures, len(records) + launches, failed


#: Per-layer metrics that need a wrapper, by the span the wrapper records.
NEEDS_SPAN = {
    "scenario.json_decode_s": "scenario.json_decode",
    "scenario.parse_over_json": "scenario.json_decode",
    "spaces.from_array_s": "spaces.from_array",
    "spaces.from_array_calls": "spaces.from_array",
    "constraints.compile_s": "constraints.compile",
    "constraints.compile_calls": "constraints.compile",
    "constraints.triage_s": "constraints.triage",
    "constraints.residual_s": "constraints.residual",
    "constraints.residual_calls": "constraints.residual",
    "information.relative_entropy_s": "information.relative_entropy",
    "coherence.world_valuations_s": "coherence.world_valuations",
    "coherence.quadratic_loss_calls": "coherence.quadratic_loss",
}


def yardstick_times(workload, records, tr) -> tuple[float, float, int]:
    """Mean yardstick time, mean solver.update time and yardstick steps per pass,
    over the traced dual Newton operations of unpinned feasible items."""
    spans = tr.spans
    ours, theirs, steps = [], [], 0
    for rec in records:
        item = workload.items[rec.index]
        if rec.answer.method != "dual_newton" or item.pinned:
            continue
        live = item.prior > 0.0
        q = item.prior[live] / item.prior[live].sum()
        A = numpy.ascontiguousarray(item.A[:, live])
        start = perf_counter()
        _, iterations = yardstick.newton(q, A, item.b)
        theirs.append(perf_counter() - start)
        if rec.pass_no == 0:
            steps += iterations
        update = next(s for s in itertools.islice(spans, rec.first_span, None)
                      if s[0] == "solver.update")
        ours.append(update[2] - update[1])
    if not theirs:
        return 0.0, 0.0, 0
    return statistics.fmean(theirs), statistics.fmean(ours), steps


def per_layer(args, workload, tmp: Path) -> tuple[dict, dict, list[str], int, int]:
    if workload.build is not None:
        workload.build()
    warm_up(workload)
    plain, plain_wall = closed_loop(workload, NULL, args.seconds / 2, 1, speed.Stopwatch())
    tr = tracing.Tracer()
    with tracing.installed(tr) as absent:
        records, wall = closed_loop(workload, tr, args.seconds / 2, 2, speed.Stopwatch())
    failures = judge(workload, plain + records)
    counts = per_pass(workload, records, tr)
    if any(c != counts[0] for c in counts[1:]):
        failures.append("exact counts differ between passes of the same inputs")
    docs = cli_documents(workload, plain, tmp)
    cli_s, cli_failures = cli_in_process(docs)
    yard_s, solver_s, yard_steps = yardstick_times(workload, records, tr)

    n = len(records)
    first = counts[0]
    calls = lambda name: first.get(f"calls.{name}", 0)  # noqa: E731
    per_op = lambda *names: tr.total(*names) / n  # noqa: E731
    decode, parse = per_op("scenario.json_decode"), per_op("scenario.parse")
    plain_mean = plain_wall / len(plain)
    values = {
        "scenario.json_decode_s": (decode, "s"),
        "scenario.parse_s": (parse, "s"),
        "scenario.parse_over_json": (parse / decode if decode else 0.0, "ratio"),
        "scenario.emit_report_s": (per_op("scenario.emit_report"), "s"),
        "scenario.run_queries_s": (per_op("scenario.run_queries"), "s"),
        "scenario.report_bytes": (first["report_bytes"], "bytes"),
        "spaces.from_array_s": (per_op("spaces.from_array"), "s"),
        "spaces.from_array_calls": (calls("spaces.from_array"), "count"),
        "constraints.compile_s": (per_op("constraints.compile_all", "constraints.compile"), "s"),
        "constraints.compile_calls": (calls("constraints.compile"), "count"),
        "constraints.triage_s": (per_op("constraints.triage"), "s"),
        "constraints.residual_s": (per_op("constraints.residual"), "s"),
        "constraints.residual_calls": (calls("constraints.residual"), "count"),
        "solver.update_s": (per_op("solver.update"), "s"),
        "solver.self_s": (tr.self_time("solver.update") / n, "s"),
        "solver.iterations": (first["iterations"], "count"),
        **{f"solver.method.{m}": (first[f"method.{m}"], "count") for m in METHODS},
        "yardstick.newton_s": (yard_s, "s"),
        "yardstick.iterations": (yard_steps, "count"),
        "solver.over_yardstick": (solver_s / yard_s if yard_s else 0.0, "ratio"),
        "information.relative_entropy_s": (per_op("information.relative_entropy"), "s"),
        "coherence.audit_s": (per_op("coherence.audit"), "s"),
        "coherence.self_s": (tr.self_time("coherence.audit") / n, "s"),
        "coherence.world_valuations_s": (per_op("coherence.world_valuations"), "s"),
        "coherence.quadratic_loss_calls": (calls("coherence.quadratic_loss"), "count"),
        "cli.main_s": (cli_s, "s"),
        "trace.overhead_s": (wall / n - plain_mean, "s"),
    }
    metrics = {k: _metric(v, unit) for k, (v, unit) in values.items()
               if NEEDS_SPAN.get(k) not in absent}
    samples = {"untraced_operations": len(plain), "traced_operations": n,
               "traced_passes": len(counts), "untraced_mean_s": plain_mean,
               "absent": sorted(k for k in values if NEEDS_SPAN.get(k) in absent),
               "exact_counts_per_pass": first}
    failed = sum(r.failed for r in plain + records) + len(cli_failures)
    return metrics, samples, failures + cli_failures, len(plain) + n + len(docs), failed


# ---------------------------------------------------------------------------
# Metadata and entry point
# ---------------------------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, the highest allowed.

    The reference kernel then times the same CPU the operations and the
    CLI children run on: on a shared host, two CPUs of one machine can
    run at different speeds at the same moment.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def metadata(args, nproc: int, pinned: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
            ).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "relent").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas, "blas_threads": BLAS_THREADS, "nproc": nproc,
        "pinned_cpu": pinned,
        "cpu_model": cpu, "git_commit": commit, "source_sha256": source.hexdigest(),
        "clients": 1, "loop": "closed",
    }


def run_all(args) -> int:
    """Run every workload in its own process and print one table of metrics."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"== {name}")
        rate = res["failed"] / res["attempted"]
        rows = [(k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
        for key, value, unit in rows + [("error_rate", rate, "ratio")]:
            print(f"  {key:34s} {value:14.6g} {unit}")
        print(f"  {'attempted/failed':34s} {res['attempted']:>8d} / {res['failed']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    nproc = len(os.sched_getaffinity(0))
    pinned = pin_to_one_cpu()

    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, samples, failures, attempted, failed = measure(args, workload, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"{args.workload} {key} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({"detail": {"meta": metadata(args, nproc, pinned), "samples": samples,
                                 "failures": failures[:20]}}))
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
