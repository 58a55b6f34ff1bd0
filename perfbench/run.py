"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table2-512 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload in turn, seed 0

Both modes time untraced passes of the workload for ``--seconds`` seconds
(at least one).  ``--trace 0`` prints every end-to-end metric; ``--trace
1`` then runs the same inputs once more, traced, and prints every
per-layer metric plus the tracing overhead.  Both check the results against the pinned references
(``references.json``, for the default seed) and against invariants that
hold on every seed.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when the results are correct.

Runs are hermetic: every ``XSIM_*`` variable is removed from the
environment, caches live in a private directory under ``.perfbench/``,
and each run leaves a record (host fingerprint, metrics, digests and,
when traced, the span file) in ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
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
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCES = Path(__file__).resolve().parent / "references.json"
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 5
IMPORT_PROBE = "import repro.run, repro.explore, repro.cache"


def hermetic_environment() -> None:
    """Drop every XSIM_* switch and put the checkout's sources first."""
    for key in [k for k in os.environ if k.startswith("XSIM_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def fingerprint(digests: list[str]) -> dict:
    """Host and source facts recorded with every run."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "result_digest": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def time_setup(workload) -> float:
    """One set-up: a fresh interpreter importing the library, then the
    workload's inputs built from the seed."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True)
    workload.prepare()
    return perf_counter() - t0


class Session:
    """The passes of one run with their problems and failed operations."""

    def __init__(self, workload):
        self.workload = workload
        self.results: list = []
        self.problems: list[str] = []
        self.failed = 0
        self.attempted = 0

    def run_pass(self):
        """One pass, or ``None`` when it raised (a failed operation)."""
        try:
            return self.workload.run_pass()
        except Exception as exc:  # noqa: BLE001 - reported as a failed pass
            traceback.print_exc()
            self.problems.append(f"pass raised {type(exc).__name__}: {exc}")
            self.failed += 1
            self.attempted += 1
            return None

    def check(self, result) -> None:
        self.problems.extend(self.workload.check(result))
        self.failed += result.failed
        self.attempted += result.cells
        self.results.append(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hermetic_environment()
    import repro.cache  # noqa: F401 - fail before any output without sources
    import repro.explore  # noqa: F401
    import repro.run  # noqa: F401

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        parser.error(f"the library must come from {SRC}, not {repro.__file__}")
    import metrics
    import workloads

    if args.workload == "all":
        failures = 0
        for name in workloads.WORKLOADS:
            proc = subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ])
            failures += proc.returncode != 0
        return 1 if failures else 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from all, {', '.join(workloads.WORKLOADS)})")
    refs = json.loads(REFERENCES.read_text())
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        return _run(args, refs, scratch, metrics, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, refs, scratch: Path, metrics, workloads) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, refs[args.workload], scratch)
    setup_s = statistics.median(time_setup(workload) for _ in range(SETUP_REPEATS))
    session = Session(workload)
    if hasattr(workload, "fill"):
        t0 = perf_counter()
        fill_problems, fill_failed = workload.fill()
        setup_s += perf_counter() - t0
        session.problems.extend(fill_problems)
        session.failed += fill_failed
    metric_values: dict[str, float] = {}
    try:
        measured = 0.0
        while not session.results or measured < args.seconds:
            result = session.run_pass()
            if result is None:
                break
            session.check(result)
            measured += result.wall_s
        results = session.results
        if results and args.trace:
            metric_values = _traced(session, scratch, metrics, args, workloads.JOBS)
        elif results:
            metric_values = {
                "setup_s": setup_s,
                "sim_s_per_s": statistics.median(r.sim_s / r.wall_s for r in results),
                "peak_rss_mb": peak_rss_mb(),
            }
    finally:
        if hasattr(workload, "close"):
            workload.close()

    results, problems = session.results, session.problems
    # Every pass of one seed (traced or not) must reproduce the same results.
    if any(r.digests != results[0].digests for r in results[1:]):
        problems.append("result digests differ between passes of one seed")
    correct = not problems and bool(results)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(results),
        "fingerprint": fingerprint(results[0].digests if results else []),
        "digests": results[0].digests if results else [],
        "problems": problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metric_values,
    }
    record_path = OUT / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    )
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    _report(args, workload, results, record, metrics)
    units = {n: u for n, u, *_ in metrics.END_TO_END + metrics.PER_LAYER}
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, session.attempted),
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metric_values.items()},
    }))
    return 0 if correct else 1


def _traced(session: Session, scratch: Path, metrics, args, jobs: int) -> dict[str, float]:
    """The same inputs once more, traced; per-layer metrics and the
    overhead against the median untraced pass."""
    from tracing import Tracer, install

    untraced_s = statistics.median(r.wall_s for r in session.results)
    tracer = Tracer(scratch / "spool")
    uninstall = install(tracer)
    try:
        traced = session.run_pass()
    finally:
        uninstall()
    if traced is None:
        return {}
    tracer.collect()
    session.check(traced)
    spans_path = OUT / "runs" / f"{args.workload}-seed{args.seed}-spans-{os.getpid()}.jsonl"
    tracer.write_spans(spans_path)
    values = metrics.per_layer(tracer, traced.facts, jobs)
    values["trace.overhead_s"] = traced.wall_s - untraced_s
    print(f"tracing overhead: traced {traced.wall_s:.3f} s - untraced median "
          f"{untraced_s:.3f} s = {values['trace.overhead_s']:+.3f} s; "
          f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    return values


def _report(args, workload, results, record, metrics) -> None:
    """Human-readable lines before the JSON result line."""
    fp = record["fingerprint"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {record['passes']}")
    print(f"host: {fp['cpus']} CPUs, Python {fp['python']}, commit {fp['commit']}, "
          f"source sha256 {fp['source_sha256'][:16]}, results sha256 "
          f"{fp['result_digest'][:16]}")
    for digest in record["digests"]:
        print(f"  digest {digest}")
    if results:
        for line in workload.info(results[0]):
            print(f"  {line}")
    for r in results:
        print(f"  pass: wall {r.wall_s:.3f} s, {r.cells} cells, {r.cells / r.wall_s:.2f} cells/s")
    attempted = record["attempted"]
    print(f"attempted {attempted}, failed {record['failed']}, error_rate "
          f"{record['failed'] / attempted if attempted else 0.0:.4f}")
    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")
    units = {n: u for n, u, *_ in metrics.END_TO_END + metrics.PER_LAYER}
    for name, value in record["metrics"].items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
