"""Tests of the benchmark itself: metric names and units, the reference
checks, the tracer, and the failure modes of ``run.py``.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
REFS = json.loads((HERE / "references.json").read_text())


def test_benchmark_json_is_generated_from_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == metrics.benchmark_json()


def test_metric_names_units_and_bounds():
    doc = metrics.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in doc["workloads"]]
    assert names == ["table2-512", "e1-32k", "explore-cold", "explore-warm"]
    assert names == list(workloads.WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    all_names = names + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    assert len(set(all_names)) == len(all_names)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert max(m["bound"] for m in doc["end_to_end"]) == setup[0]["bound"]


def test_per_layer_computes_every_listed_metric(tmp_path):
    tracer = Tracer(tmp_path)
    values = metrics.per_layer(tracer, {}, jobs=2)
    values["trace.overhead_s"] = 0.0
    assert list(values) == [name for name, *_ in metrics.PER_LAYER]


def test_tail_percentile():
    assert metrics.tail([]) == 0.0
    assert metrics.tail([1.0, 3.0, 2.0]) == 3.0  # too few samples: the maximum
    values = [float(i) for i in range(1, 101)]  # 100 samples: p90 has 10 beyond
    assert 89.0 < metrics.tail(values) < 92.0


# ----------------------------------------------------------------------
# reference checks
# ----------------------------------------------------------------------
def _table2_pass(refs: dict) -> tuple[workloads.Table2, workloads.PassResult]:
    """A Table2 workload and a pass result rebuilt from the pinned rows
    (every replica repeats replica 0, which satisfies the invariants)."""
    t = workloads.Table2(refs["seed"], refs, Path("."))
    t.prepare()
    pinned = {(r["mttf"], r["interval"]): r for r in REFS["table2-512"]["rows"]}
    summaries = []
    for mttf, c, _ in t.rows:
        row = pinned[(mttf, c)]
        s = {"completed": True, "result_digest": row["digest"]}
        if mttf is None:
            s.update(exit_time=row["e1"])
        else:
            s.update(e2=row["e2"], exit_time=row["e2"], failures=row["f"],
                     restarts=row["f"], mttf_a=row["mttf_a"])
        summaries.append(s)
    return t, workloads.PassResult(1.0, len(summaries), 1.0, [], facts={"summaries": summaries})


def test_table2_reference_check_passes_and_fails_on_tamper():
    refs = json.loads(json.dumps(REFS["table2-512"]))
    t, result = _table2_pass(refs)
    assert t.check(result) == []
    refs["rows"][6]["digest"] = "0" * 64
    problems = t.check(result)
    assert problems and "digest" in problems[0]


def test_table2_invariant_mttf_a():
    t, result = _table2_pass(REFS["table2-512"])
    result.facts["summaries"][4]["mttf_a"] += 1.0
    assert any("MTTF_a" in p for p in t.check(result))


def test_e1_reference_check_fails_on_tamper():
    refs = dict(REFS["e1-32k"])
    facts = {k: refs[k] for k in ("events", "messages", "bytes")}
    facts.update(exit_time=refs["exit_time"], completed=True)
    w = workloads.E1Paper(7, refs, Path("."))
    result = workloads.PassResult(1.0, 1, 1.0, [refs["digest"]], facts=facts)
    assert w.check(result) == []
    refs["digest"] = "f" + refs["digest"][1:]
    assert w.check(result) == ["e1-32k digest " + REFS["e1-32k"]["digest"][:16] + " != pinned"]


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_tracer_self_time_and_generators(tmp_path):
    tracer = Tracer(tmp_path)

    def inner():
        return 3

    def gen(n):
        for _ in range(n):
            yield tracer_inner()

    tracer_inner = tracer.wrap(inner, "inner")
    traced_gen = tracer.wrap(gen, "gen")

    def driver():
        return (yield from traced_gen(4))

    outer = tracer.wrap(lambda: list(driver()), "outer")
    assert outer() == [3, 3, 3, 3]
    assert tracer.calls("inner") == 4 and tracer.calls("gen") == 1
    assert tracer.calls("outer") == 1
    # Self time excludes nested traced time.
    assert tracer.self_s("outer") <= tracer.total_s("outer") - tracer.total_s("gen") + 1e-9
    assert tracer.self_s("gen") <= tracer.total_s("gen") - tracer.total_s("inner") + 1e-9


# ----------------------------------------------------------------------
# run.py end to end
# ----------------------------------------------------------------------
def _copy_benchmark(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def _run(root: Path, workload: str, seconds: str = "0.1") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def test_run_without_sources_fails_without_result(tmp_path):
    proc = _run(_copy_benchmark(tmp_path, with_sources=False), "explore-warm")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tampered_reference_digest_fails_the_run(tmp_path):
    root = _copy_benchmark(tmp_path, with_sources=True)
    refs_path = root / "perfbench" / "references.json"
    refs = json.loads(refs_path.read_text())
    refs["explore-warm"]["baseline_digests"]["ckpt"] = "0" * 64
    refs_path.write_text(json.dumps(refs))
    proc = _run(root, "explore-warm")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "FAILED CHECK: explore ckpt baseline digest" in proc.stdout


def test_untampered_run_is_correct(tmp_path):
    proc = _run(_copy_benchmark(tmp_path, with_sources=True), "explore-warm")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, *_ in metrics.END_TO_END}
    for name, unit, *_ in metrics.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
