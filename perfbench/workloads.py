"""The four benchmark workloads and their correctness checks.

Every workload drives the library only through its public campaign entry
points (``run_cells``, ``run_scenario``, ``run_explore``) and a
``ResultCache`` on a private directory.  A workload object has:

* ``prepare()`` — build the inputs from the seed (timed as set-up);
* ``fill()`` — optional one-off set-up work (the warm cache fill),
  returning its problems and failed operations;
* ``run_pass()`` — one timed pass, returning a :class:`PassResult`;
* ``check(result)`` — failure messages against the pinned references
  (default seed) and the invariants (every seed).

All workloads are closed loops: a pass waits for its campaign to finish
before the next one starts.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
EXPLORE_SPEC = HERE / "explore_reference.toml"

#: Pool width for campaign workloads (the library's ``-j``).
JOBS = 2

#: Table II rows: (MTTF_s, C); fault-free E1 rows use these intervals.
TABLE2_E1_INTERVALS = (1000, 500, 250, 125)
TABLE2_CELLS = ((6000.0, 500), (6000.0, 250), (6000.0, 125),
                (3000.0, 500), (3000.0, 250), (3000.0, 125))
#: The calibrated row-seed offset that reproduces the paper's F column.
TABLE2_ROW_SEED_OFFSET = {(3000.0, 500): 5}


@dataclass
class PassResult:
    """What one timed pass produced."""

    wall_s: float
    #: Cells attempted in the pass (a single run counts as one cell).
    cells: int
    #: Simulated seconds the pass's results cover.
    sim_s: float
    #: Result digests, in a fixed order (compared across passes).
    digests: list[str]
    #: Operations that failed (raised cells, cache degradations).
    failed: int = 0
    #: Anything the checks need.
    facts: dict[str, Any] = field(default_factory=dict)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


# ----------------------------------------------------------------------
# table2-512
# ----------------------------------------------------------------------
class Table2:
    """The paper's Table II at 512 ranks through one ``run_cells``
    campaign, cache off: the 4 fault-free E1 cells plus the 6
    checkpoint/restart cells at each of ``REPLICAS`` failure-draw seeds.

    Replica ``r`` draws failures from ``seed + 1000 r`` (plus the
    calibrated row offset), so replica 0 of the default seed is the
    paper's table.  How many failures a draw activates sets how much the
    restart loop re-executes; several replicas per pass keep the work of
    a pass close to its expectation on every seed."""

    name = "table2-512"
    REPLICAS = 3

    def __init__(self, seed: int, refs: dict, scratch: Path):
        self.seed = seed
        self.refs = refs

    def prepare(self) -> None:
        from repro.run import Scenario

        base = Scenario(ranks=512, app="heat3d", iterations=1000)
        self.rows: list[tuple[float | None, int, int]] = [
            (None, c, 0) for c in TABLE2_E1_INTERVALS
        ] + [
            (mttf, c, r) for r in range(self.REPLICAS) for mttf, c in TABLE2_CELLS
        ]
        self.scenarios = [
            base.with_(interval=c) if mttf is None else base.with_(
                interval=c, mttf=mttf,
                seed=self.seed + 1000 * r + TABLE2_ROW_SEED_OFFSET.get((mttf, c), 0),
            )
            for mttf, c, r in self.rows
        ]
        # Dispatch the restart cells first: the slowest cell sets campaign
        # time, so the short fault-free cells fill in behind them.
        n_e1 = len(TABLE2_E1_INTERVALS)
        self.order = list(range(n_e1, len(self.rows))) + list(range(n_e1))

    def run_pass(self) -> PassResult:
        from repro.run.sweep import run_cells

        todo = [self.scenarios[i] for i in self.order]
        t0 = perf_counter()
        out = run_cells(todo, jobs=JOBS, cache=False, key_prefix="table2")
        wall = perf_counter() - t0
        summaries: list[dict] = [None] * len(out)  # type: ignore[list-item]
        for i, summary in zip(self.order, out):
            summaries[i] = summary
        return PassResult(
            wall_s=wall,
            cells=len(summaries),
            sim_s=sum(s.get("e2") or s["exit_time"] for s in summaries),
            digests=[s["result_digest"] for s in summaries],
            facts={"summaries": summaries},
        )

    def check(self, result: PassResult) -> list[str]:
        problems: list[str] = []
        refs = self.refs
        pinned = {(row["mttf"], row["interval"]): row for row in refs["rows"]}
        e1 = {}
        for (mttf, c, r), s in zip(self.rows, result.facts["summaries"]):
            label = f"table2 row (MTTF={mttf}, C={c}, replica {r})"
            ref = pinned[(mttf, c)]
            if not s["completed"]:
                problems.append(f"{label} did not complete")
            if mttf is None:
                e1[c] = s["exit_time"]
                # Fault-free rows do not depend on the failure-draw seed.
                if s["result_digest"] != ref["digest"]:
                    problems.append(f"{label} digest {s['result_digest'][:16]} != pinned")
                if s["exit_time"].hex() != ref["e1_hex"]:
                    problems.append(f"{label} E1 {s['exit_time']!r} != pinned")
                continue
            e2, f, mttf_a = s["e2"], s["failures"], s["mttf_a"]
            # MTTF_a = E2/(F+1); undefined when no failure activated.
            if (mttf_a is None) != (f == 0) or (f and not _close(mttf_a, e2 / (f + 1))):
                problems.append(f"{label} MTTF_a {mttf_a} != E2/(F+1) {e2 / (f + 1)}")
            if e2 < e1[c]:
                problems.append(f"{label} E2 {e2} < E1 {e1[c]}")
            if s["restarts"] != f:
                problems.append(f"{label} restarts {s['restarts']} != F {f}")
            if self.seed == refs["seed"] and r == 0:
                if s["result_digest"] != ref["digest"]:
                    problems.append(f"{label} digest {s['result_digest'][:16]} != pinned")
                if e2.hex() != ref["e2_hex"] or f != ref["f"]:
                    problems.append(f"{label} E2/F {e2!r}/{f} != pinned {ref['e2']}/{ref['f']}")
        return problems

    def info(self, result: PassResult) -> list[str]:
        """Drift of the current E2 column against EXPERIMENTS.md and the
        paper (information only, never a failure)."""
        if self.seed != self.refs["seed"]:
            return []
        pinned = {(row["mttf"], row["interval"]): row for row in self.refs["rows"]}
        lines = []
        for (mttf, c, r), s in zip(self.rows, result.facts["summaries"]):
            if mttf is None or r:
                continue
            ref = pinned[(mttf, c)]
            lines.append(
                f"E2 (MTTF={mttf:.0f}, C={c}): {s['e2']:,.0f} s; "
                f"EXPERIMENTS.md {ref['e2_experiments_md']:,} s "
                f"({s['e2'] - ref['e2_experiments_md']:+,.0f}); "
                f"paper {ref['e2_paper']:,} s ({s['e2'] - ref['e2_paper']:+,.0f})"
            )
        return lines


# ----------------------------------------------------------------------
# e1-32k
# ----------------------------------------------------------------------
class E1Paper:
    """The paper-exact 32,768-rank heat3d fault-free row (C = 1000), one
    serial in-process ``run_scenario``, cache off.  Fault-free, so the
    seed changes nothing and the pinned references hold on every seed."""

    name = "e1-32k"

    def __init__(self, seed: int, refs: dict, scratch: Path):
        self.seed = seed
        self.refs = refs

    def prepare(self) -> None:
        from repro.run import Scenario

        self.scenario = Scenario(ranks=32768, app="heat3d", iterations=1000, interval=1000)

    def run_pass(self) -> PassResult:
        from repro.run import run_scenario

        t0 = perf_counter()
        outcome = run_scenario(self.scenario, cache=False)
        wall = perf_counter() - t0
        result = outcome.result
        traffic = outcome.sim.world.traffic_summary()
        return PassResult(
            wall_s=wall,
            cells=1,
            sim_s=result.exit_time,
            digests=[outcome.digest()],
            facts={
                "exit_time": result.exit_time,
                "completed": outcome.completed,
                "events": result.event_count,
                "messages": traffic["messages_sent"],
                "bytes": traffic["bytes_sent"],
            },
        )

    def check(self, result: PassResult) -> list[str]:
        refs, facts = self.refs, result.facts
        problems = []
        if not facts["completed"]:
            problems.append("e1-32k run did not complete")
        if result.digests[0] != refs["digest"]:
            problems.append(f"e1-32k digest {result.digests[0][:16]} != pinned")
        if facts["exit_time"].hex() != refs["exit_time_hex"]:
            problems.append(f"e1-32k exit time {facts['exit_time']!r} != pinned")
        for key in ("events", "messages", "bytes"):
            if facts[key] != refs[key]:
                problems.append(f"e1-32k {key} {facts[key]} != pinned {refs[key]}")
        return problems

    def info(self, result: PassResult) -> list[str]:
        facts = result.facts
        return [
            f"events {facts['events']:,}, messages {facts['messages']:,}, "
            f"events_per_s {facts['events'] / result.wall_s:,.0f}"
        ]


# ----------------------------------------------------------------------
# explore-cold / explore-warm
# ----------------------------------------------------------------------
class _Explore:
    """The reference exploration over four strategies, ``-j 2``, batches
    of 16 tiny 8-rank cells, through a private ``ResultCache``."""

    def __init__(self, seed: int, refs: dict, scratch: Path):
        self.seed = seed
        self.refs = refs
        self.scratch = scratch

    def prepare(self) -> None:
        from repro.explore import load_explore_file

        self.spec = load_explore_file(EXPLORE_SPEC, use_environment=False, seed=self.seed)

    def _new_cache_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))

    def _explore(self, cache_dir: Path) -> PassResult:
        """One timed campaign on a fresh ``ResultCache`` object."""
        from repro.cache import ResultCache
        from repro.explore import run_explore, scorecard_json

        store = ResultCache(cache_dir)
        t0 = perf_counter()
        result = run_explore(self.spec, cache=store, jobs=JOBS)
        wall = perf_counter() - t0
        card = scorecard_json(result)
        stats = store.stats
        degraded = stats.corrupt + stats.store_errors + (store.disabled_reason is not None)
        sim_s = sum(
            sub.e1 + sum(t for st in sub.strata for t in st.e2s) for _, sub in result.results
        )
        cells = result.spent + result.baselines
        facts = {
            "card": card,
            "card_sha": hashlib.sha256(card.encode()).hexdigest(),
            "spent": {name: sub.spent for name, sub in result.results},
            "baselines": {name: sub.baseline_digest for name, sub in result.results},
            "hits": stats.hits,
            "lookups": stats.lookups,
            "degraded": degraded,
            "disabled_reason": store.disabled_reason,
            "explore_cells": result.spent,
            "explore_batches": sum(len(sub.batches) for _, sub in result.results),
            "explore_cells_ratio": result.spent
            / sum(sub.grid_cells for _, sub in result.results),
        }
        store.close()
        return PassResult(
            wall_s=wall, cells=cells, sim_s=sim_s, digests=[facts["card_sha"]],
            failed=degraded, facts=facts,
        )

    def _check_card(self, result: PassResult) -> list[str]:
        refs, facts = self.refs, result.facts
        problems = []
        for name, digest in facts["baselines"].items():
            # The fault-free baselines do not depend on the explore seed.
            if digest != refs["baseline_digests"][name]:
                problems.append(f"explore {name} baseline digest {digest[:16]} != pinned")
        if facts["degraded"]:
            problems.append(
                f"result cache degraded {facts['degraded']}x"
                + (f": {facts['disabled_reason']}" if facts["disabled_reason"] else "")
            )
        if self.seed == refs["seed"]:
            if result.cells - len(facts["baselines"]) != refs["cells"]:
                problems.append(f"explore cells {result.cells} != pinned {refs['cells']}")
            if facts["spent"] != refs["spent"]:
                problems.append(f"explore cells per strategy {facts['spent']} != pinned")
            if facts["card_sha"] != refs["scorecard_sha256"]:
                problems.append(f"explore scorecard {facts['card_sha'][:16]} != pinned")
        return problems

    def _check_replay(self, cold: PassResult, warm: PassResult) -> list[str]:
        """A warm replay serves every lookup and the same scorecard bytes;
        a miss means a cell never reached the cache (a degraded worker)."""
        problems = []
        if warm.facts["card"] != cold.facts["card"]:
            problems.append("warm scorecard is not byte-identical to the cold one")
        missed = warm.facts["lookups"] - warm.facts["hits"]
        if missed:
            problems.append(f"warm replay missed {missed} of {warm.facts['lookups']} lookups")
        return problems

    def info(self, result: PassResult) -> list[str]:
        return [f"cells per strategy {result.facts['spent']}, "
                f"scorecard sha256 {result.facts['card_sha'][:16]}"]


class ExploreCold(_Explore):
    """Every pass explores into an empty cache; the check replays it warm
    (untimed) to verify every cell reached the cache."""

    name = "explore-cold"

    def run_pass(self) -> PassResult:
        cache_dir = self._new_cache_dir()
        try:
            cold = self._explore(cache_dir)
        except BaseException:
            shutil.rmtree(cache_dir, ignore_errors=True)
            raise
        cold.facts["cache_dir"] = cache_dir
        return cold

    def check(self, result: PassResult) -> list[str]:
        cache_dir = result.facts.pop("cache_dir")
        try:
            replay = self._explore(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        result.failed += replay.facts["lookups"] - replay.facts["hits"] + replay.failed
        return self._check_card(result) + self._check_replay(result, replay)


class ExploreWarm(_Explore):
    """Every pass is served from a cache filled once during set-up."""

    name = "explore-warm"

    def fill(self) -> tuple[list[str], int]:
        """Fill the cache (set-up); returns its problems and failures."""
        self.cache_dir = self._new_cache_dir()
        self.cold = self._explore(self.cache_dir)
        return self._check_card(self.cold), self.cold.failed

    def run_pass(self) -> PassResult:
        warm = self._explore(self.cache_dir)
        warm.failed += warm.facts["lookups"] - warm.facts["hits"]
        return warm

    def check(self, result: PassResult) -> list[str]:
        return self._check_card(result) + self._check_replay(self.cold, result)

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Table2, E1Paper, ExploreCold, ExploreWarm)}
