"""The content-addressed result cache (repro.cache).

Covers the correctness promises the cache makes over raw memoization:

* the key normalizes execution parallelism away (serial and sharded
  requests of one cell share an entry) but keeps every result- and
  payload-relevant field;
* a warm hit is equal to recomputation — digest, summary — and the
  result digest is host-independent (no wall times, transports, or CPU
  counts leak in);
* damaged state (truncated blob, missing blob, stale index row, foreign
  schema version) degrades to recomputation with a warning, never to a
  crash or a stale answer;
* ``gc`` evicts in the documented order (age pass first, then LRU by
  last hit) and ``verify`` spots every kind of damage;
* the sweep path partitions cached vs to-compute cells and annotates
  summaries without changing the result values;
* concurrent writers sharing one directory cannot corrupt it.
"""

from __future__ import annotations

import multiprocessing
import sqlite3
import warnings

import pytest

from repro.cache import (
    cache_dir_from_env,
    cache_enabled,
    open_cache,
    resolve_cache,
)
from repro.cache.store import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    cache_key,
    cache_salt,
    cacheable,
)
from repro.run.backends import run_scenario
from repro.run.scenario import Scenario
from repro.run.sweep import run_sweep


SMALL = Scenario(ranks=8, iterations=30, interval=10)


@pytest.fixture()
def store(tmp_path):
    return ResultCache(tmp_path / "cache")


def _fill(store, scenario=SMALL):
    """Compute-and-store one cell; returns the cold outcome."""
    return run_scenario(scenario, cache=store)


# ----------------------------------------------------------------------
# key derivation
# ----------------------------------------------------------------------
class TestCacheKey:
    def test_execution_fields_normalized_out(self):
        base = cache_key(SMALL)
        assert cache_key(SMALL.with_(shards=2)) == base
        assert cache_key(SMALL.with_(jobs=8)) == base
        # trace_out implies observe=True (payload-relevant), so it shares
        # the *observed* entry, not the bare one — the path itself is
        # normalized out.
        assert cache_key(SMALL.with_(trace_out="/tmp/t.json")) == cache_key(
            SMALL.with_(observe=True)
        )
        assert cache_key(SMALL.with_(trace_out="/tmp/a.json")) == cache_key(
            SMALL.with_(trace_out="/tmp/b.jsonl")
        )

    def test_result_relevant_fields_stay_in_key(self):
        base = cache_key(SMALL)
        assert cache_key(SMALL.with_(seed=1)) != base
        assert cache_key(SMALL.with_(interval=20)) != base
        assert cache_key(SMALL.with_(ranks=16)) != base
        assert cache_key(SMALL.with_(failures="2@100s")) != base

    def test_payload_relevant_instrumentation_stays_in_key(self):
        # observe/trace_detail/check change what the blob must contain.
        base = cache_key(SMALL)
        assert cache_key(SMALL.with_(observe=True)) != base
        assert cache_key(SMALL.with_(observe=True, trace_detail=True)) != base
        assert cache_key(SMALL.with_(check=True)) != base

    def test_salt_invalidates(self, monkeypatch):
        base = cache_key(SMALL)
        monkeypatch.setattr("repro.cache.store.ENGINE_SALT", "pdes-test")
        assert cache_key(SMALL) != base
        assert "engine=pdes-test" in cache_salt()

    def test_record_events_not_cacheable(self):
        assert cacheable(SMALL)
        assert not cacheable(SMALL.with_(record_events=True))


# ----------------------------------------------------------------------
# hit equivalence & host independence
# ----------------------------------------------------------------------
class TestHitEquivalence:
    def test_warm_hit_equals_cold_compute(self, store):
        cold = _fill(store)
        warm = run_scenario(SMALL, cache=store)
        assert not cold.metadata.get("cache_hit")
        assert warm.metadata.get("cache_hit") is True
        assert warm.digest() == cold.digest()
        assert warm.summary() == cold.summary()
        assert (store.stats.hits, store.stats.misses, store.stats.stores) == (1, 1, 1)

    def test_cross_backend_sharing(self, store):
        cold = _fill(store)
        sharded = SMALL.with_(shards=2)
        warm = run_scenario(sharded, cache=store)
        assert warm.metadata.get("cache_hit") is True
        assert warm.digest() == cold.digest()

    def test_result_digest_excludes_host_metadata(self, store):
        """The digest a hit is verified against must not depend on how or
        where the cell was computed: shard counts, wall times, and CPU
        counts live in metadata, never in the digest."""
        serial = run_scenario(SMALL)
        sharded = run_scenario(SMALL.with_(shards=2))
        assert serial.digest() == sharded.digest()
        assert serial.metadata != sharded.metadata  # metadata does differ...
        mutated = run_scenario(SMALL)
        mutated.metadata["host_cpus"] = 999999
        mutated.metadata["wall_s"] = 123.456
        mutated.metadata["nshards"] = 7
        assert mutated.digest() == serial.digest()  # ...and is excluded

    def test_record_events_bypasses_cache(self, store):
        scenario = SMALL.with_(record_events=True)
        first = run_scenario(scenario, cache=store)
        second = run_scenario(scenario, cache=store)
        assert first.sim is not None and second.sim is not None
        assert not second.metadata.get("cache_hit")
        assert store.stats.stores == 0


# ----------------------------------------------------------------------
# robustness: damaged state degrades to recomputation
# ----------------------------------------------------------------------
class TestRobustness:
    def test_truncated_blob_recomputes(self, store):
        cold = _fill(store)
        key = cache_key(SMALL)
        path = store.blob_path(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.warns(RuntimeWarning, match="unusable"):
            again = run_scenario(SMALL, cache=store)
        assert not again.metadata.get("cache_hit")
        assert again.digest() == cold.digest()
        assert store.stats.corrupt == 1
        # the damaged entry was dropped and the recompute re-stored it
        assert run_scenario(SMALL, cache=store).metadata.get("cache_hit") is True

    def test_missing_blob_recomputes(self, store):
        cold = _fill(store)
        store.blob_path(cache_key(SMALL)).unlink()
        with pytest.warns(RuntimeWarning, match="blob unreadable"):
            again = run_scenario(SMALL, cache=store)
        assert not again.metadata.get("cache_hit")
        assert again.digest() == cold.digest()

    def test_garbage_blob_recomputes(self, store):
        cold = _fill(store)
        store.blob_path(cache_key(SMALL)).write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="undecodable"):
            again = run_scenario(SMALL, cache=store)
        assert not again.metadata.get("cache_hit")
        assert again.digest() == cold.digest()

    def test_stale_index_digest_recomputes(self, store):
        """An index row whose digest disagrees with the blob must never be
        served (the blob could be a stale atomic-rename survivor)."""
        _fill(store)
        store._conn().execute(
            "UPDATE entries SET result_digest = 'deadbeef'"
        )
        with pytest.warns(RuntimeWarning, match="digest"):
            assert store.lookup(SMALL) is None
        assert store.stats.corrupt == 1

    def test_warning_logged_into_recomputed_run(self, store):
        _fill(store)
        store.blob_path(cache_key(SMALL)).write_bytes(b"junk")
        with pytest.warns(RuntimeWarning):
            again = run_scenario(SMALL, cache=store)
        log = again.last_result.log
        assert any(
            r.category == "cache" and "recomputing" in r.message
            for r in log.entries
        )

    def test_schema_mismatch_disables_cache(self, tmp_path, store):
        _fill(store)
        store._conn().execute("UPDATE meta SET value = '999' WHERE key = 'schema'")
        reopened = ResultCache(store.root)
        assert reopened.disabled_reason is not None
        with pytest.warns(RuntimeWarning, match="schema version 999"):
            outcome = run_scenario(SMALL, cache=reopened)
        assert not outcome.metadata.get("cache_hit")
        # store is a no-op too: nothing was overwritten in the foreign dir
        assert reopened.stats.stores == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # disabled warning fires once
            assert reopened.lookup(SMALL) is None

    def test_lookup_never_raises_on_unreadable_index(self, tmp_path):
        root = tmp_path / "broken"
        root.mkdir()
        (root / "index.sqlite3").write_bytes(b"this is not sqlite")
        cache = ResultCache(root)
        assert cache.disabled_reason is not None
        with pytest.warns(RuntimeWarning):
            assert cache.lookup(SMALL) is None
        assert cache.store(SMALL, run_scenario(SMALL)) is False


# ----------------------------------------------------------------------
# verify & gc
# ----------------------------------------------------------------------
class TestVerifyGc:
    def _three_entries(self, store):
        scenarios = [SMALL, SMALL.with_(seed=1), SMALL.with_(seed=2)]
        for s in scenarios:
            _fill(store, s)
        return scenarios

    def test_verify_clean(self, store):
        self._three_entries(store)
        assert store.verify() == []

    def test_verify_finds_and_prunes_damage(self, store):
        scenarios = self._three_entries(store)
        bad_key = cache_key(scenarios[1])
        store.blob_path(bad_key).write_bytes(b"junk")
        issues = store.verify()
        assert [i.key for i in issues] == [bad_key]
        assert store.index_stats()["entries"] == 3  # audit-only
        store.verify(prune=True)
        assert store.index_stats()["entries"] == 2

    def test_gc_max_age_evicts_idle_entries(self, store):
        scenarios = self._three_entries(store)
        keys = [cache_key(s) for s in scenarios]
        conn = store._conn()
        now = 1_000_000.0
        for key, last_hit in zip(keys, (now - 500.0, now - 50.0, now - 5.0)):
            conn.execute(
                "UPDATE entries SET last_hit = ? WHERE key = ?", (last_hit, key)
            )
        res = store.gc(max_age=100.0, now=now)
        assert res.removed == [(keys[0], "age")]
        assert res.kept == 2

    def test_gc_max_bytes_evicts_lru_first(self, store):
        scenarios = self._three_entries(store)
        keys = [cache_key(s) for s in scenarios]
        conn = store._conn()
        now = 1_000_000.0
        # Hit order (oldest first): seed=2, seed=0, seed=1.
        for key, last_hit in zip(keys, (now - 50.0, now - 5.0, now - 500.0)):
            conn.execute(
                "UPDATE entries SET last_hit = ? WHERE key = ?", (last_hit, key)
            )
        sizes = {e["key"]: e["nbytes"] for e in store.entries()}
        keep_bytes = sizes[keys[1]]  # room for exactly the most recent
        res = store.gc(max_bytes=keep_bytes, now=now)
        assert res.removed == [(keys[2], "bytes"), (keys[0], "bytes")]
        assert res.kept == 1
        assert store.index_stats()["entries"] == 1
        assert [e["key"] for e in store.entries()] == [keys[1]]

    def test_gc_combined_age_then_size(self, store):
        scenarios = self._three_entries(store)
        keys = [cache_key(s) for s in scenarios]
        conn = store._conn()
        now = 1_000_000.0
        for key, last_hit in zip(keys, (now - 500.0, now - 50.0, now - 5.0)):
            conn.execute(
                "UPDATE entries SET last_hit = ? WHERE key = ?", (last_hit, key)
            )
        res = store.gc(max_bytes=0, max_age=100.0, now=now)
        # age pass takes keys[0], size pass the rest in LRU order
        assert res.removed == [
            (keys[0], "age"),
            (keys[1], "bytes"),
            (keys[2], "bytes"),
        ]
        assert res.kept == 0 and res.kept_bytes == 0

    def test_gc_deterministic_tie_break(self, store):
        self._three_entries(store)
        conn = store._conn()
        conn.execute("UPDATE entries SET last_hit = 1.0, created = 1.0")
        res = store.gc(max_bytes=0)
        assert [k for k, _ in res.removed] == sorted(k for k, _ in res.removed)


# ----------------------------------------------------------------------
# sweep integration
# ----------------------------------------------------------------------
class TestSweepPartition:
    GRID = {"interval": [10, 20], "seed": [0, 1]}

    def test_cold_then_warm(self, store):
        cold = run_sweep(SMALL, self.GRID, cache=store)
        assert all(not s["cached"] for _, s in cold)
        warm_store = ResultCache(store.root)
        warm = run_sweep(SMALL, self.GRID, cache=warm_store)
        assert all(s["cached"] for _, s in warm)
        assert all(s["saved_s"] > 0.0 for _, s in warm)
        assert (warm_store.stats.hits, warm_store.stats.misses) == (4, 0)
        strip = lambda d: {k: v for k, v in d.items() if k not in ("cached", "saved_s")}
        assert [strip(s) for _, s in cold] == [strip(s) for _, s in warm]

    def test_partial_warm(self, store):
        run_sweep(SMALL, {"interval": [10], "seed": [0, 1]}, cache=store)
        mixed = run_sweep(SMALL, self.GRID, cache=ResultCache(store.root))
        by_cell = {
            (sc.interval, sc.seed): s["cached"] for sc, s in mixed
        }
        assert by_cell == {
            (10, 0): True, (10, 1): True, (20, 0): False, (20, 1): False,
        }

    def test_no_cache_summaries_unannotated(self):
        pairs = run_sweep(SMALL, {"interval": [10]}, cache=False)
        assert "cached" not in pairs[0][1]

    def test_parallel_workers_share_store(self, store):
        cold = run_sweep(SMALL.with_(jobs=2), self.GRID, cache=store)
        warm = run_sweep(SMALL.with_(jobs=2), self.GRID, cache=ResultCache(store.root))
        assert all(s["cached"] for _, s in warm)
        assert [s["result_digest"] for _, s in cold] == [
            s["result_digest"] for _, s in warm
        ]


# ----------------------------------------------------------------------
# policy & plumbing
# ----------------------------------------------------------------------
class TestPolicy:
    def test_cache_enabled_env(self):
        assert not cache_enabled({})
        assert not cache_enabled({"XSIM_CACHE": ""})
        assert not cache_enabled({"XSIM_CACHE": "0"})
        assert cache_enabled({"XSIM_CACHE": "1"})
        assert cache_enabled({"XSIM_CACHE": "yes"})

    def test_cache_dir_env(self, tmp_path):
        assert cache_dir_from_env({"XSIM_CACHE_DIR": str(tmp_path)}) == tmp_path
        default = cache_dir_from_env({})
        assert default.name == "xsim"

    def test_resolve_cache(self, store, monkeypatch):
        monkeypatch.delenv("XSIM_CACHE", raising=False)
        assert resolve_cache(False) is None
        assert resolve_cache(store) is store
        assert resolve_cache(None) is None  # env off by default

    def test_open_cache_memoized(self, tmp_path):
        a = open_cache(tmp_path / "c")
        b = open_cache(tmp_path / "c")
        assert a is b

    def test_stats_record_keys(self):
        record = CacheStats(hits=3, misses=1, lookup_s=0.4).as_record()
        assert record["hit_rate"] == 0.75
        assert record["lookup_mean_s"] == pytest.approx(0.1)
        for key in ("hits", "misses", "stores", "corrupt", "store_errors",
                    "hit_bytes", "store_bytes", "lookup_s", "store_s"):
            assert key in record

    def test_index_stats_shape(self, store):
        _fill(store)
        run_scenario(SMALL, cache=store)
        st = store.index_stats()
        assert st["entries"] == 1
        assert st["hits"] == 1
        assert st["bytes"] > 0
        assert st["saved_s"] > 0.0
        assert st["schema"] == CACHE_SCHEMA_VERSION
        assert st["modes"] == {"single": 1}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    SWEEP = [
        "sweep", "--ranks", "8", "--iterations", "30",
        "--set", "interval=10,20",
    ]

    def test_sweep_source_column_and_summary(self, tmp_path, capsys):
        from repro.cli import main

        flags = ["--cache", "--cache-dir", str(tmp_path / "c")]
        assert main(self.SWEEP + flags) == 0
        cold = capsys.readouterr().out
        assert cold.count("computed") == 2
        assert "cache: 0/2 cells served from cache (0% hit rate)" in cold
        assert main(self.SWEEP + flags) == 0
        warm = capsys.readouterr().out
        assert warm.count("cached") >= 2
        assert "cache: 2/2 cells served from cache (100% hit rate)" in warm
        # stripped of the source column + summary line, the tables match
        strip = lambda text: [
            line.rsplit("|", 1)[0].rstrip()
            for line in text.splitlines()
            if "|" in line
        ]
        assert strip(cold) == strip(warm)

    def test_sweep_without_cache_has_no_column(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("XSIM_CACHE", raising=False)
        assert main(self.SWEEP) == 0
        out = capsys.readouterr().out
        assert "source" not in out and "cache:" not in out

    def test_app_hit_line(self, tmp_path, capsys):
        from repro.cli import main

        run = ["app", "--ranks", "8", "--iterations", "30", "--interval", "10",
               "--cache", "--cache-dir", str(tmp_path / "c")]
        assert main(run) == 0
        assert "cache: miss (stored" in capsys.readouterr().out
        assert main(run) == 0
        assert "cache: hit " in capsys.readouterr().out

    def test_cache_stats_verify_gc(self, tmp_path, capsys):
        from repro.cli import main

        dirflag = ["--cache-dir", str(tmp_path / "c")]
        main(self.SWEEP + ["--cache"] + dirflag)
        capsys.readouterr()
        assert main(["cache", "stats"] + dirflag) == 0
        out = capsys.readouterr().out
        assert "entries:  2" in out and "salt:" in out
        assert main(["cache", "verify"] + dirflag) == 0
        assert "all servable" in capsys.readouterr().out
        assert main(["cache", "gc", "--max-bytes", "0"] + dirflag) == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert main(["cache", "stats"] + dirflag) == 0
        assert "entries:  0" in capsys.readouterr().out

    def test_cache_verify_reports_damage(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "c"
        dirflag = ["--cache-dir", str(root)]
        main(self.SWEEP + ["--cache"] + dirflag)
        capsys.readouterr()
        cache = ResultCache(root)
        victim = cache.entries()[0]["key"]
        cache.blob_path(victim).write_bytes(b"junk")
        assert main(["cache", "verify"] + dirflag) == 1
        assert "unservable" in capsys.readouterr().out
        assert main(["cache", "verify", "--prune"] + dirflag) == 0
        assert main(["cache", "verify"] + dirflag) == 0

    def test_cache_gc_requires_a_policy(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "gc", "--cache-dir", str(tmp_path / "c")]) == 2
        assert "--max-bytes" in capsys.readouterr().err


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def _store_worker(args):
    root, seeds = args
    from repro.cache.store import ResultCache
    from repro.run.backends import run_scenario

    cache = ResultCache(root)
    for seed in seeds:
        run_scenario(SMALL.with_(seed=seed), cache=cache)
    return cache.stats.stores + cache.stats.hits


def test_concurrent_writers_one_directory(tmp_path):
    """Two worker processes hammering one cache directory — overlapping
    and disjoint keys — must leave a fully servable store."""
    root = str(tmp_path / "shared")
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        counts = pool.map(
            _store_worker, [(root, [0, 1, 2, 3]), (root, [2, 3, 4, 5])]
        )
    assert all(c == 4 for c in counts)
    cache = ResultCache(root)
    assert cache.index_stats()["entries"] == 6
    assert cache.verify() == []
    warm = run_scenario(SMALL.with_(seed=4), cache=cache)
    assert warm.metadata.get("cache_hit") is True


def _flaky_connect(monkeypatch, failures: int) -> dict:
    """Make the next ``failures`` WAL switches report SQLITE_BUSY, as they
    do when another process is creating the same database (SQLite skips
    the busy handler for that mode change)."""
    real_connect = sqlite3.connect
    left = {"n": failures}

    class Flaky:
        def __init__(self, conn):
            self._conn = conn

        def execute(self, sql, *args):
            if "journal_mode" in sql and left["n"] > 0:
                left["n"] -= 1
                raise sqlite3.OperationalError("database is locked")
            return self._conn.execute(sql, *args)

        def __getattr__(self, name):
            return getattr(self._conn, name)

    monkeypatch.setattr(
        sqlite3, "connect", lambda *a, **kw: Flaky(real_connect(*a, **kw))
    )
    return left


def test_first_open_lock_is_retried(tmp_path, monkeypatch):
    left = _flaky_connect(monkeypatch, failures=3)
    cache = ResultCache(tmp_path / "c")
    assert left["n"] == 0
    assert cache.disabled_reason is None
    _fill(cache)
    assert run_scenario(SMALL, cache=cache).metadata.get("cache_hit") is True


def test_lock_outlasting_retries_never_disables(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.cache.store._OPEN_RETRY_S", 0.02)
    left = _flaky_connect(monkeypatch, failures=10**6)
    cache = ResultCache(tmp_path / "c")
    assert cache.disabled_reason is None
    left["n"] = 0  # the lock clears: the next use opens the store
    _fill(cache)
    assert cache.stats.stores == 1
    assert run_scenario(SMALL, cache=cache).metadata.get("cache_hit") is True
