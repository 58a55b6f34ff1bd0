"""The content-addressed result store behind :mod:`repro.cache`.

Layout on disk (one directory per cache)::

    <root>/index.sqlite3          SQLite index, WAL mode
    <root>/blobs/<k[:2]>/<k>.pkl  pickled outcome payloads, keyed by cache key

The **index** maps a cache key to the entry's result digest, payload size,
creation/last-hit times, and hit count; the **blob** holds everything a
cache hit must reproduce bit-identically: the stripped
:class:`~repro.pdes.engine.SimulationResult` (or the full
:class:`~repro.core.restart.FailureRunResult` of a restart experiment),
the run's sim-domain :class:`~repro.obs.ObsEvent` list (so warm exporter
bytes equal cold ones), and the execution metadata.

Concurrency: SQLite runs in WAL mode with a generous busy timeout, every
process gets its own connection (connections are keyed by pid, so a
forked campaign worker transparently reopens), every index mutation is a
single autocommit statement, and blobs are written to a temp file and
atomically renamed — two `-j` workers or two concurrent CLI invocations
sharing one cache directory cannot corrupt it, the worst case is both
computing the same cell and one `INSERT OR REPLACE` winning.

Correctness before speed: a lookup re-derives the result digest from the
unpickled payload and compares it against the index row; any mismatch —
like a truncated or missing blob, an unpicklable payload, or an index
row whose blob vanished — demotes the entry to a miss (the row is
deleted, a ``RuntimeWarning`` is emitted, and the caller recomputes).
A schema-version mismatch disables the cache for the process instead of
guessing at the on-disk format.  A lock never does: SQLite answers the
rollback-to-WAL switch of a database another process is creating with
SQLITE_BUSY *without* consulting the busy handler, so the first open
retries the switch and the schema creation with bounded backoff, and an
open still locked after that is retried on the next use.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import tempfile
import time as _time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.run.backends import ScenarioOutcome
    from repro.run.scenario import Scenario

#: On-disk format version (index schema + blob payload layout).  A cache
#: directory written by a different version is never read or written —
#: the open is disabled with a warning and every lookup is a miss.
CACHE_SCHEMA_VERSION = 1

#: Simulation-semantics salt.  Part of every cache key next to the package
#: version: bump it when the engine's observable behavior changes without
#: a version bump, and every old entry silently becomes a miss instead of
#: serving results the current code would not reproduce.
ENGINE_SALT = "pdes-2"

#: Wall-clock budget and backoff ceiling (seconds) for retrying a first
#: open that lost the WAL-switch race (see :func:`_retry_on_lock`).
_OPEN_RETRY_S = 30.0
_OPEN_BACKOFF_MAX_S = 0.5


def _is_lock_error(exc: Exception) -> bool:
    text = str(exc).lower()
    return isinstance(exc, sqlite3.OperationalError) and (
        "locked" in text or "busy" in text
    )


def _retry_on_lock(fn):
    """``fn()``, retried with doubling backoff while SQLite reports a lock,
    for at most :data:`_OPEN_RETRY_S` seconds (then the lock re-raises)."""
    deadline = _time.monotonic() + _OPEN_RETRY_S
    delay = 0.005
    while True:
        try:
            return fn()
        except sqlite3.OperationalError as exc:
            if not _is_lock_error(exc) or _time.monotonic() >= deadline:
                raise
        _time.sleep(delay)
        delay = min(2 * delay, _OPEN_BACKOFF_MAX_S)


def cache_salt() -> str:
    """The invalidation salt mixed into every cache key."""
    from repro import __version__

    return f"schema={CACHE_SCHEMA_VERSION};version={__version__};engine={ENGINE_SALT}"


def cacheable(scenario: "Scenario") -> bool:
    """Whether a scenario's outcome can be served from the cache.

    ``record_events`` runs are excluded: their purpose is the live
    ``sim.event_trace`` object (record/replay debugging), which a cache
    hit cannot supply.
    """
    return not scenario.record_events


def cache_key(scenario: "Scenario") -> str:
    """Content address of a scenario's *result*.

    Execution-parallelism fields (backend, shards, the campaign ``jobs``
    width) and the trace destination path are
    normalized out before digesting: the simcheck parity harness
    enforces that they never change the result, so a cell computed
    serially must hit for the same cell requested on a sharded backend —
    that cross-backend sharing is most of a mixed sweep's hit rate.
    Result-relevant fields (machine, app, resilience, seed) and
    the instrumentation switches that change the cached payload
    (``observe``, ``trace_detail``, ``check``) stay in the key.
    """
    normalized = scenario.with_(backend=None, shards=1, jobs=1, trace_out="")
    h = hashlib.sha256()
    h.update(cache_salt().encode())
    h.update(b"\n")
    h.update(normalized.scenario_digest().encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# payload (what a blob stores)
# ----------------------------------------------------------------------
def _strip_result(result):
    """A picklable copy of a SimulationResult: same observable content,
    log stream detached (streams are process-local file objects)."""
    log = result.log
    if log.stream is not None:
        log = replace(log, stream=None)
    return replace(result, log=log)


def _strip_run(run):
    """A picklable copy of a FailureRunResult (per-segment log streams
    detached)."""
    segments = [replace(seg, result=_strip_result(seg.result)) for seg in run.segments]
    return replace(run, segments=segments)


def _payload_digest(payload: dict) -> str:
    """The canonical result digest of a payload — same derivation as
    :meth:`~repro.run.backends.ScenarioOutcome.digest`, recomputed from
    the unpickled objects so a corrupted blob cannot satisfy the index."""
    from repro.core.harness.experiment import campaign_digest, result_digest

    if payload["run"] is not None:
        return campaign_digest([result_digest(s.result) for s in payload["run"].segments])
    return result_digest(payload["result"])


def make_payload(outcome: "ScenarioOutcome", wall_s: float) -> dict:
    """The blob body for one computed outcome."""
    return {
        "format": CACHE_SCHEMA_VERSION,
        "mode": outcome.mode,
        "result": None if outcome.result is None else _strip_result(outcome.result),
        "run": None if outcome.run is None else _strip_run(outcome.run),
        "sim_events": (
            None if outcome.observer is None else list(outcome.observer.sim_events())
        ),
        "metadata": dict(outcome.metadata),
        "result_digest": outcome.digest(),
        "wall_s": float(wall_s),
    }


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Per-process cache counters (EngineProfiler-style observability).

    ``lookup_s``/``store_s`` accumulate host wall time spent in the cache
    itself, so ``xsim-run bench`` can report the lookup latency a warm
    sweep pays instead of simulation time.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    store_errors: int = 0
    hit_bytes: int = 0
    store_bytes: int = 0
    lookup_s: float = 0.0
    store_s: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.lookups
        return self.hits / n if n else 0.0

    def as_record(self) -> dict[str, Any]:
        """Primitive dict for bench records and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "store_errors": self.store_errors,
            "hit_bytes": self.hit_bytes,
            "store_bytes": self.store_bytes,
            "hit_rate": round(self.hit_rate, 4),
            "lookup_s": round(self.lookup_s, 6),
            "store_s": round(self.store_s, 6),
            "lookup_mean_s": round(self.lookup_s / self.lookups, 6) if self.lookups else 0.0,
        }


@dataclass
class GcResult:
    """What one :meth:`ResultCache.gc` pass removed and kept."""

    removed: list[tuple[str, str]] = field(default_factory=list)
    """(key, reason) pairs in eviction order; reason is "age" or "bytes"."""
    freed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0


@dataclass
class VerifyIssue:
    """One entry :meth:`ResultCache.verify` found unservable."""

    key: str
    problem: str


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    key             TEXT PRIMARY KEY,
    scenario_digest TEXT NOT NULL,
    result_digest   TEXT NOT NULL,
    mode            TEXT NOT NULL,
    nbytes          INTEGER NOT NULL,
    wall_s          REAL NOT NULL,
    created         REAL NOT NULL,
    last_hit        REAL NOT NULL,
    hits            INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS entries_last_hit ON entries(last_hit);
"""


class ResultCache:
    """One content-addressed result store rooted at a directory.

    The object is safe to share across forked workers: connections are
    opened lazily per pid, and all cross-process coordination happens in
    SQLite (WAL) and atomic blob renames.  :attr:`stats` counts this
    process's traffic only.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.blob_dir = self.root / "blobs"
        self.db_path = self.root / "index.sqlite3"
        self.stats = CacheStats()
        self._conns: dict[int, sqlite3.Connection] = {}
        self._schema_ready = False
        #: Set when the on-disk cache cannot be used (schema mismatch,
        #: unwritable directory); every lookup misses, every store no-ops.
        self.disabled_reason: str | None = None
        self._warned_disabled = False
        #: Last corruption note, popped by the runner to SimLog it.
        self._pending_warning: str | None = None
        try:
            self.blob_dir.mkdir(parents=True, exist_ok=True)
            self._conn()
        except (OSError, sqlite3.Error) as exc:
            # A lock that outlasted the retries is still transient: the
            # next _conn() retries the open instead of disabling.
            if not _is_lock_error(exc):
                self.disabled_reason = f"cache directory unusable: {exc}"

    # ------------------------------------------------------------------
    # connections & schema
    # ------------------------------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        pid = os.getpid()
        conn = self._conns.get(pid)
        if conn is None:
            conn = sqlite3.connect(str(self.db_path), timeout=30.0, isolation_level=None)
            try:
                conn.execute("PRAGMA busy_timeout=10000")
                _retry_on_lock(lambda: conn.execute("PRAGMA journal_mode=WAL"))
                conn.execute("PRAGMA synchronous=NORMAL")
            except sqlite3.Error:
                conn.close()
                raise
            self._conns[pid] = conn
        if not self._schema_ready:
            _retry_on_lock(lambda: self._init_schema(conn))
            self._schema_ready = True
        return conn

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        conn.executescript(_SCHEMA)
        row = conn.execute("SELECT value FROM meta WHERE key = 'schema'").fetchone()
        if row is None:
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema', ?)",
                (str(CACHE_SCHEMA_VERSION),),
            )
            # A racing creator may have won the INSERT; re-read to agree.
            row = conn.execute("SELECT value FROM meta WHERE key = 'schema'").fetchone()
        if row is not None and row[0] != str(CACHE_SCHEMA_VERSION):
            self.disabled_reason = (
                f"cache schema version {row[0]} != supported "
                f"{CACHE_SCHEMA_VERSION}; falling back to recomputation "
                f"(delete {self.root} to rebuild)"
            )

    def _check_enabled(self) -> bool:
        if self.disabled_reason is None:
            return True
        if not self._warned_disabled:
            warnings.warn(self.disabled_reason, RuntimeWarning, stacklevel=3)
            self._pending_warning = self.disabled_reason
            self._warned_disabled = True
        return False

    # ------------------------------------------------------------------
    # blob paths
    # ------------------------------------------------------------------
    def blob_path(self, key: str) -> Path:
        return self.blob_dir / key[:2] / f"{key}.pkl"

    def _write_blob(self, key: str, data: bytes) -> None:
        path = self.blob_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def lookup(self, scenario: "Scenario") -> "ScenarioOutcome | None":
        """The cached outcome for ``scenario``, or ``None`` (a miss).

        Any unservable entry — truncated/missing blob, unpicklable
        payload, digest mismatch against the index — is deleted, warned
        about, and reported as a miss; the cache never raises into the
        run path and never serves bytes it cannot re-verify.
        """
        t0 = _time.perf_counter()
        try:
            return self._lookup(scenario)
        finally:
            self.stats.lookup_s += _time.perf_counter() - t0

    def _lookup(self, scenario: "Scenario") -> "ScenarioOutcome | None":
        if not cacheable(scenario) or not self._check_enabled():
            self.stats.misses += 1
            return None
        key = cache_key(scenario)
        try:
            row = self._conn().execute(
                "SELECT result_digest, mode, nbytes FROM entries WHERE key = ?",
                (key,),
            ).fetchone()
        except sqlite3.Error as exc:
            self._corrupt(key, f"index read failed: {exc}", drop_row=False)
            self.stats.misses += 1
            return None
        if row is None:
            self.stats.misses += 1
            return None
        indexed_digest, mode, nbytes = row
        path = self.blob_path(key)
        try:
            data = path.read_bytes()
        except OSError as exc:
            self._corrupt(key, f"blob unreadable ({exc.__class__.__name__}): {exc}")
            self.stats.misses += 1
            return None
        try:
            payload = pickle.loads(data)
            if not isinstance(payload, dict) or payload.get("format") != CACHE_SCHEMA_VERSION:
                raise ValueError(f"unexpected payload format {type(payload).__name__}")
            digest = _payload_digest(payload)
        except Exception as exc:  # noqa: BLE001 - any blob damage is a miss
            self._corrupt(key, f"blob undecodable: {exc}")
            self.stats.misses += 1
            return None
        if digest != indexed_digest:
            self._corrupt(
                key,
                f"blob digest {digest[:16]} != indexed {indexed_digest[:16]} "
                "(truncated or stale blob)",
            )
            self.stats.misses += 1
            return None
        try:
            self._conn().execute(
                "UPDATE entries SET hits = hits + 1, last_hit = ? WHERE key = ?",
                (_time.time(), key),
            )
        except sqlite3.Error:
            pass  # hit bookkeeping is best-effort; the payload is good
        self.stats.hits += 1
        self.stats.hit_bytes += len(data)
        return self._rebuild(scenario, key, payload)

    def _rebuild(self, scenario: "Scenario", key: str, payload: dict) -> "ScenarioOutcome":
        from repro.run.backends import ScenarioOutcome

        observer = None
        if scenario.observe and payload["sim_events"] is not None:
            from repro.obs import Observer

            observer = Observer(detail=scenario.trace_detail)
            observer.extend(payload["sim_events"])
            observer.host_instant(
                _time.perf_counter(), "cache-hit", track="cache",
                args={"key": key[:16], "bytes": self.stats.hit_bytes},
            )
        metadata = dict(payload["metadata"])
        metadata["cache_hit"] = True
        metadata["cache_key"] = key
        metadata["cache_wall_s"] = payload["wall_s"]
        return ScenarioOutcome(
            scenario=scenario,
            mode=payload["mode"],
            result=payload["result"],
            run=payload["run"],
            sim=None,
            observer=observer,
            metadata=metadata,
        )

    def store(
        self, scenario: "Scenario", outcome: "ScenarioOutcome", wall_s: float = 0.0
    ) -> bool:
        """Memoize one computed outcome; returns True when stored.

        Never raises into the run path: an unpicklable payload or a full
        disk degrades to "not cached" with a warning.
        """
        t0 = _time.perf_counter()
        try:
            if not cacheable(scenario) or not self._check_enabled():
                return False
            key = cache_key(scenario)
            try:
                payload = make_payload(outcome, wall_s)
                data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
                self._write_blob(key, data)
                self._conn().execute(
                    "INSERT OR REPLACE INTO entries "
                    "(key, scenario_digest, result_digest, mode, nbytes, wall_s, "
                    " created, last_hit, hits) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0)",
                    (
                        key,
                        scenario.scenario_digest(),
                        payload["result_digest"],
                        payload["mode"],
                        len(data),
                        float(wall_s),
                        _time.time(),
                        _time.time(),
                    ),
                )
            except Exception as exc:  # noqa: BLE001 - degrade, never fail the run
                self.stats.store_errors += 1
                warnings.warn(
                    f"result cache store failed for {key[:16]}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False
            self.stats.stores += 1
            self.stats.store_bytes += len(data)
            return True
        finally:
            self.stats.store_s += _time.perf_counter() - t0

    def _corrupt(self, key: str, problem: str, drop_row: bool = True) -> None:
        """Demote a damaged entry: drop index row + blob, warn once per
        event, and remember the note for the runner's SimLog."""
        self.stats.corrupt += 1
        message = f"result cache entry {key[:16]} unusable ({problem}); recomputing"
        warnings.warn(message, RuntimeWarning, stacklevel=4)
        self._pending_warning = message
        if drop_row:
            try:
                self._conn().execute("DELETE FROM entries WHERE key = ?", (key,))
            except sqlite3.Error:
                pass
            try:
                self.blob_path(key).unlink(missing_ok=True)
            except OSError:
                pass

    def pop_warning(self) -> str | None:
        """The last corruption/disable note (cleared on read) — the
        runner logs it into the recomputed run's SimLog."""
        note, self._pending_warning = self._pending_warning, None
        return note

    # ------------------------------------------------------------------
    # maintenance (CLI: cache stats / verify / gc)
    # ------------------------------------------------------------------
    def entries(self) -> list[dict[str, Any]]:
        """Every index row, LRU-first (the gc eviction order)."""
        rows = self._conn().execute(
            "SELECT key, scenario_digest, result_digest, mode, nbytes, wall_s, "
            "created, last_hit, hits FROM entries "
            "ORDER BY last_hit ASC, created ASC, key ASC"
        ).fetchall()
        names = (
            "key", "scenario_digest", "result_digest", "mode", "nbytes",
            "wall_s", "created", "last_hit", "hits",
        )
        return [dict(zip(names, r)) for r in rows]

    def index_stats(self) -> dict[str, Any]:
        """Aggregate index statistics for ``xsim-run cache stats``."""
        conn = self._conn()
        n, nbytes, hits, wall = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0), COALESCE(SUM(hits), 0), "
            "COALESCE(SUM(wall_s * hits), 0.0) FROM entries"
        ).fetchone()
        modes = dict(
            conn.execute("SELECT mode, COUNT(*) FROM entries GROUP BY mode").fetchall()
        )
        return {
            "root": str(self.root),
            "schema": CACHE_SCHEMA_VERSION,
            "salt": cache_salt(),
            "entries": n,
            "bytes": nbytes,
            "hits": hits,
            "saved_s": wall,
            "modes": modes,
            "disabled": self.disabled_reason,
        }

    def verify(self, prune: bool = False) -> list[VerifyIssue]:
        """Audit every entry: blob present, unpicklable-free, digest
        matching the index.  ``prune`` deletes the failing entries."""
        issues: list[VerifyIssue] = []
        for entry in self.entries():
            key = entry["key"]
            path = self.blob_path(key)
            problem = None
            try:
                data = path.read_bytes()
            except OSError as exc:
                problem = f"blob missing/unreadable: {exc.__class__.__name__}"
            else:
                if len(data) != entry["nbytes"]:
                    problem = f"blob size {len(data)} != indexed {entry['nbytes']}"
                else:
                    try:
                        payload = pickle.loads(data)
                        digest = _payload_digest(payload)
                    except Exception as exc:  # noqa: BLE001
                        problem = f"blob undecodable: {exc.__class__.__name__}: {exc}"
                    else:
                        if digest != entry["result_digest"]:
                            problem = (
                                f"digest mismatch: blob {digest[:16]} != "
                                f"index {entry['result_digest'][:16]}"
                            )
            if problem is not None:
                issues.append(VerifyIssue(key, problem))
                if prune:
                    self._conn().execute("DELETE FROM entries WHERE key = ?", (key,))
                    try:
                        path.unlink(missing_ok=True)
                    except OSError:
                        pass
        return issues

    def gc(
        self,
        max_bytes: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> GcResult:
        """Evict entries: first everything idle longer than ``max_age``
        seconds (by last hit), then — LRU by last hit — until the cache
        fits ``max_bytes``.  Eviction order within a policy is
        deterministic: oldest ``last_hit`` first, ties broken by
        ``created`` then key."""
        now = _time.time() if now is None else now
        res = GcResult()
        survivors: list[dict[str, Any]] = []
        for entry in self.entries():  # LRU-first
            if max_age is not None and now - entry["last_hit"] > max_age:
                res.removed.append((entry["key"], "age"))
                res.freed_bytes += entry["nbytes"]
            else:
                survivors.append(entry)
        if max_bytes is not None:
            total = sum(e["nbytes"] for e in survivors)
            still: list[dict[str, Any]] = []
            for entry in survivors:
                if total > max_bytes:
                    res.removed.append((entry["key"], "bytes"))
                    res.freed_bytes += entry["nbytes"]
                    total -= entry["nbytes"]
                else:
                    still.append(entry)
            survivors = still
        for key, _reason in res.removed:
            self._conn().execute("DELETE FROM entries WHERE key = ?", (key,))
            try:
                self.blob_path(key).unlink(missing_ok=True)
            except OSError:
                pass
        res.kept = len(survivors)
        res.kept_bytes = sum(e["nbytes"] for e in survivors)
        return res

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._conns.clear()
