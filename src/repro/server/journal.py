"""Durable detached streams: a WAL-backed journal of live streams.

A detached stream is server-side state a client paid to set up and
plans to come back for — losing it to a process restart breaks the
"disconnect now, poll later" contract that makes detached sessions
useful.  The :class:`StreamJournal` extends PR 5's durability story
to that state: every durable stream's *definition* is logged through
the same CRC-framed, segment-rolling
:class:`~repro.storage.wal.WriteAheadLog` (on its own single-machine
:class:`~repro.storage.dfs.SimulatedDFS` rooted in a real directory),
and ``storm-query serve --journal DIR`` re-admits the open streams on
restart.

Resume is **replay, not suspend/restore**: the journal records the
query text, the seed and the tenant/session coordinates — not sampler
state.  A re-admitted stream re-runs from scratch with the same seed
under a logical clock, and because scheduling never changes *what* a
stream draws (the scheduler's determinism invariant), every replayed
frame is byte-identical to the original.
A client's ``?from=N`` cursor therefore stays valid across the
restart: frames ``0..N`` regenerate identically and the continuation
matches an uninterrupted run exactly (the acceptance test diffs the
bytes).  The ``frames`` watermark journaled by throttled progress
records is observability, not a resume cursor.

Record types (all framed and checksummed by the WAL):

``stream_open``
    One durable stream admitted: ``task_id``, ``tenant``,
    ``session_id``/``session_name``, ``query``, ``seed``, ``weight``,
    ``label``.
``stream_progress``
    Throttled watermark (every ``progress_every`` frames): the journal
    rides :meth:`SimulatedDFS.append_file`, which rewrites the whole
    backing file on real disk, so per-frame records would turn one
    journal into O(frames²) disk traffic.
``stream_close``
    The stream reached DONE/ERROR/CANCELLED.  *Suspended* streams
    (graceful drain parking a detached stream) are deliberately never
    closed — an open record with no close is exactly what
    :meth:`StreamJournal.pending` resumes.

Crash safety: a crash mid-append (``FaultPlan.crash_write`` on the
``journal/`` prefix, or a real kill) leaves a torn tail; construction
truncates it and adopts every record before the tear, so a stream
whose *close* record tore is resumed (at-least-once — replay is
idempotent) and a stream whose *open* record tore was never
acknowledged as durable in the first place.
"""

from __future__ import annotations

import threading

from repro.errors import WalError, WriteCrashError
from repro.obs import NULL_OBS, Observability
from repro.storage.dfs import SimulatedDFS
from repro.storage.wal import WriteAheadLog

__all__ = ["StreamJournal", "JOURNAL_PREFIX"]

JOURNAL_PREFIX = "journal/"


class StreamJournal:
    """Append-only journal of durable detached streams.

    ``root`` is a real directory (survives the process); ``faults``
    gates journal writes for chaos tests.  All methods are safe to
    call from the scheduler's event callback: a journal that loses
    its backing store (injected crash) goes *dead* — it stops
    appending and counts ``storm.server.journal_errors`` — rather
    than ever taking the engine down.
    """

    def __init__(self, root: str, *,
                 obs: Observability | None = None,
                 faults=None, segment_bytes: int = 32768,
                 progress_every: int = 16):
        if progress_every < 1:
            raise WalError("progress_every must be >= 1")
        self.root = root
        self.obs = obs if obs is not None else NULL_OBS
        self.progress_every = progress_every
        self.dfs = SimulatedDFS(machines=1, block_size=4096,
                                replication=1, root=root,
                                obs=obs, faults=faults)
        self.wal = WriteAheadLog(self.dfs,
                                 segment_bytes=segment_bytes,
                                 prefix=JOURNAL_PREFIX, obs=obs)
        if self.wal.torn is not None:
            # Crash-mid-append on the previous run: cut the tear and
            # adopt everything committed before it.
            self.wal.truncate_torn()
        self._lock = threading.Lock()
        #: task_id -> frame count last journaled (throttling state).
        self._marks: dict[str, int] = {}
        self.dead = False

    # -- recording -------------------------------------------------------

    def record_open(self, task, *, query: str, seed: int,
                    session_id: str, session_name: str) -> bool:
        """Journal one durable stream's definition; False if the
        journal is dead (the stream then runs non-durably)."""
        return self._append("stream_open", {
            "task_id": task.task_id,
            "tenant": task.tenant,
            "session_id": session_id,
            "session_name": session_name,
            "query": query,
            "seed": int(seed),
            "weight": task.weight,
            "label": task.label,
        })

    def record_progress(self, task) -> bool:
        """Journal the frame watermark, throttled to every
        ``progress_every`` frames (observability only — resume
        replays from frame zero regardless)."""
        frames = len(task.frames)
        with self._lock:
            mark = self._marks.get(task.task_id, 0)
            if frames - mark < self.progress_every:
                return True
            self._marks[task.task_id] = frames
        return self._append("stream_progress", {
            "task_id": task.task_id, "frames": frames})

    def record_close(self, task) -> bool:
        """Journal the terminal state; the stream will not resume."""
        with self._lock:
            self._marks.pop(task.task_id, None)
        return self._append("stream_close", {
            "task_id": task.task_id, "state": task.state,
            "frames": len(task.frames)})

    def _append(self, record_type: str, fields: dict) -> bool:
        with self._lock:
            if self.dead:
                return False
            try:
                self.wal.append(record_type, fields)
            except (WriteCrashError, WalError):
                # The simulated process died mid-append (chaos) or the
                # tail is torn: stop journaling, keep serving.  The
                # on-disk prefix up to the tear still resumes.
                self.dead = True
                registry = self.obs.registry
                if registry.enabled:
                    registry.counter(
                        "storm.server.journal_errors").inc()
                return False
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.server.journal_records",
                             type=record_type).inc()
        return True

    # -- recovery --------------------------------------------------------

    def pending(self) -> dict[str, dict]:
        """Open streams on disk: task_id → its ``stream_open`` payload
        plus the last journaled ``frames`` watermark.

        A stream is pending when its open record committed but no
        close record did — exactly the set a restart must re-admit.
        """
        records, _ = self.wal.scan()
        open_streams: dict[str, dict] = {}
        for rec in records:
            payload = rec.payload
            task_id = payload.get("task_id")
            if task_id is None:
                continue
            if rec.type == "stream_open":
                entry = {k: v for k, v in payload.items()
                         if k not in ("lsn", "type")}
                entry["frames"] = 0
                open_streams[task_id] = entry
            elif rec.type == "stream_progress":
                entry = open_streams.get(task_id)
                if entry is not None:
                    entry["frames"] = int(payload.get("frames", 0))
            elif rec.type == "stream_close":
                open_streams.pop(task_id, None)
        return open_streams

    def __repr__(self) -> str:
        return (f"<StreamJournal root={self.root!r} "
                f"last_lsn={self.wal.last_lsn}"
                f"{' DEAD' if self.dead else ''}>")
