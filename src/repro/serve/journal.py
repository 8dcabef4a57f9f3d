"""Crash-safe append-only journal for the job tier.

The write-ahead log behind :mod:`repro.serve.jobs`: every state change
a restarted server must not forget that the result cache cannot hold
(a job submitted, a unit quarantined, a job reaching a terminal state)
is appended here *before* it is acknowledged.  The design goals, in
order:

1. **Never lose an acknowledged record.**  ``append`` writes one
   newline-terminated record and ``fsync``\\ s before returning.
2. **Never crash on a corrupt log.**  A SIGKILL mid-append leaves a
   torn tail; a disk error can flip bits anywhere.  :meth:`replay`
   verifies a CRC-32 per record and, at the first bad record, truncates
   the file back to the last good byte and stops — the corrupt tail and
   everything after it is dropped deterministically (records behind a
   corrupt one cannot be trusted to be ordered against it).
3. **Bounded size.**  :meth:`rotate` writes a compacted snapshot to a
   sibling temp file, ``fsync``\\ s it, and atomically ``os.replace``\\ s
   the live segment (then ``fsync``\\ s the directory), so a crash
   during rotation leaves either the old or the new segment — never a
   half-written one.

Record format — one line per record::

    crc32(payload):08x SP payload LF

where ``payload`` is compact sorted-key JSON of the record dict plus a
``"seq"`` stamp.  The seq is monotonically increasing per journal and
lets :meth:`replay` drop duplicate records (a retried append after a
crash between write and ack can legitimately double-land).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any

_SEGMENT = "jobs.wal"


class JobJournal:
    """One durable journal segment under ``root`` (see module docstring).

    :param root: directory holding the segment (created eagerly).
    :param fsync: ``False`` disables fsync entirely (tests only).
    """

    def __init__(self, root: str | Path, fsync: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / _SEGMENT
        self.fsync = fsync
        self._seq = 0
        self._fh = open(self.path, "ab")
        if self.path.stat().st_size:
            # Reopening a live segment: resume the seq counter past the
            # existing records, so appends before (or without) a replay
            # can never collide with surviving seqs — a collision would
            # make replay drop the *new* record as a duplicate.
            self.replay()

    # -- writing -----------------------------------------------------------
    def append(self, doc: dict[str, Any]) -> int:
        """Append one record and make it durable; returns its seq."""
        self._seq += 1
        payload = json.dumps(
            {**doc, "seq": self._seq}, sort_keys=True,
            separators=(",", ":"),
        ).encode()
        if b"\n" in payload:  # pragma: no cover - json never emits one
            raise ValueError("journal records must be single-line")
        record = b"%08x %s\n" % (zlib.crc32(payload), payload)
        self._fh.write(record)
        self.flush()
        return self._seq

    def flush(self) -> None:
        """Make every appended record durable (flush + fsync)."""
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    @property
    def size_bytes(self) -> int:
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    # -- replay ------------------------------------------------------------
    def replay(self) -> list[dict[str, Any]]:
        """Parse the segment; returns good records in append order.

        The first corrupt record (torn tail, bad checksum, bad JSON)
        truncates the file back to the last good byte — recover, never
        crash.  Duplicate seqs are dropped.  The internal seq counter
        resumes past the largest replayed seq, so post-replay appends
        never collide with surviving records.
        """
        try:
            data = self.path.read_bytes()
        except OSError:
            return []
        records: list[dict[str, Any]] = []
        seen: set[int] = set()
        good_end = 0
        offset = 0
        while offset < len(data):
            nl = data.find(b"\n", offset)
            if nl < 0:
                break  # torn tail: no newline ever made it to disk
            doc = self._decode(data[offset:nl])
            if doc is None:
                break  # checksum or parse failure: drop the tail
            offset = good_end = nl + 1
            seq = doc.get("seq")
            if not isinstance(seq, int) or seq in seen:
                continue  # duplicate (or alien) record: replay once
            seen.add(seq)
            records.append(doc)
        if good_end < len(data):
            self._truncate(good_end)
        self._seq = max(seen, default=0)
        return records

    @staticmethod
    def _decode(line: bytes) -> dict[str, Any] | None:
        if len(line) < 10 or line[8:9] != b" ":
            return None
        try:
            crc = int(line[:8], 16)
        except ValueError:
            return None
        payload = line[9:]
        if zlib.crc32(payload) != crc:
            return None
        try:
            doc = json.loads(payload)
        except json.JSONDecodeError:
            return None
        return doc if isinstance(doc, dict) else None

    def _truncate(self, size: int) -> None:
        self._fh.close()
        with open(self.path, "r+b") as fh:
            fh.truncate(size)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        self._fh = open(self.path, "ab")

    # -- compaction --------------------------------------------------------
    def rotate(self, docs: list[dict[str, Any]]) -> None:
        """Atomically replace the segment with a compacted snapshot.

        ``docs`` is the minimal record set that reconstructs live
        state; they are re-stamped with fresh seqs 1..n.  The swap is
        write-new + fsync + ``os.replace`` + fsync(dir): a crash at any
        point leaves a fully valid segment (old or new).
        """
        tmp = self.path.with_suffix(".wal.new")
        with open(tmp, "wb") as fh:
            for i, doc in enumerate(docs, start=1):
                payload = json.dumps(
                    {**doc, "seq": i}, sort_keys=True,
                    separators=(",", ":"),
                ).encode()
                fh.write(b"%08x %s\n" % (zlib.crc32(payload), payload))
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        if self.fsync:
            dir_fd = os.open(self.root, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        self._fh = open(self.path, "ab")
        self._seq = len(docs)

    def close(self) -> None:
        """Close the segment (every record is already durable);
        closing again does nothing."""
        self._fh.close()

    def __enter__(self) -> JobJournal:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
