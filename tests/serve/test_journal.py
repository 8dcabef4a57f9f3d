"""The crash-safe job journal: append/replay, corruption recovery,
rotation.  The contract under test is the robustness one — a torn
tail, a flipped bit, or a duplicated record must recover (or drop the
tail) deterministically, never crash, never resurrect bad data."""

import contextlib
import json
import zlib

import pytest

from repro.serve.journal import JobJournal


@pytest.fixture
def make_journal(tmp_path):
    """Open the journal under ``tmp_path``, as often as a test needs;
    every journal opened is closed at teardown."""
    # fsync off: these tests exercise record framing and recovery, not
    # the disk barrier, and fsync per append makes the suite crawl.
    with contextlib.ExitStack() as opened:
        yield lambda: opened.enter_context(
            JobJournal(tmp_path / "j", fsync=False)
        )


class TestRoundTrip:
    def test_append_then_replay_preserves_order_and_content(
        self, make_journal
    ):
        j = make_journal()
        docs = [{"t": "submit", "job": f"job{i}"} for i in range(5)]
        for doc in docs:
            j.append(doc)
        j.close()

        j2 = make_journal()
        replayed = j2.replay()
        assert [d["job"] for d in replayed] == [d["job"] for d in docs]
        assert all(d["t"] == "submit" for d in replayed)

    def test_seq_stamps_are_monotonic(self, make_journal):
        j = make_journal()
        seqs = [j.append({"t": "x"}) for _ in range(4)]
        assert seqs == [1, 2, 3, 4]
        j.close()
        assert [d["seq"] for d in make_journal().replay()] == seqs

    def test_empty_journal_replays_empty(self, make_journal):
        assert make_journal().replay() == []

    def test_reopen_resumes_seq_past_existing_records(
        self, tmp_path, make_journal
    ):
        """Appending to a reopened segment must never reuse a live seq —
        a collision would make replay drop the *newer* record as a
        duplicate."""
        j = make_journal()
        j.append({"t": "a"})
        j.append({"t": "b"})
        j.close()

        j2 = make_journal()  # no explicit replay() before append
        j2.append({"t": "c"})
        j2.close()

        docs = make_journal().replay()
        assert [d["t"] for d in docs] == ["a", "b", "c"]
        assert len({d["seq"] for d in docs}) == 3


class TestCorruptionRecovery:
    def fill(self, make_journal, tmp_path, n=6):
        j = make_journal()
        for i in range(n):
            j.append({"t": "rec", "i": i})
        j.close()
        return tmp_path / "j" / "jobs.wal"

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path, make_journal):
        path = self.fill(make_journal, tmp_path)
        good_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'00000000 {"half a record with no newline')

        j = make_journal()
        docs = j.replay()
        assert [d["i"] for d in docs] == list(range(6))
        # The corrupt tail is physically gone, so the next replay (and
        # the next crash) starts from a clean segment.
        assert path.stat().st_size == good_size

    def test_bit_flip_truncates_from_corruption_point(
        self, tmp_path, make_journal
    ):
        path = self.fill(make_journal, tmp_path)
        data = bytearray(path.read_bytes())
        lines = bytes(data).split(b"\n")
        # Flip one payload bit in record 3 (0-indexed): its CRC check
        # fails, and records 3..5 — everything at and after the damage —
        # are dropped; order against a corrupt record is untrustworthy.
        offset = sum(len(l) + 1 for l in lines[:3]) + 20
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))

        docs = make_journal().replay()
        assert [d["i"] for d in docs] == [0, 1, 2]
        assert path.read_bytes().count(b"\n") == 3

    def test_valid_crc_over_non_json_payload_truncates(
        self, tmp_path, make_journal
    ):
        path = self.fill(make_journal, tmp_path, n=2)
        payload = b"not json at all"
        with open(path, "ab") as fh:
            fh.write(b"%08x %s\n" % (zlib.crc32(payload), payload))
            fh.write(b"trailing garbage line\n")

        docs = make_journal().replay()
        assert [d["i"] for d in docs] == [0, 1]
        assert path.read_bytes().count(b"\n") == 2

    def test_duplicate_records_replay_once(self, tmp_path, make_journal):
        path = self.fill(make_journal, tmp_path, n=3)
        lines = path.read_bytes().splitlines(keepends=True)
        # Double-land record 1, byte-for-byte (the retried-append case).
        with open(path, "ab") as fh:
            fh.write(lines[1])

        j = make_journal()
        docs = j.replay()
        assert [d["i"] for d in docs] == [0, 1, 2]
        # The duplicate line itself is VALID (correct CRC), so it is
        # not truncated — just deduplicated on every replay.
        assert make_journal().replay() == docs

    def test_whole_file_garbage_recovers_to_empty(
        self, tmp_path, make_journal
    ):
        j = make_journal()
        j.close()
        path = tmp_path / "j" / "jobs.wal"
        path.write_bytes(b"\x00\xff" * 100 + b"\n more garbage\n")

        j2 = make_journal()
        assert j2.replay() == []
        assert path.stat().st_size == 0
        # And the journal is immediately usable again.
        j2.append({"t": "fresh"})
        assert [d["t"] for d in make_journal().replay()] == ["fresh"]

    def test_post_truncation_appends_replay_cleanly(
        self, tmp_path, make_journal
    ):
        path = self.fill(make_journal, tmp_path, n=4)
        with open(path, "ab") as fh:
            fh.write(b"torn")

        j = make_journal()
        j.replay()
        j.append({"t": "after", "i": 99})
        j.close()

        docs = make_journal().replay()
        assert [d.get("i") for d in docs] == [0, 1, 2, 3, 99]


class TestRotation:
    def test_rotate_replaces_segment_with_compacted_docs(self, make_journal):
        j = make_journal()
        for i in range(50):
            j.append({"t": "noise", "i": i})
        j.rotate([{"t": "keep", "i": 1}, {"t": "keep", "i": 2}])

        docs = make_journal().replay()
        assert [(d["t"], d["i"]) for d in docs] == [("keep", 1), ("keep", 2)]
        assert [d["seq"] for d in docs] == [1, 2]

    def test_rotate_leaves_no_temp_file(self, tmp_path, make_journal):
        j = make_journal()
        j.append({"t": "a"})
        j.rotate([{"t": "a"}])
        leftovers = [p.name for p in (tmp_path / "j").iterdir()]
        assert leftovers == ["jobs.wal"]

    def test_appends_after_rotate_continue_the_segment(self, make_journal):
        j = make_journal()
        j.rotate([{"t": "base"}])
        j.append({"t": "next"})
        j.close()
        docs = make_journal().replay()
        assert [d["t"] for d in docs] == ["base", "next"]
        assert docs[1]["seq"] == 2

    def test_size_bytes_tracks_growth(self, make_journal):
        j = make_journal()
        assert j.size_bytes == 0
        j.append({"t": "x"})
        assert j.size_bytes > 0


class TestRecordFraming:
    def test_records_are_crc_prefixed_lines(self, tmp_path, make_journal):
        j = make_journal()
        j.append({"t": "probe"})
        j.close()
        line = (tmp_path / "j" / "jobs.wal").read_bytes().splitlines()[0]
        crc_hex, payload = line.split(b" ", 1)
        assert int(crc_hex, 16) == zlib.crc32(payload)
        doc = json.loads(payload)
        assert doc["t"] == "probe" and doc["seq"] == 1
