"""Tests for the shared compressed/tolerant JSONL layer (repro.telemetry.jsonl)."""

import gzip
import json

import pytest

from repro.telemetry.jsonl import (
    COMPRESSION_CHOICES,
    JsonlWriter,
    UnsupportedCodecError,
    atomic_write_text,
    compression_suffix,
    detect_compression,
    read_jsonl_tolerant,
    read_text_tolerant,
    resolve_compression,
)

CODECS = ["none", "gz"]

#: The first bytes of a zstd frame (magic number, then a frame header).
ZSTD_HEAD = b"\x28\xb5\x2f\xfd" + bytes(16)


class TestResolveCompression:
    def test_none_means_plain(self):
        assert resolve_compression(None) == "none"

    def test_explicit_codecs_pass_through(self):
        assert resolve_compression("none") == "none"
        assert resolve_compression("gz") == "gz"

    def test_unknown_selector_rejected(self):
        for codec in ("lz4", "zst", "auto"):
            with pytest.raises(ValueError, match="compression"):
                resolve_compression(codec)

    def test_choices_cover_suffixes(self):
        assert COMPRESSION_CHOICES == ("none", "gz")
        for codec in COMPRESSION_CHOICES:
            assert compression_suffix(codec) in ("", ".gz")


class TestDetectCompression:
    def test_magic_bytes_beat_suffix(self, tmp_path):
        # A gzip stream under a misleading name is still gzip.
        p = tmp_path / "lies.jsonl"
        p.write_bytes(gzip.compress(b'{"a": 1}\n'))
        assert detect_compression(p) == "gz"

    def test_plain_file(self, tmp_path):
        p = tmp_path / "plain.jsonl"
        p.write_text('{"a": 1}\n')
        assert detect_compression(p) == "none"

    def test_missing_file_falls_back_to_suffix(self, tmp_path):
        assert detect_compression(tmp_path / "new.jsonl.gz") == "gz"
        assert detect_compression(tmp_path / "new.jsonl") == "none"

    def test_zstd_magic_raises_the_named_error(self, tmp_path):
        p = tmp_path / "old.jsonl.zst"
        p.write_bytes(ZSTD_HEAD)
        with pytest.raises(UnsupportedCodecError, match="zstd"):
            detect_compression(p)
        with pytest.raises(UnsupportedCodecError, match="zstd"):
            read_jsonl_tolerant(p)


class TestRoundTrip:
    @pytest.mark.parametrize("codec", CODECS)
    def test_write_read(self, tmp_path, codec):
        p = tmp_path / f"t.jsonl{compression_suffix(codec)}"
        rows = [{"i": i, "v": f"row{i}"} for i in range(5)]
        with JsonlWriter(p, compression=codec) as fh:
            for row in rows:
                fh.write_record(row)
        assert read_jsonl_tolerant(p) == rows

    @pytest.mark.parametrize("codec", CODECS)
    def test_append_starts_new_member(self, tmp_path, codec):
        # The shard resume protocol: atomic rewrite, then append
        # sessions.  Concatenated members must read back as one stream.
        p = tmp_path / "t.jsonl"
        with JsonlWriter(p, compression=codec) as fh:
            fh.write_record({"member": 1})
        with JsonlWriter(p, compression=codec, append=True) as fh:
            fh.write_record({"member": 2})
        assert read_jsonl_tolerant(p) == [{"member": 1}, {"member": 2}]

    @pytest.mark.parametrize("codec", CODECS)
    def test_flush_makes_lines_visible(self, tmp_path, codec):
        # A reader (or a crash) must see every flushed line without
        # waiting for close.
        p = tmp_path / "t.jsonl"
        fh = JsonlWriter(p, compression=codec)
        try:
            fh.write_record({"i": 1})
            fh.flush()
            assert read_jsonl_tolerant(p) == [{"i": 1}]
        finally:
            fh.close()

    def test_gzip_bytes_are_stable(self, tmp_path):
        # mtime=0 keeps compressed artifacts byte-reproducible — the
        # determinism tests compare artifact bytes.
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (a, b):
            with JsonlWriter(p, compression="gz") as fh:
                fh.write_record({"same": "payload"})
        assert a.read_bytes() == b.read_bytes()

    def test_writer_requires_resolved_codec(self, tmp_path):
        for codec in ("auto", "zst"):
            with pytest.raises(ValueError, match="codec"):
                JsonlWriter(tmp_path / "t.jsonl", compression=codec)


class TestTornTails:
    def test_plain_torn_final_line_dropped(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"i": 1}\n{"i": 2}\n{"i": 3, "tor')
        assert read_jsonl_tolerant(p) == [{"i": 1}, {"i": 2}]

    def test_plain_interior_corruption_raises(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"i": 1}\nGARBAGE\n{"i": 3}\n')
        with pytest.raises(ValueError, match="malformed JSONL at line 2"):
            read_jsonl_tolerant(p)

    def test_gz_truncated_final_member_keeps_prefix(self, tmp_path):
        # A crash mid-append truncates the final gzip member; every
        # complete earlier member (and any complete lines the torn one
        # produced) must survive.
        p = tmp_path / "t.jsonl"
        with JsonlWriter(p, compression="gz") as fh:
            fh.write_record({"i": 1})
        whole = p.read_bytes()
        tail = gzip.compress(json.dumps({"i": 2}).encode() + b"\n")
        p.write_bytes(whole + tail[: len(tail) - 4])  # chop the tail
        rows = read_jsonl_tolerant(p)
        assert rows[0] == {"i": 1}

    def test_gz_flushed_lines_survive_member_truncation(self, tmp_path):
        # Kill-while-writing: flushed sync points keep earlier lines
        # decodable even though the member never closed.
        p = tmp_path / "t.jsonl"
        fh = JsonlWriter(p, compression="gz")
        fh.write_record({"i": 1})
        fh.flush()
        raw = p.read_bytes()  # snapshot before the member is finalised
        fh.close()
        p.write_bytes(raw)  # "crash": the close bytes never landed
        assert read_jsonl_tolerant(p) == [{"i": 1}]

    def test_text_tolerant_replaces_bad_utf8(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_bytes(b'{"i": 1}\n\xff\xfe')
        text = read_text_tolerant(p)
        assert text.startswith('{"i": 1}')


class TestAtomicWriteText:
    def test_writes_and_replaces(self, tmp_path):
        p = tmp_path / "sub" / "status.json"
        assert atomic_write_text(p, "one\n") == p
        atomic_write_text(p, "two\n")
        assert p.read_text() == "two\n"
        assert [f.name for f in p.parent.iterdir()] == ["status.json"]

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        import repro.telemetry.jsonl as jsonl_mod

        p = tmp_path / "status.json"
        atomic_write_text(p, "previous\n")
        calls = []
        real_fsync = jsonl_mod.os.fsync

        def recording_fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def failing_replace(src, dst):
            calls.append("replace")
            raise OSError("disk went away")

        monkeypatch.setattr(jsonl_mod.os, "fsync", recording_fsync)
        monkeypatch.setattr(jsonl_mod.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk went away"):
            atomic_write_text(p, "partial new content\n")
        # The temp file was made durable before the (failed) replace,
        # and the final name still holds the previous content whole.
        assert calls == ["fsync", "replace"]
        assert p.read_text() == "previous\n"
