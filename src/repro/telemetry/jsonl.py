"""Compressed, torn-tail-tolerant JSONL: the one reader all artifacts share.

Every durable artifact in this repo — shard artifacts, trace dumps,
sweep run logs — is JSONL written append-and-flush, so a crash leaves
at most one partial trailing line.  Every reader goes through the same
tolerant primitive, which also understands gzip streams (``gz``, via
the stdlib).

Readers never need to be told the codec: :func:`detect_compression`
sniffs the gzip magic bytes (``1F 8B``), so a merge can be handed any
mix of plain and gzip artifacts.  A zstd stream (magic ``28 B5 2F FD``,
written by builds that had a zstd codec) raises
:class:`UnsupportedCodecError`.

Torn tails generalise to compressed streams: a process killed
mid-write leaves a truncated final member, and
:func:`read_text_tolerant` feeds an incremental decompressor and keeps
every byte it produced before the stream broke off — the partial tail
then falls to the same drop-the-last-line rule as a plain torn line.
Gzip allows *concatenated* members, which is what makes
append-after-atomic-rewrite (the shard resume protocol) work on
compressed artifacts: the retained prefix is one member, each
append session starts another.
"""

from __future__ import annotations

import gzip
import json
import os
import zlib
from pathlib import Path

__all__ = [
    "COMPRESSION_CHOICES",
    "JsonlWriter",
    "UnsupportedCodecError",
    "atomic_write_text",
    "compression_suffix",
    "detect_compression",
    "read_jsonl_tolerant",
    "read_text_tolerant",
    "resolve_compression",
]

#: Codec selectors accepted by writers.
COMPRESSION_CHOICES = ("none", "gz")

_MAGIC_ZSTD = b"\x28\xb5\x2f\xfd"
_MAGIC_GZIP = b"\x1f\x8b"


class UnsupportedCodecError(RuntimeError):
    """An artifact is compressed with a codec this build cannot read
    (zstd)."""


def resolve_compression(compression: str | None) -> str:
    """Validate a codec selector; ``None`` means ``"none"``."""
    if compression is None:
        return "none"
    if compression not in COMPRESSION_CHOICES:
        raise ValueError(
            f"compression must be one of {COMPRESSION_CHOICES}, "
            f"got {compression!r}"
        )
    return compression


def compression_suffix(codec: str) -> str:
    """The filename suffix a codec appends (``""`` for ``none``)."""
    return {"none": "", "gz": ".gz"}[codec]


def _sniff(path: Path, head: bytes) -> str:
    """The codec of a file that starts with ``head``."""
    if head[:4] == _MAGIC_ZSTD:
        raise UnsupportedCodecError(
            f"{path}: zstd-compressed artifact; this build reads only plain "
            "and gzip JSONL (decompress it with `zstd -d` first)"
        )
    return "gz" if head[:2] == _MAGIC_GZIP else "none"


def detect_compression(path) -> str:
    """Sniff a file's codec from its magic bytes (``none``/``gz``).

    Falls back to the filename suffix when the file does not exist yet
    (a writer choosing the codec for a path it is about to create).
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
    except FileNotFoundError:
        return "gz" if path.name.endswith(".gz") else "none"
    return _sniff(path, head)


# ---------------------------------------------------------------------------
# Tolerant reading
# ---------------------------------------------------------------------------


def _decompress_gzip_tolerant(data: bytes) -> bytes:
    """Inflate concatenated gzip members, keeping bytes up to a torn tail."""
    out = bytearray()
    while data:
        obj = zlib.decompressobj(wbits=31)  # 31 = gzip wrapper
        try:
            out += obj.decompress(data)
            out += obj.flush()
        except zlib.error:
            break  # torn final member: keep what it produced so far
        if not obj.eof:
            break  # stream ended mid-member (crash mid-flush)
        data = obj.unused_data
    return bytes(out)


def read_text_tolerant(path) -> str:
    """The decoded text of a (possibly compressed) artifact.

    Codec is sniffed from magic bytes; a truncated gzip tail is
    decoded as far as the stream allows, exactly like a torn plain-text
    line — the caller's line-level tolerance then applies unchanged.
    """
    path = Path(path)
    raw = path.read_bytes()
    if _sniff(path, raw) == "gz":
        raw = _decompress_gzip_tolerant(raw)
    return raw.decode("utf-8", errors="replace")


def read_jsonl_tolerant(path) -> list[dict]:
    """Parse a (possibly compressed) JSONL artifact, dropping a torn tail.

    The shared contract of every artifact reader in the repo: a crash
    mid-append leaves at most one partial trailing line, which is
    silently dropped; a malformed line anywhere *else* is data
    corruption and raises ``ValueError``.
    """
    path = Path(path)
    lines = read_text_tolerant(path).splitlines()
    parsed: list[dict] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn tail from a crash mid-write
            raise ValueError(
                f"{path}: malformed JSONL at line {i + 1}"
            ) from None
    return parsed


# ---------------------------------------------------------------------------
# Streaming writes
# ---------------------------------------------------------------------------


def atomic_write_text(path, text: str) -> Path:
    """Replace ``path`` with ``text`` atomically and durably.

    The text goes to a sibling ``.tmp`` file, which is fsynced before
    ``os.replace`` moves it over ``path``: a crash or a failed replace
    leaves either the previous file or the new one under the final
    name, never a torn one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


class JsonlWriter:
    """Append-and-flush JSONL writer over an optional compressed codec.

    The durability contract matches the plain-text writers it replaces:
    :meth:`flush` pushes every written line into the OS file (for gzip
    via a ``Z_SYNC_FLUSH`` point), so a reader — or a crash — sees
    complete lines, never buffered ones.  ``append=True`` starts a
    *new* gzip member after existing bytes, which concatenated-stream
    decompressors (and :func:`read_text_tolerant`) handle natively.
    """

    def __init__(self, path, *, compression: str = "none", append: bool = False):
        if compression not in COMPRESSION_CHOICES:
            raise ValueError(
                f"JsonlWriter needs a codec in {COMPRESSION_CHOICES}; "
                f"got {compression!r}"
            )
        self.path = Path(path)
        self.compression = compression
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._raw = open(self.path, "ab" if append else "wb")
        if compression == "gz":
            # mtime=0 and an empty FNAME keep the bytes a pure function
            # of the payload — else the header would embed the wall
            # clock and the output path, and the byte-equality
            # determinism tests would fail across paths and runs.
            self._stream = gzip.GzipFile(
                filename="", fileobj=self._raw, mode="wb", mtime=0
            )
        else:
            self._stream = None

    def write_record(self, record: dict) -> None:
        self.write_line(json.dumps(record, sort_keys=True))

    def write_line(self, text: str) -> None:
        data = (text + "\n").encode("utf-8")
        if self._stream is None:
            self._raw.write(data)
        else:
            self._stream.write(data)

    def flush(self, *, fsync: bool = False) -> None:
        if self._stream is not None:
            self._stream.flush(zlib.Z_SYNC_FLUSH)
        self._raw.flush()
        if fsync:
            os.fsync(self._raw.fileno())

    def close(self, *, fsync: bool = False) -> None:
        if self._stream is not None:
            self._stream.close()
        self._raw.flush()
        if fsync:
            os.fsync(self._raw.fileno())
        self._raw.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
