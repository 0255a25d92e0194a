"""Compressed, torn-tail-tolerant JSONL: the one reader all artifacts share.

Every durable artifact in this repo — shard artifacts, trace dumps,
status sidecars — is JSONL written append-and-flush, so a crash leaves
at most one partial trailing line.  Before this module each reader
re-implemented the same tolerance inline; now they share one
primitive, and it additionally understands *compressed* streams:

* ``gz`` — gzip members via the stdlib (always available);
* ``zst`` — zstandard frames via the optional ``zstandard`` package
  (or the stdlib ``compression.zstd`` on Python >= 3.14).  When
  neither is importable, requesting ``zst`` raises
  :class:`CompressionUnavailableError` with the remedy spelled out;
  ``"auto"`` degrades to ``gz`` instead.

Readers never need to be told the codec: :func:`detect_compression`
sniffs the magic bytes (zstd ``28 B5 2F FD``, gzip ``1F 8B``), so a
merge can be handed any mix of plain and compressed artifacts.

Torn tails generalise to compressed streams: a process killed
mid-write leaves a truncated final member/frame, and
:func:`read_text_tolerant` feeds an incremental decompressor and keeps
every byte it produced before the stream broke off — the partial tail
then falls to the same drop-the-last-line rule as a plain torn line.
Both gzip and zstd allow *concatenated* members, which is what makes
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
    "CompressionUnavailableError",
    "JsonlWriter",
    "atomic_write_text",
    "compression_suffix",
    "detect_compression",
    "read_jsonl_tolerant",
    "read_text_tolerant",
    "resolve_compression",
    "zstd_module",
]

#: Codec selectors accepted by writers; ``"auto"`` resolves to the best
#: available compressed codec (zst when importable, else gz).
COMPRESSION_CHOICES = ("auto", "none", "gz", "zst")

_MAGIC_ZSTD = b"\x28\xb5\x2f\xfd"
_MAGIC_GZIP = b"\x1f\x8b"


class CompressionUnavailableError(RuntimeError):
    """An explicitly requested codec this host cannot provide."""


def zstd_module():
    """The zstandard binding to use, or ``None`` when absent.

    Prefers the third-party ``zstandard`` package and falls back to the
    stdlib ``compression.zstd`` (Python >= 3.14).  Both expose the
    ``ZstdCompressor``/``ZstdDecompressor`` API surface used here.
    """
    try:
        import zstandard

        return zstandard
    except ImportError:
        pass
    try:
        from compression import zstd as _stdlib_zstd  # Python >= 3.14

        return _stdlib_zstd
    except ImportError:
        return None


def resolve_compression(compression: str | None) -> str:
    """Resolve a selector to a concrete codec name (never ``"auto"``).

    ``None`` means ``"none"``; ``"auto"`` prefers zstd and degrades to
    gzip when no zstd binding is importable; an explicit ``"zst"``
    without a binding raises — mirroring the kernel-backend policy
    (auto degrades, explicit requests fail loudly).
    """
    if compression is None:
        return "none"
    if compression not in COMPRESSION_CHOICES:
        raise ValueError(
            f"compression must be one of {COMPRESSION_CHOICES}, "
            f"got {compression!r}"
        )
    if compression == "auto":
        return "zst" if zstd_module() is not None else "gz"
    if compression == "zst" and zstd_module() is None:
        raise CompressionUnavailableError(
            "zstd compression requested but no zstd binding is available; "
            "install the 'zstandard' package (pip install zstandard) or "
            "use --compress gz / --compress auto"
        )
    return compression


def compression_suffix(codec: str) -> str:
    """The filename suffix a codec appends (``""`` for ``none``)."""
    return {"none": "", "gz": ".gz", "zst": ".zst"}[codec]


def detect_compression(path) -> str:
    """Sniff a file's codec from its magic bytes (``none``/``gz``/``zst``).

    Falls back to the filename suffix when the file does not exist yet
    (a writer choosing the codec for a path it is about to create).
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
    except FileNotFoundError:
        name = path.name
        if name.endswith(".zst"):
            return "zst"
        if name.endswith(".gz"):
            return "gz"
        return "none"
    if head[:4] == _MAGIC_ZSTD:
        return "zst"
    if head[:2] == _MAGIC_GZIP:
        return "gz"
    return "none"


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


def _decompress_zstd_tolerant(data: bytes) -> bytes:
    """Decompress concatenated zstd frames, keeping bytes up to a torn tail."""
    zstd = zstd_module()
    if zstd is None:  # pragma: no cover - callers sniffed a zstd file
        raise CompressionUnavailableError(
            "cannot read a zstd-compressed artifact: no zstd binding is "
            "available (pip install zstandard)"
        )
    out = bytearray()
    while data:
        obj = zstd.ZstdDecompressor().decompressobj()
        try:
            out += obj.decompress(data)
        except Exception:  # zstd.ZstdError; keep the partial tail
            break
        tail = getattr(obj, "unused_data", b"")
        if not tail or tail == data:
            break
        data = tail
    return bytes(out)


def read_text_tolerant(path) -> str:
    """The decoded text of a (possibly compressed) artifact.

    Codec is sniffed from magic bytes; a truncated compressed tail is
    decoded as far as the stream allows, exactly like a torn plain-text
    line — the caller's line-level tolerance then applies unchanged.
    """
    path = Path(path)
    raw = path.read_bytes()
    codec = (
        "zst" if raw[:4] == _MAGIC_ZSTD
        else "gz" if raw[:2] == _MAGIC_GZIP
        else "none"
    )
    if codec == "gz":
        raw = _decompress_gzip_tolerant(raw)
    elif codec == "zst":
        raw = _decompress_zstd_tolerant(raw)
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
    via a ``Z_SYNC_FLUSH`` point, for zstd via ``flush(FLUSH_BLOCK)``),
    so a reader — or a crash — sees complete lines, never buffered
    ones.  ``append=True`` starts a *new* member/frame after existing
    bytes, which concatenated-stream decompressors (and
    :func:`read_text_tolerant`) handle natively.
    """

    def __init__(self, path, *, compression: str = "none", append: bool = False):
        if compression in (None, "auto") or compression not in (
            "none", "gz", "zst"
        ):
            raise ValueError(
                "JsonlWriter needs a resolved codec ('none', 'gz', 'zst'); "
                f"got {compression!r} — call resolve_compression() first"
            )
        self.path = Path(path)
        self.compression = compression
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._raw = open(self.path, "ab" if append else "wb")
        if compression == "gz":
            # mtime=0 and an empty FNAME keep the bytes a pure function
            # of the payload — else the header would embed the wall
            # clock and the output path, and the byte-equality
            # determinism gates would fail across paths and runs.
            self._stream = gzip.GzipFile(
                filename="", fileobj=self._raw, mode="wb", mtime=0
            )
        elif compression == "zst":
            zstd = zstd_module()
            if zstd is None:
                self._raw.close()
                raise CompressionUnavailableError(
                    "zstd compression requested but no zstd binding is "
                    "available (pip install zstandard)"
                )
            self._zstd = zstd
            self._stream = zstd.ZstdCompressor().stream_writer(
                self._raw, closefd=False
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
            if self.compression == "gz":
                self._stream.flush(zlib.Z_SYNC_FLUSH)
            else:
                self._stream.flush(self._zstd.FLUSH_BLOCK)
        self._raw.flush()
        if fsync:
            os.fsync(self._raw.fileno())

    def close(self, *, fsync: bool = False) -> None:
        if self._stream is not None:
            if self.compression == "zst":
                self._stream.flush(self._zstd.FLUSH_FRAME)
            self._stream.close()
        self._raw.flush()
        if fsync:
            os.fsync(self._raw.fileno())
        self._raw.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
