"""Minimal on-disk formats: the CTF1 tensor container and flat manifests.

CTF1 layout (all little-endian):

    bytes 0..3   magic b"CTF1"
    byte  4      rank, unsigned 8-bit, 1..8
    next 4*rank  dimensions, unsigned 32-bit each, all >= 1
    rest         prod(dims) float64 values in C order

Manifests are UTF-8 text files, one ``key=value`` pair per line.  Keys
are bare identifiers; values are stored verbatim (no quoting or escape
rules), so values must not contain newlines.  Blank lines and lines
starting with ``#`` are ignored on read.
"""

import struct
from pathlib import Path

import numpy as np

MAGIC = b"CTF1"
MAX_RANK = 8


class ContainerError(ValueError):
    """Raised when a file does not parse as a valid CTF1 container or manifest."""


def write_tensor(path, array) -> None:
    """Serialize a float64 array of rank 1..8 to a CTF1 file."""
    arr = np.asarray(array, dtype=np.float64)
    if not 1 <= arr.ndim <= MAX_RANK:
        raise ContainerError(f"CTF1 stores rank 1..{MAX_RANK} tensors, got rank {arr.ndim}")
    arr = np.ascontiguousarray(arr)
    if any(s < 1 for s in arr.shape):
        raise ContainerError(f"CTF1 dimensions must be positive, got {arr.shape}")
    if any(s > 0xFFFFFFFF for s in arr.shape):
        raise ContainerError(f"dimension too large for u32: {arr.shape}")
    header = MAGIC + struct.pack("<B", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a CTF1 file back into a C-contiguous float64 array."""
    raw = Path(path).read_bytes()
    if len(raw) < 5:
        raise ContainerError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise ContainerError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    rank = raw[4]
    if not 1 <= rank <= MAX_RANK:
        raise ContainerError(f"{path}: rank {rank} out of range 1..{MAX_RANK}")
    dims_end = 5 + 4 * rank
    if len(raw) < dims_end:
        raise ContainerError(f"{path}: truncated dimension block")
    dims = struct.unpack(f"<{rank}I", raw[5:dims_end])
    if any(s < 1 for s in dims):
        raise ContainerError(f"{path}: zero-sized dimension in {dims}")
    count = int(np.prod(dims, dtype=np.int64))
    expected = dims_end + 8 * count
    if len(raw) != expected:
        raise ContainerError(
            f"{path}: payload is {len(raw) - dims_end} bytes, expected {8 * count} for shape {dims}")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=dims_end)
    return np.ascontiguousarray(values.astype(np.float64).reshape(dims))


def read_weight(path, shape=None) -> np.ndarray:
    """read_tensor for a stored model weight: it must hold only finite
    values and, when shape is given, have that shape; otherwise
    ContainerError naming the file."""
    arr = read_tensor(path)
    if shape is not None and arr.shape != shape:
        raise ContainerError(f"{path}: shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ContainerError(f"{path}: weights hold non-finite values")
    return arr


def write_manifest(path, entries: dict) -> None:
    """Write key=value pairs, one per line, in the dict's iteration order."""
    lines = []
    for key, value in entries.items():
        key = str(key)
        value = str(value)
        if not key or "=" in key or any(ch in key for ch in " \t\r\n"):
            raise ContainerError(f"bad manifest key: {key!r}")
        if "\n" in value or "\r" in value:
            raise ContainerError(f"manifest value for {key!r} contains a newline")
        lines.append(f"{key}={value}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


class Manifest(dict):
    """Manifest entries; indexing a missing key raises ContainerError
    naming the file and the key."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, key):
        raise ContainerError(f"{self.path}: missing key {key!r}")

    def parse(self, key, convert=int):
        """The key's value read by convert (int by default); a value it
        rejects raises ContainerError naming the file and the key."""
        text = self[key]
        try:
            return convert(text)
        except ValueError as exc:
            raise ContainerError(f"{self.path}: bad {key}={text!r} ({exc})") from None

    def expect(self, key, actual: int) -> None:
        """Raise ContainerError naming the file and key unless the key
        holds the integer `actual`, the value the loaded tensors give."""
        if self.parse(key) != actual:
            raise ContainerError(f"{self.path}: {key}={self[key]}, but the tensors give {actual}")


def read_manifest(path) -> Manifest:
    """Parse a key=value manifest; later duplicate keys win."""
    entries = Manifest(path)
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ContainerError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ContainerError(f"{path}:{lineno}: empty key")
        entries[key] = value
    return entries
