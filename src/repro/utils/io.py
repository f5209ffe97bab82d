"""Result persistence: JSON + npz round-tripping of experiment outputs.

Every artifact this package writes — design/baseline result JSONs,
benchmark reports, checkpoint payloads and their sidecar metadata —
goes through :func:`atomic_write_bytes`: the bytes land in a temporary
file in the destination directory, are flushed and fsynced, and only
then renamed over the target with :func:`os.replace`.  A crash (or
``kill -9``) at any instant leaves either the complete previous file or
the complete new one, never a torn half-write.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "save_result",
    "load_result",
]


def _jsonify(value: Any) -> Any:
    """Convert numpy scalars/arrays into JSON-encodable values."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _unjsonify(value: Any) -> Any:
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"], dtype=value.get("dtype"))
        return {k: _unjsonify(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_unjsonify(v) for v in value]
    return value


def atomic_write_bytes(
    path: str | Path, data: bytes, fsync: bool = True
) -> Path:
    """Crash-safely replace ``path`` with ``data``.

    The write goes to a uniquely-named temporary file in the same
    directory (so the final :func:`os.replace` is an atomic same-
    filesystem rename), is flushed — and, unless ``fsync=False``,
    fsynced — before the rename.  Readers racing the writer see either
    the old complete file or the new complete file.

    ``fsync=False`` trades the power-loss guarantee for speed; the
    rename is still atomic against crashes of the writing *process*,
    which is the right default for advisory artifacts like benchmark
    reports.

    The file gets the mode :func:`open` gives a new file (``0o666``
    less the process umask), not :func:`tempfile.mkstemp`'s owner-only
    ``0o600``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp_name = str(path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp")
        try:
            fd = os.open(tmp_name, flags, 0o666)  # the OS applies the umask
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(
    path: str | Path, text: str, fsync: bool = True
) -> Path:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(
    path: str | Path, payload: Any, fsync: bool = True, indent: int = 2
) -> Path:
    """Crash-safely write ``payload`` (numpy values included) as JSON."""
    text = json.dumps(_jsonify(payload), indent=indent) + "\n"
    return atomic_write_text(path, text, fsync=fsync)


def save_result(payload: dict, path: str | Path) -> Path:
    """Write an experiment-result dict (arrays included) as JSON."""
    return atomic_write_json(path, payload)


def load_result(path: str | Path) -> dict:
    """Read back a result written by :func:`save_result`."""
    return _unjsonify(json.loads(Path(path).read_text()))
