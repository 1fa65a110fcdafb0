"""Shared plumbing: seed derivation, config hashing, atomic file writes."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

VERSION = "0.1.0"


def seed_for(master: int, *tags: int) -> int:
    """Stable per-stage seed derived from a master seed and integer tags."""
    return int(np.random.SeedSequence([int(master), *map(int, tags)]).generate_state(1)[0])


def config_hash(obj) -> str:
    """sha256 over the canonical JSON form of a config object."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write-temp-rename so concurrent readers never see partial files.

    Creates missing parent directories. The file gets the mode a plain
    open() would give it (0o666 minus the umask), not mkstemp's 0o600.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_csv(path: str | Path, header, rows, config_hash: str | None = None) -> None:
    """CSV with an optional leading `# config_hash=` comment line, written atomically."""
    buf = io.StringIO()
    if config_hash:
        buf.write(f"# config_hash={config_hash}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def atomic_write_json(path: str | Path, obj, **dump_kwargs) -> None:
    """json.dumps(obj, **dump_kwargs), written atomically."""
    atomic_write_text(path, json.dumps(obj, **dump_kwargs))
