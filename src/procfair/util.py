"""Shared plumbing: seed derivation, config hashing, record and config
checks, atomic file writes."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import numbers
import os
import tempfile
from dataclasses import MISSING, fields
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


def reject_unknown_keys(section: str, keys, allowed) -> None:
    """ValueError naming `section` and every key outside `allowed`."""
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {section} key(s): {', '.join(unknown)}")


def from_fields(cls, obj, section: str):
    """cls(**obj) for a record dataclass read from a file.

    A ValueError naming `section` rejects an obj that is not a dict, a key
    that is not a field of cls, and a missing field that has no default.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{section} must be a JSON object, got {type(obj).__name__}")
    reject_unknown_keys(section, obj, [f.name for f in fields(cls)])
    missing = [f.name for f in fields(cls) if f.default is MISSING
               and f.default_factory is MISSING and f.name not in obj]
    if missing:
        raise ValueError(f"missing {section} key(s): {', '.join(missing)}")
    return cls(**obj)


def check_number(name: str, value, kind: str) -> None:
    """ValueError naming `name` unless value fits kind "int" or "float".

    A bool is neither; a float field accepts an int, an int field no float.
    """
    expected = numbers.Integral if kind == "int" else numbers.Real
    if isinstance(value, bool) or not isinstance(value, expected):
        noun = "an integer" if kind == "int" else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")


def check_number_fields(obj) -> None:
    """check_number on every dataclass field of obj annotated int or float;
    a `float | None` field also accepts None. The annotations are read as
    strings, so the class's module needs `from __future__ import annotations`."""
    for f in fields(obj):
        kind, _, rest = f.type.partition(" | ")
        value = getattr(obj, f.name)
        if kind in ("int", "float") and not (rest == "None" and value is None):
            check_number(f.name, value, kind)


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
