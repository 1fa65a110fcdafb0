"""Shared plumbing: seed derivation, config hashing, record and config
checks, atomic file writes, the Euclidean distance that pairing and the
MMD kernel share, and the thread policy of the parallel loops."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import numbers
import os
import tempfile
import threading
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

VERSION = "0.1.0"


# Threads of a parallel loop (deal), the calling thread included: the usable cores, at most 4.
WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, 4)


def deal(fn, count: int, workers: int) -> list:
    """[fn(0), ..., fn(count - 1)], dealt round-robin over w = min(workers,
    count) threads: the calling thread runs indices 0, w, 2w, ... and a
    thread started for the call each other slot, every slot in index order.
    A slot starts no index above a recorded failure. Once every thread has
    ended, the lowest failing index's exception is raised, as a loop would.
    """
    w = max(1, min(workers, count))
    results, errors = [None] * count, {}  # errors: failing index -> exception

    def run(slot: int) -> None:
        for i in range(slot, count, w):
            if errors and i > min(list(errors)):  # list(): one atomic snapshot
                return
            try:
                results[i] = fn(i)
            except BaseException as exc:
                errors[i] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, w)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def seed_for(master: int, *tags: int) -> int:
    """Stable per-stage seed derived from a master seed and integer tags."""
    return int(np.random.SeedSequence([int(master), *map(int, tags)]).generate_state(1)[0])


def euclidean(x: np.ndarray, y: np.ndarray, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row x[ix[k]] to its aligned row y[iy[k]].

    The squared differences are summed in column order and one square root
    is taken, the operations of scipy's cdist and pdist in their order, so
    every distance equals theirs bit for bit. The rows are gathered one
    column at a time: the working set is a few arrays of len(ix), whatever
    the column count. With no columns every distance is 0.
    """
    acc = np.zeros(len(ix))
    for xj, yj in zip(x.T, y.T):
        diff = xj[ix]
        diff -= yj[iy]
        diff *= diff
        acc += diff
    return np.sqrt(acc, out=acc)


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

    A bool is neither; a float field accepts an int, an int field no float,
    and neither accepts nan or infinity.
    """
    expected = numbers.Integral if kind == "int" else numbers.Real
    if isinstance(value, bool) or not isinstance(value, expected):
        noun = "an integer" if kind == "int" else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    if not isinstance(value, numbers.Integral) and not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


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
