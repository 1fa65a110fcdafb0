"""Dataset handling: CSV ingestion, preprocessing, synthetic generation with
controllable group bias, and bias-manipulating transforms."""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .fairness import _advantaged, demographic_parity
from .util import atomic_write_csv, atomic_write_json, check_number_fields, from_fields

ROLE_FEATURE = "feature"
ROLE_LABEL = "label"
ROLE_SENSITIVE = "sensitive"
ROLE_DROP = "drop"
_ROLES = {ROLE_FEATURE, ROLE_LABEL, ROLE_SENSITIVE, ROLE_DROP}

# Columns whose population std falls below this are treated as constant and
# mapped to all-zero instead of dividing by ~0.
_ZERO_VAR_TOL = 1e-12

# load_csv reads rows in blocks of this many, and after each block drops the
# string sharing of every column whose distinct cells pass half the rows read.
_SHARE_CHECK_ROWS = 1024


@dataclass(frozen=True)
class ColumnSchema:
    """Maps CSV column names to roles and names the advantaged group value.

    roles: column name -> one of feature / label / sensitive / drop.
    advantaged: the raw cell value that marks the advantaged group (s1).
    """

    roles: dict[str, str]
    advantaged: str

    def __post_init__(self):
        if not isinstance(self.roles, dict):
            raise ValueError(f"schema roles must be a JSON object, got {type(self.roles).__name__}")
        for col, r in self.roles.items():
            if not isinstance(r, str):
                raise ValueError(f"schema role of column {col!r} must be a string, "
                                 f"got {type(r).__name__}")
        bad = {r for r in self.roles.values() if r not in _ROLES}
        if bad:
            raise ValueError(f"unknown column roles: {sorted(bad)}")
        if sum(1 for r in self.roles.values() if r == ROLE_LABEL) != 1:
            raise ValueError("schema must name exactly one label column")
        if sum(1 for r in self.roles.values() if r == ROLE_SENSITIVE) != 1:
            raise ValueError("schema must name exactly one sensitive column")

    @property
    def label_col(self) -> str:
        return next(c for c, r in self.roles.items() if r == ROLE_LABEL)

    @property
    def sensitive_col(self) -> str:
        return next(c for c, r in self.roles.items() if r == ROLE_SENSITIVE)

    @classmethod
    def from_json(cls, path: str | Path) -> "ColumnSchema":
        with open(path) as fh:
            schema = from_fields(cls, json.load(fh), "schema")
        return replace(schema, advantaged=str(schema.advantaged))

    def to_json(self, path: str | Path) -> None:
        atomic_write_json(path, asdict(self), indent=2)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with binary labels and a two-group membership tag.

    features are Z-scored column-wise at preprocessing time; group value 1
    marks the advantaged group (s1), 0 the disadvantaged group (s2).
    sensitive_col is the index of the sensitive attribute inside features,
    or None when group membership is carried only by the tags.
    """

    features: np.ndarray
    labels: np.ndarray
    group: np.ndarray
    feature_names: tuple[str, ...]
    sensitive_col: int | None = None
    group_names: tuple[str, str] = ("s1", "s2")

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        group = np.asarray(self.group, dtype=np.int8)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        m = feats.shape[0]
        if labels.shape != (m,) or group.shape != (m,):
            raise ValueError("labels/group length must match feature rows")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be binary 0/1")
        if not np.isin(group, (0, 1)).all():
            raise ValueError("group tags must be binary 0/1")
        if len(self.feature_names) != feats.shape[1]:
            raise ValueError("feature_names length must match feature columns")
        if self.sensitive_col is not None and not (0 <= self.sensitive_col < feats.shape[1]):
            raise ValueError("sensitive_col out of range")
        for arr in (feats, labels, group):
            arr.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def indices(self, group_value: int) -> np.ndarray:
        """Ascending row indices of one group (1 = advantaged)."""
        return np.flatnonzero(self.group == group_value)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return replace(self, features=self.features[idx], labels=self.labels[idx],
                       group=self.group[idx])


@dataclass(frozen=True)
class SyntheticConfig:
    """Controls the synthetic generator; p is the group-bias parameter."""

    p: float
    n_points: int = 20000
    seed: int = 0

    def __post_init__(self):
        check_number_fields(self)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if self.n_points < 4:
            raise ValueError(f"n_points must be >= 4, got {self.n_points!r}")


def load_csv(path: str | Path) -> dict[str, list[str]]:
    """Read a comma-separated UTF-8 file with a header row into a map from
    column name to that column's cells, in header order. A leading
    byte-order mark, as spreadsheet programs write, is skipped.

    Lines starting with '#' and blank lines are skipped. Ragged rows (a
    whitespace-only line among them) are rejected with their 1-based data
    row number, and a header that repeats a name is rejected with that
    name; each message starts with the path.

    Equal cells of a column share one str object while the column keeps
    repeating: one whose distinct cells pass half the rows read so far
    (checked every _SHARE_CHECK_ROWS rows) stops sharing, so all-distinct
    data holds no lookup table.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = (rec for rec in csv.reader(fh) if rec and not rec[0].startswith("#"))
        header = next(records, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no header row")
        repeated = [name for name, count in Counter(header).items() if count > 1]
        if repeated:
            raise ValueError(f"{path}: header repeats column name(s) {repeated}")
        columns: list[list[str]] = [[] for _ in header]
        # per column: cell -> the first str read with that value, or None
        # once the column stopped sharing
        shared: list[dict[str, str] | None] = [{} for _ in header]
        block: list[list[str]] = []
        n_read = 0
        for rec in records:
            if len(rec) != len(header):
                raise ValueError(
                    f"{path}: row {n_read + len(block) + 1} has {len(rec)} cells, "
                    f"expected {len(header)}"
                )
            block.append(rec)
            if len(block) == _SHARE_CHECK_ROWS:
                n_read += len(block)
                _append_block(columns, shared, block, n_read)
                block = []
        _append_block(columns, shared, block, n_read + len(block))
    return dict(zip(header, columns))


def _append_block(columns: list[list[str]], shared: list[dict[str, str] | None],
                  block: list[list[str]], n_read: int) -> None:
    for j, cells in enumerate(zip(*block)):
        seen = shared[j]
        if seen is None:
            columns[j].extend(cells)
            continue
        columns[j].extend(map(seen.setdefault, cells, cells))
        if 2 * len(seen) > n_read:
            shared[j] = None


def _parse_numeric(cells: list[str]) -> np.ndarray | None:
    """All-cells-numeric parse, or None when the column is categorical.

    numpy parses each cell as float() does, bit for bit."""
    try:
        return np.array(cells, dtype=np.float64)
    except ValueError:
        return None


def _encode_first_appearance(cells: list[str]) -> np.ndarray:
    codes = {c: i for i, c in enumerate(dict.fromkeys(cells))}
    return np.fromiter(map(codes.__getitem__, cells), dtype=np.float64, count=len(cells))


def zscore(col: np.ndarray) -> np.ndarray:
    """Z-score with population std; constant columns map to all-zero."""
    mu = col.mean()
    sd = col.std()
    if sd < _ZERO_VAR_TOL:
        return np.zeros_like(col)
    return (col - mu) / sd


def preprocess(columns: dict[str, list[str]], schema: ColumnSchema) -> Dataset:
    """Apply schema to columns of string cells, as load_csv returns them:
    encode categoricals (first-appearance order), Z-score all features, and
    mirror the sensitive column into group tags.

    A column is numeric when every cell parses as float() parses it (numpy
    reads the whole column in one call, with the same bits); a `nan` or
    `inf` cell in a numeric feature or sensitive column is rejected with
    the column and its 1-based row. The sensitive column stays in the
    feature matrix (Z-scored) so that models and explanations can see it.
    """
    for col in schema.roles:
        if col not in columns:
            raise ValueError(f"schema column {col!r} missing from header {list(columns)}")
    if len({len(cells) for cells in columns.values()}) != 1:
        raise ValueError("columns must all hold the same number of cells")
    if not columns[schema.label_col]:
        raise ValueError("cannot preprocess an empty table")

    label_cells = columns[schema.label_col]
    if len(set(label_cells)) != 2:
        raise ValueError(
            f"label column {schema.label_col!r} has "
            f"{len(set(label_cells))} distinct values, expected 2"
        )
    numeric = _parse_numeric(label_cells)
    if numeric is not None and set(np.unique(numeric)) == {0.0, 1.0}:
        labels = numeric.astype(np.int64)
    else:
        labels = _encode_first_appearance(label_cells).astype(np.int64)

    sens_cells = columns[schema.sensitive_col]
    sens_values = sorted(set(sens_cells))
    if len(sens_values) != 2:
        raise ValueError(
            f"sensitive column {schema.sensitive_col!r} has "
            f"{len(sens_values)} distinct values, expected 2"
        )
    if schema.advantaged not in sens_values:
        raise ValueError(
            f"advantaged value {schema.advantaged!r} not found in sensitive column"
        )
    group = np.fromiter(map(schema.advantaged.__eq__, sens_cells), dtype=np.int8,
                        count=len(sens_cells))
    other = next(v for v in sens_values if v != schema.advantaged)

    cols: list[np.ndarray] = []
    names: list[str] = []
    sensitive_col = None
    for name, cells in columns.items():
        role = schema.roles.get(name, ROLE_DROP)
        if role not in (ROLE_FEATURE, ROLE_SENSITIVE):
            continue
        parsed = _parse_numeric(cells)
        if parsed is None:
            parsed = _encode_first_appearance(cells)
        elif not np.isfinite(parsed).all():
            row = int(np.argmin(np.isfinite(parsed)))
            raise ValueError(f"column {name!r} row {row + 1}: non-finite value {cells[row]!r}")
        if role == ROLE_SENSITIVE:
            sensitive_col = len(cols)
        cols.append(zscore(parsed))
        names.append(name)
    if not cols:
        raise ValueError("schema leaves no feature columns")

    return Dataset(
        features=np.column_stack(cols),
        labels=labels,
        group=group,
        feature_names=tuple(names),
        sensitive_col=sensitive_col,
        group_names=(schema.advantaged, other),
    )


def generate_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Draw the four-feature synthetic dataset with bias parameter p.

    Labels are Bernoulli(0.5). Per class, (x1, x2) come from two unequal
    Gaussians; the sensitive bit xs follows Bernoulli(p) for positives and
    Bernoulli(1-p) for negatives; xp is a Gaussian proxy centered on xs
    (variance 0.5). Features are Z-scored; group tag 1 means raw xs = 1.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_points
    y = rng.integers(0, 2, size=n).astype(np.int64)
    pos = y == 1

    x12 = np.empty((n, 2), dtype=np.float64)
    x12[pos] = rng.multivariate_normal([2.0, 2.0], [[5.0, 1.0], [1.0, 5.0]], size=int(pos.sum()))
    x12[~pos] = rng.multivariate_normal(
        [-2.0, -2.0], [[10.0, 1.0], [1.0, 3.0]], size=int((~pos).sum())
    )

    u = rng.random(n)
    xs = np.where(pos, u < cfg.p, u < 1.0 - cfg.p).astype(np.float64)
    xp = xs + rng.normal(0.0, np.sqrt(0.5), size=n)

    feats = np.column_stack([x12[:, 0], x12[:, 1], xp, xs])
    feats = np.column_stack([zscore(feats[:, j]) for j in range(feats.shape[1])])
    return Dataset(
        features=feats,
        labels=y,
        group=xs.astype(np.int8),
        feature_names=("x1", "x2", "xp", "xs"),
        sensitive_col=3,
        group_names=("1", "0"),
    )


def split(data: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random disjoint row partition with `ratio` of rows in the first part.

    Z-score statistics are not recomputed: preprocessing happens on the
    whole dataset before splitting.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("split ratio must lie strictly between 0 and 1")
    m = data.n_rows
    n_first = int(round(ratio * m))
    if n_first < 1 or n_first > m - 1:
        raise ValueError(f"ratio {ratio} leaves an empty split for {m} rows")
    perm = np.random.default_rng(seed).permutation(m)
    first = np.sort(perm[:n_first])
    second = np.sort(perm[n_first:])
    return data.subset(first), data.subset(second)


def dataset_dp(data: Dataset) -> float:
    """|P(y=1 | s1) - P(y=1 | s2)| computed on the labels, not predictions."""
    return demographic_parity(data.labels, data.group)


def resample_unfair(data: Dataset, dp_threshold: float, seed: int) -> Dataset:
    """Duplicate advantaged positive rows (with replacement, one at a time)
    until the dataset DP exceeds dp_threshold. Already-unfair data returns
    unchanged."""
    _check_dp_threshold(dp_threshold)
    if dataset_dp(data) > dp_threshold:
        return data
    pool = np.flatnonzero((data.group == 1) & (data.labels == 1))
    if pool.size == 0:
        raise ValueError("no advantaged label-1 rows to resample")
    r2 = float(data.labels[data.group == 0].mean())
    if dp_threshold >= 1.0 - r2:
        raise ValueError(
            f"threshold {dp_threshold} unreachable: P(y=1|s1) cannot exceed 1 "
            f"while P(y=1|s2) = {r2:.4f}"
        )
    rng = np.random.default_rng(seed)
    n1 = int((data.group == 1).sum())
    pos1 = int(data.labels[data.group == 1].sum())
    extra: list[int] = []
    while abs((pos1 + len(extra)) / (n1 + len(extra)) - r2) <= dp_threshold:
        extra.append(int(rng.choice(pool)))
    idx = np.concatenate([np.arange(data.n_rows), np.array(extra, dtype=np.int64)])
    return data.subset(idx)


def attach_fake_sensitive(data: Dataset, seed: int) -> Dataset:
    """Append an i.i.d. Bernoulli(0.5) column and make it the sensitive
    attribute; the original sensitive column stays an ordinary feature."""
    rng = np.random.default_rng(seed)
    fake = rng.integers(0, 2, size=data.n_rows).astype(np.float64)
    return replace(
        data,
        features=np.column_stack([data.features, zscore(fake)]),
        group=fake.astype(np.int8),
        feature_names=data.feature_names + ("fake_sensitive",),
        sensitive_col=data.n_features,
        group_names=("1", "0"),
    )


def _check_dp_threshold(dp_threshold: float) -> None:
    if not 0.0 <= dp_threshold < 1.0:
        raise ValueError(f"dp_threshold must lie in [0, 1), got {dp_threshold!r}")


def _check_pearson_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")


def pearson_select(data: Dataset, threshold: float) -> Dataset:
    """Keep the sensitive attribute plus every feature whose |Pearson r|
    against group membership is below threshold; order preserved."""
    _check_pearson_threshold(threshold)
    if data.sensitive_col is None:
        raise ValueError("dataset has no sensitive column to select against")
    _advantaged(data.group)  # both groups must have rows
    gc = zscore(data.group.astype(np.float64))
    keep = [j for j in range(data.n_features) if j == data.sensitive_col
            or abs((zscore(data.features[:, j]) * gc).mean()) < threshold]
    return replace(
        data,
        features=data.features[:, keep],
        feature_names=tuple(data.feature_names[j] for j in keep),
        sensitive_col=keep.index(data.sensitive_col),
    )


def write_csv(data: Dataset, path: str | Path, config_hash: str | None = None) -> None:
    """Export features + label + group with a generated header.

    Floats are written with repr so a reload reproduces them exactly.
    """
    g_names = data.group_names
    rows = (
        [repr(float(v)) for v in data.features[i]]
        + [str(int(data.labels[i])), g_names[0] if data.group[i] == 1 else g_names[1]]
        for i in range(data.n_rows)
    )
    atomic_write_csv(path, list(data.feature_names) + ["label", "group"], rows, config_hash)


def export_schema(data: Dataset) -> ColumnSchema:
    """Schema that reloads a write_csv export into an equivalent Dataset."""
    roles = {name: ROLE_FEATURE for name in data.feature_names}
    roles["label"] = ROLE_LABEL
    if data.sensitive_col is not None:
        sens_name = data.feature_names[data.sensitive_col]
        roles[sens_name] = ROLE_SENSITIVE
        roles["group"] = ROLE_DROP
        adv_rows = data.indices(1)
        if adv_rows.size == 0:
            raise ValueError("cannot export schema: advantaged group is empty")
        advantaged = repr(float(data.features[adv_rows[0], data.sensitive_col]))
    else:
        roles["group"] = ROLE_SENSITIVE
        advantaged = data.group_names[0]
    return ColumnSchema(roles=roles, advantaged=advantaged)
