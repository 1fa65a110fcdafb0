"""Seeded generator of an Adult-shaped CSV and its column schema.

The table mimics the UCI Adult census extract in shape, not in content: 10
numeric columns, 3 string-categorical columns, a string sensitive column
(sex, advantaged value "Male") and a string label (income). The label
depends mildly on sex, directly and through hours worked, so the dataset DP
sits near 0.05 and `resample_unfair` at 0.10 has to add rows.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

NUMERIC = (
    "age", "fnlwgt", "education_num", "capital_gain", "capital_loss",
    "hours_per_week", "tenure_years", "dependents", "credit_score", "commute_km",
)
CATEGORICAL = {
    "workclass": ("Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
                  "Local-gov", "State-gov", "Without-pay", "Never-worked"),
    "marital_status": ("Married-civ-spouse", "Divorced", "Never-married", "Separated",
                       "Widowed", "Married-spouse-absent", "Married-AF-spouse"),
    "occupation": ("Tech-support", "Craft-repair", "Other-service", "Sales",
                   "Exec-managerial", "Prof-specialty", "Handlers-cleaners",
                   "Machine-op-inspct", "Adm-clerical", "Farming-fishing",
                   "Transport-moving", "Priv-house-serv", "Protective-serv",
                   "Armed-Forces"),
}
SENSITIVE = "sex"
ADVANTAGED = "Male"
LABEL = "income"
POSITIVE, NEGATIVE = ">50K", "<=50K"


def _z(x: np.ndarray) -> np.ndarray:
    return (x - x.mean()) / x.std()


def write_adult_like(csv_path: Path, schema_path: Path, seed: int, n_rows: int) -> None:
    """Write `n_rows` seeded rows to csv_path and the matching schema JSON."""
    rng = np.random.default_rng(seed)
    n = n_rows
    male = rng.random(n) < 0.67
    age = np.clip(rng.normal(38.5, 13.6, n), 17, 90).round()
    num = {
        "age": age,
        "fnlwgt": rng.lognormal(12.0, 0.5, n).round(),
        "education_num": np.clip(rng.normal(10.0, 2.6, n), 1, 16).round(),
        "capital_gain": np.where(rng.random(n) < 0.08, rng.lognormal(8.0, 1.0, n), 0.0).round(),
        "capital_loss": np.where(rng.random(n) < 0.05, rng.lognormal(7.3, 0.3, n), 0.0).round(),
        "hours_per_week": np.clip(rng.normal(38.0 + 3.0 * male, 12.0, n), 1, 99).round(),
        "tenure_years": np.clip(age - 18.0 - rng.exponential(6.0, n), 0, None).round(),
        "dependents": rng.poisson(1.0, n).astype(np.float64),
        "credit_score": np.clip(rng.normal(680.0, 60.0, n), 300, 850).round(),
        "commute_km": rng.gamma(2.0, 8.0, n).round(1),
    }
    cat = {
        name: rng.integers(0, len(values), n) for name, values in CATEGORICAL.items()
    }
    marital_effect = np.array([0.9, -0.3, -0.8, -0.4, -0.3, -0.2, 0.5])
    occupation_effect = rng.normal(0.0, 0.4, len(CATEGORICAL["occupation"]))
    logit = (
        -1.55
        + 0.9 * _z(num["education_num"])
        + 0.5 * _z(num["age"])
        + 0.4 * _z(num["hours_per_week"])
        + 0.6 * (num["capital_gain"] > 0)
        + 0.2 * _z(num["credit_score"])
        + marital_effect[cat["marital_status"]]
        + occupation_effect[cat["occupation"]]
        + 0.15 * male
    )
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    # preprocess encodes a string label in first-appearance order; a negative
    # first row makes ">50K" the label-1 class on every seed.
    order = np.arange(n)
    first_neg = int(np.flatnonzero(~y)[0])
    order[[0, first_neg]] = order[[first_neg, 0]]

    header = list(NUMERIC) + list(CATEGORICAL) + [SENSITIVE, LABEL]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in order:
            row = [f"{num[c][i]:g}" for c in NUMERIC]
            row += [CATEGORICAL[c][cat[c][i]] for c in CATEGORICAL]
            row.append(ADVANTAGED if male[i] else "Female")
            row.append(POSITIVE if y[i] else NEGATIVE)
            writer.writerow(row)
    roles = {c: "feature" for c in header}
    roles[SENSITIVE] = "sensitive"
    roles[LABEL] = "label"
    Path(schema_path).write_text(json.dumps({"roles": roles, "advantaged": ADVANTAGED}, indent=2))
