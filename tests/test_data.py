import json

import numpy as np
import pytest

from procfair.data import (
    ColumnSchema,
    Dataset,
    SyntheticConfig,
    attach_fake_sensitive,
    dataset_dp,
    export_schema,
    generate_synthetic,
    load_csv,
    pearson_select,
    preprocess,
    resample_unfair,
    split,
    write_csv,
    zscore,
)


def _schema(**extra):
    roles = {"a": "feature", "b": "feature", "y": "label", "s": "sensitive"}
    roles.update(extra)
    return ColumnSchema(roles=roles, advantaged="1")


def test_load_csv_identity(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,y,s\n1,2,0,1\n3,4,1,0\n5,6,0,1\n")
    columns = load_csv(path)
    assert list(columns) == ["a", "b", "y", "s"]
    assert columns["a"] == ["1", "3", "5"]
    assert columns["s"] == ["1", "0", "1"]


def test_load_csv_ragged_row_names_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,y,s\n1,2,0,1\n3,4,1\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path)


def test_load_csv_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/nonexistent/file.csv")


def test_load_csv_rejects_repeated_header_name(tmp_path):
    # a map by column name would keep only the last of two same-named columns
    path = tmp_path / "t.csv"
    path.write_text("a,a,label,sex\n1,40,3,1\n2,10,4,0\n")
    with pytest.raises(ValueError, match=r"header repeats column name\(s\) \['a'\]"):
        load_csv(path)


def test_load_csv_skips_comment_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# config_hash=abc\na,b,y,s\n1,2,0,1\n2,1,1,0\n")
    assert load_csv(path) == {"a": ["1", "2"], "b": ["2", "1"], "y": ["0", "1"], "s": ["1", "0"]}


def test_load_csv_skips_byte_order_mark(tmp_path):
    text = "age,sex,income\n40,1,0\n31,0,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfage,")
    assert load_csv(marked) == load_csv(plain)
    schema = ColumnSchema(roles={"age": "feature", "sex": "sensitive", "income": "label"},
                          advantaged="1")
    assert preprocess(load_csv(marked), schema).feature_names == ("age", "sex")


def test_load_csv_header_only_and_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# config_hash=abc\na,b,y,s\n")
    assert load_csv(path) == {"a": [], "b": [], "y": [], "s": []}
    with pytest.raises(ValueError, match="cannot preprocess an empty table"):
        preprocess(load_csv(path), _schema())
    path.write_text("# config_hash=abc\n")
    with pytest.raises(ValueError, match="empty file, no header row"):
        load_csv(path)


def test_preprocess_header_mismatch():
    columns = {"a": ["1", "2"], "b": ["2", "1"], "y": ["0", "1"]}
    with pytest.raises(ValueError,
                       match=r"schema column 's' missing from header \['a', 'b', 'y'\]"):
        preprocess(columns, _schema())


def test_preprocess_rejects_columns_of_unequal_length():
    columns = {"a": ["1", "2"], "b": ["2", "1"], "y": ["0", "1"], "s": ["1"]}
    with pytest.raises(ValueError, match="same number of cells"):
        preprocess(columns, _schema())


def test_schema_validation():
    with pytest.raises(ValueError, match="exactly one label"):
        ColumnSchema(roles={"a": "feature"}, advantaged="1")
    with pytest.raises(ValueError, match="unknown column roles"):
        ColumnSchema(roles={"y": "label", "s": "sensitive", "a": "bogus"}, advantaged="1")
    with pytest.raises(ValueError, match="schema roles must be a JSON object, got list"):
        ColumnSchema(roles=["age"], advantaged="1")
    for role, kind in ((["feature"], "list"), ({"r": "label"}, "dict")):
        with pytest.raises(ValueError, match=f"schema role of column 'a' must be a string, got {kind}"):
            ColumnSchema(roles={"y": "label", "s": "sensitive", "a": role}, advantaged="1")


def _schema_file(tmp_path, obj):
    path = tmp_path / "d.schema.json"
    path.write_text(json.dumps(obj))
    return path


def test_schema_from_json_coerces_advantaged_to_str(tmp_path):
    roles = {"x": "feature", "y": "label", "s": "sensitive"}
    schema = ColumnSchema.from_json(_schema_file(tmp_path, {"roles": roles, "advantaged": 1}))
    assert schema == ColumnSchema(roles=roles, advantaged="1")


def test_schema_from_json_rejects_misspelled_key(tmp_path):
    obj = {"roles": {"y": "label", "s": "sensitive"}, "advantaged": "1", "advantged": "0"}
    with pytest.raises(ValueError, match="unknown schema key\\(s\\): advantged"):
        ColumnSchema.from_json(_schema_file(tmp_path, obj))


def test_schema_from_json_rejects_missing_key(tmp_path):
    obj = {"roles": {"y": "label", "s": "sensitive"}}
    with pytest.raises(ValueError, match="missing schema key\\(s\\): advantaged"):
        ColumnSchema.from_json(_schema_file(tmp_path, obj))


def test_preprocess_categorical_first_appearance_order(tmp_path):
    columns = {"g": ["M", "F", "M"], "y": ["0", "1", "0"], "s": ["1", "0", "1"]}
    schema = ColumnSchema(roles={"g": "feature", "y": "label", "s": "sensitive"}, advantaged="1")
    ds = preprocess(columns, schema)
    # encoded [0,1,0], then Z-scored
    expected = zscore(np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(ds.features[:, 0], expected, atol=1e-12)


def test_preprocess_numeric_zscore_population_std():
    columns = {"x": ["1", "2", "3"], "y": ["0", "1", "0"], "s": ["1", "0", "1"]}
    schema = ColumnSchema(roles={"x": "feature", "y": "label", "s": "sensitive"}, advantaged="1")
    ds = preprocess(columns, schema)
    np.testing.assert_allclose(
        ds.features[:, 0], [-1.2247448713915892, 0.0, 1.2247448713915892], atol=1e-9
    )


def test_preprocess_constant_column_maps_to_zero():
    columns = {"c": ["5", "5", "5"], "y": ["0", "1", "0"], "s": ["1", "0", "1"]}
    schema = ColumnSchema(roles={"c": "feature", "y": "label", "s": "sensitive"}, advantaged="1")
    ds = preprocess(columns, schema)
    assert (ds.features[:, 0] == 0.0).all()


def test_preprocess_bad_label_and_sensitive_cardinality():
    schema = ColumnSchema(roles={"y": "label", "s": "sensitive"}, advantaged="1")
    with pytest.raises(ValueError, match="label"):
        preprocess({"y": ["0", "1", "2"], "s": ["1", "0", "1"]}, schema)
    with pytest.raises(ValueError, match="sensitive"):
        preprocess({"y": ["0", "1", "1"], "s": ["1", "2", "0"]}, schema)
    with pytest.raises(ValueError, match="advantaged"):
        preprocess(
            {"y": ["0", "1"], "s": ["a", "b"]},
            ColumnSchema(roles={"y": "label", "s": "sensitive"}, advantaged="zzz"),
        )


def test_preprocess_sensitive_kept_as_feature_and_mirrored():
    columns = {"x": ["1", "2", "3"], "y": ["0", "1", "0"], "s": ["M", "F", "M"]}
    schema = ColumnSchema(roles={"x": "feature", "y": "label", "s": "sensitive"}, advantaged="F")
    ds = preprocess(columns, schema)
    assert ds.feature_names == ("x", "s")
    assert ds.sensitive_col == 1
    np.testing.assert_array_equal(ds.group, [0, 1, 0])
    assert ds.group_names == ("F", "M")


@pytest.mark.parametrize("column, row, cell", [("x", 2, "nan"), ("x", 3, "-inf"), ("s", 2, "inf")])
def test_preprocess_rejects_non_finite_numeric_cell(column, row, cell):
    columns = {"x": ["1", "2", "3"], "y": ["0", "1", "0"], "s": ["1", "0", "1"]}
    columns[column][row - 1] = cell
    schema = ColumnSchema(roles={"x": "feature", "y": "label", "s": "sensitive"}, advantaged="1")
    with pytest.raises(ValueError, match=f"column '{column}' row {row}: non-finite value '{cell}'"):
        preprocess(columns, schema)


def test_split_arithmetic_and_determinism():
    ds = Dataset(
        features=np.arange(20.0).reshape(10, 2),
        labels=np.tile([0, 1], 5),
        group=np.tile([1, 0], 5),
        feature_names=("a", "b"),
    )
    a, b = split(ds, 0.8, seed=7)
    assert a.n_rows == 8 and b.n_rows == 2
    rows = {tuple(r) for r in a.features} | {tuple(r) for r in b.features}
    assert len(rows) == 10  # disjoint partition
    a2, b2 = split(ds, 0.8, seed=7)
    np.testing.assert_array_equal(a.features, a2.features)
    np.testing.assert_array_equal(b.features, b2.features)
    with pytest.raises(ValueError):
        split(ds, 1.0, seed=0)


def test_split_ratio_full_scale(synth65):
    train, test = split(synth65, 0.8, seed=3)
    assert train.n_rows == 16000 and test.n_rows == 4000


def test_generate_synthetic_shapes_and_degenerate_p():
    ds = generate_synthetic(SyntheticConfig(p=1.0, n_points=1000, seed=5))
    assert ds.feature_names == ("x1", "x2", "xp", "xs")
    assert ds.sensitive_col == 3
    # p=1: every positive row is advantaged, every negative row is not
    np.testing.assert_array_equal(ds.group, ds.labels)
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\], got 1.2"):
        SyntheticConfig(p=1.2, n_points=100, seed=0)
    with pytest.raises(ValueError, match="n_points must be >= 4, got 3"):
        SyntheticConfig(p=0.5, n_points=3, seed=0)
    # wrong types name the field, not a numpy error later
    for field, over in (("n_points", {"n_points": 10.5}), ("p", {"p": "0.5"}),
                        ("seed", {"seed": True}), ("p", {"p": float("nan")})):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SyntheticConfig(**{"p": 0.5, "n_points": 100, "seed": 0, **over})


def test_generate_synthetic_is_zscored_and_deterministic(synth65):
    assert np.abs(synth65.features.mean(axis=0)).max() < 1e-9
    assert np.abs(synth65.features.std(axis=0) - 1.0).max() < 1e-9
    again = generate_synthetic(SyntheticConfig(p=0.65, n_points=20000, seed=1))
    np.testing.assert_array_equal(synth65.features, again.features)


def test_generate_synthetic_class_conditional_means():
    # positive-class mean of (x1, x2) is (2, 2) on the raw scale; after the
    # Z-score that is 2/std with std from the mixture law (11.5 resp. 8.0)
    ds = generate_synthetic(SyntheticConfig(p=0.65, n_points=20000, seed=4))
    pos = ds.labels == 1
    for j, var in ((0, 11.5), (1, 8.0)):
        got = ds.features[pos, j].mean()
        assert abs(got - 2.0 / np.sqrt(var)) < 0.15 / np.sqrt(var)


def test_dataset_dp_hand_counts():
    ds = Dataset(
        features=np.zeros((4, 1)),
        labels=np.array([1, 1, 0, 0]),
        group=np.array([1, 1, 0, 0]),
        feature_names=("f",),
    )
    assert dataset_dp(ds) == 1.0
    same = Dataset(
        features=np.zeros((4, 1)),
        labels=np.ones(4, dtype=int),
        group=np.array([1, 1, 0, 0]),
        feature_names=("f",),
    )
    assert dataset_dp(same) == 0.0


def test_dataset_dp_tracks_bias_parameter():
    for p in (0.5, 0.55, 0.65):
        ds = generate_synthetic(SyntheticConfig(p=p, n_points=20000, seed=11))
        assert abs(dataset_dp(ds) - abs(2 * p - 1)) < 0.03


def test_resample_unfair_toy_hand_simulation():
    # 1 advantaged positive, 1 advantaged negative, 2 disadvantaged negatives
    ds = Dataset(
        features=np.arange(4.0).reshape(4, 1),
        labels=np.array([1, 0, 0, 0]),
        group=np.array([1, 1, 0, 0]),
        feature_names=("f",),
    )
    out = resample_unfair(ds, 0.6, seed=0)
    # P(y=1|s1) must exceed 0.6: (1+t)/(2+t) > 0.6 -> t >= 1
    assert dataset_dp(out) > 0.6
    assert out.n_rows > ds.n_rows
    # only the advantaged positive (feature value 0) was duplicated
    assert set(map(float, out.features[4:, 0])) == {0.0}


def test_resample_unfair_already_unfair_returns_unchanged():
    ds = Dataset(
        features=np.zeros((4, 1)),
        labels=np.array([1, 0, 0, 0]),
        group=np.array([1, 1, 0, 0]),
        feature_names=("f",),
    )
    assert resample_unfair(ds, 0.10, seed=0) is ds


def test_resample_unfair_errors():
    no_pos = Dataset(
        features=np.zeros((4, 1)),
        labels=np.array([0, 0, 1, 0]),
        group=np.array([1, 1, 0, 0]),
        feature_names=("f",),
    )
    with pytest.raises(ValueError, match="no advantaged"):
        resample_unfair(no_pos, 0.5, seed=0)
    # r1 = 0.8, r2 = 0.9: dp 0.1 <= 0.15 but P(y=1|s1) can never beat r2 + 0.15
    unreachable = Dataset(
        features=np.zeros((15, 1)),
        labels=np.array([1, 1, 1, 1, 0] + [1] * 9 + [0]),
        group=np.array([1] * 5 + [0] * 10),
        feature_names=("f",),
    )
    with pytest.raises(ValueError, match="unreachable"):
        resample_unfair(unreachable, 0.15, seed=0)


@pytest.mark.parametrize("dp_threshold", [float("nan"), -0.5, 1.0])
def test_resample_unfair_rejects_out_of_range_threshold(dp_threshold):
    # checked before the early return for already-unfair data
    ds = Dataset(
        features=np.zeros((4, 1)),
        labels=np.array([1, 0, 0, 0]),
        group=np.array([1, 1, 0, 0]),
        feature_names=("f",),
    )
    with pytest.raises(ValueError, match=r"dp_threshold must lie in \[0, 1\)"):
        resample_unfair(ds, dp_threshold, seed=0)


def test_resample_unfair_contains_input_multiset(synth65_small):
    # drive DP above what the dataset already has
    target = dataset_dp(synth65_small) + 0.05
    out = resample_unfair(synth65_small, target, seed=3)
    assert dataset_dp(out) > target
    np.testing.assert_array_equal(out.features[: synth65_small.n_rows], synth65_small.features)
    np.testing.assert_array_equal(out.labels[: synth65_small.n_rows], synth65_small.labels)


def test_attach_fake_sensitive(synth65):
    fsa = attach_fake_sensitive(synth65, seed=9)
    assert fsa.n_features == synth65.n_features + 1
    assert fsa.sensitive_col == fsa.n_features - 1
    assert fsa.feature_names[-1] == "fake_sensitive"
    m = fsa.n_rows
    assert abs(int(fsa.group.sum()) - m / 2) < 3 * np.sqrt(m * 0.25)
    corr = np.corrcoef(fsa.labels, fsa.group)[0, 1]
    assert abs(corr) < 0.03
    again = attach_fake_sensitive(synth65, seed=9)
    np.testing.assert_array_equal(fsa.group, again.group)
    # original sensitive column still among features
    np.testing.assert_array_equal(fsa.features[:, 3], synth65.features[:, 3])


def test_pearson_select_rules(synth65):
    sel = pearson_select(synth65, 0.30)
    assert sel.feature_names == ("x1", "x2", "xs")  # proxy xp dropped
    assert sel.sensitive_col == 2
    with pytest.raises(ValueError):
        pearson_select(synth65, 0.0)

    # a feature identical to the sensitive attribute is removed (r = 1)
    rng = np.random.default_rng(0)
    g = rng.integers(0, 2, 400)
    feats = np.column_stack([g.astype(float), rng.normal(size=400), np.full(400, 2.0), g.astype(float)])
    ds = Dataset(
        features=feats,
        labels=rng.integers(0, 2, 400),
        group=g,
        feature_names=("dup", "indep", "const", "s"),
        sensitive_col=3,
    )
    sel2 = pearson_select(ds, 0.2)
    # dup removed; independent kept (|r| ~ 1/sqrt(m)); constant kept (r = 0)
    assert sel2.feature_names == ("indep", "const", "s")
    assert sel2.sensitive_col == 2


def test_round_trip_csv(tmp_path, synth65_small):
    path = tmp_path / "d.csv"
    write_csv(synth65_small, path, config_hash="deadbeef")
    schema = export_schema(synth65_small)
    schema_path = tmp_path / "d.schema.json"
    schema.to_json(schema_path)
    reloaded = ColumnSchema.from_json(schema_path)
    back = preprocess(load_csv(path), reloaded)
    assert back.feature_names == synth65_small.feature_names
    np.testing.assert_allclose(back.features, synth65_small.features, atol=1e-9)
    np.testing.assert_array_equal(back.labels, synth65_small.labels)
    np.testing.assert_array_equal(back.group, synth65_small.group)
    assert back.sensitive_col == synth65_small.sensitive_col


def test_dataset_validation():
    with pytest.raises(ValueError, match="binary"):
        Dataset(
            features=np.zeros((2, 1)),
            labels=np.array([0, 2]),
            group=np.array([0, 1]),
            feature_names=("f",),
        )
    with pytest.raises(ValueError, match="sensitive_col"):
        Dataset(
            features=np.zeros((2, 1)),
            labels=np.array([0, 1]),
            group=np.array([0, 1]),
            feature_names=("f",),
            sensitive_col=5,
        )
    ds = Dataset(
        features=np.zeros((2, 1)),
        labels=np.array([0, 1]),
        group=np.array([0, 1]),
        feature_names=("f",),
    )
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0  # immutable after construction
