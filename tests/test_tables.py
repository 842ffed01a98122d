import csv
import json

import numpy as np
import pytest

from catebench.attribution import SALIENCY, AttributionMatrix, load_attributions, save_attributions
from catebench.dgp import (
    PropensitySpec,
    generate_dataset,
    load_covariates_csv,
    load_dataset,
    load_observed,
    sample_feature_sets,
    sample_outcome_model,
    save_dataset,
    synth_covariates,
)
from catebench.errors import ParseError
from catebench.harness import ResultRecord, emit_csv, load_results
from catebench.rng import stream
from catebench.tables import read_floats, read_table, write_table


@pytest.fixture()
def tables_dir(tmp_path):
    """One valid file of every table the package reads."""
    ds = generate_dataset(
        synth_covariates(6, 8, rng=stream(1)), sample_feature_sets(8, 2, stream(2)),
        sample_outcome_model(2, 0.5, 1.0, stream(3)), PropensitySpec(), 0.1, stream(4),
    )
    save_dataset(ds, tmp_path / "data.csv", tmp_path / "truth.csv", tmp_path / "meta.json")
    mat = AttributionMatrix(np.ones((3, 4)), SALIENCY, np.arange(3))
    save_attributions(mat, np.array([4, 5, 6]), tmp_path / "attr.csv")
    emit_csv(
        [ResultRecord("synthetic", "t", "saliency", "predictive_scale", 0.5, s, 0.5, 0.25, 1.0,
                      0.0) for s in range(3)],
        tmp_path / "results.csv",
    )
    return tmp_path


def _load_dataset(path):
    return load_dataset(path.parent / "data.csv", path.parent / "truth.csv",
                        path.parent / "meta.json")


# reader, file it reads, and a numeric column of that file
READERS = {
    "covariates": (load_covariates_csv, "data.csv", 1),
    "observed": (load_observed, "data.csv", 4),
    "truth": (_load_dataset, "truth.csv", 2),
    "attributions": (load_attributions, "attr.csv", 3),
    "results": (load_results, "results.csv", 6),
    "floats": (lambda path: read_floats(path, ids=True), "truth.csv", 2),
}


# defects: a non-numeric cell, a short row, and a fractional or too large
# unit id (column 0)
DEFECTS = [(reader, defect) for reader in sorted(READERS) for defect in ("cell", "short")] + [
    (reader, defect) for reader in ("attributions", "observed", "truth") for defect in ("id",)
] + [(reader, defect) for reader in ("attributions", "floats", "observed", "truth")
     for defect in ("big id",) + (("id",) if reader == "floats" else ())]


@pytest.mark.parametrize("reader, defect", DEFECTS)
def test_malformed_table_names_row_and_column(tables_dir, reader, defect):
    load, name, col = READERS[reader]
    path = tables_dir / name
    lines = path.read_text().split("\n")
    cells = lines[2].split(",")
    if defect == "cell":
        cells[col] = "oops"
    elif defect == "id":
        cells[0] = "1.5"
    elif defect == "big id":
        cells[0] = "9" * 30  # past int64
    else:
        cells.pop()
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load(path)
    assert err.value.row == 2 and "row 2" in str(err.value)
    assert err.value.col == {"cell": col, "short": None, "id": 0, "big id": 0}[defect]
    if defect == "id":
        assert f"{name}: cannot read cell '1.5' at row 2, column 0 as int" in str(err.value)
    elif defect == "big id":
        assert f"{name}: unit id '{cells[0]}' at row 2, column 0 is outside int64" in str(err.value)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_header_only_file_has_no_data_rows(tables_dir, reader):
    load, name, _ = READERS[reader]
    path = tables_dir / name
    path.write_text(path.read_text().split("\n")[0] + "\n")
    with pytest.raises(ParseError, match=rf"{name}: no data rows") as err:
        load(path)
    assert err.value.row == 1


def _edit_cell(path, row, col, text):
    lines = path.read_text().split("\n")
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("reader", ["observed", "truth", "attributions"])
def test_wrong_header_rejected(tables_dir, reader):
    load, name, _ = READERS[reader]
    path = tables_dir / name
    _edit_cell(path, 0, 0, "id")
    with pytest.raises(ParseError, match=rf"{name}: expected header") as err:
        load(path)
    assert err.value.row == 0


@pytest.mark.parametrize(
    "reader, col",
    [("truth", 3), ("attributions", 3), ("covariates", 1), ("observed", 2), ("floats", 4)],
)
@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_nonfinite_cell_names_row_and_column(tables_dir, reader, col, cell):
    load, name, _ = READERS[reader]
    path = tables_dir / name
    _edit_cell(path, 2, col, cell)
    with pytest.raises(ParseError) as err:
        load(path)
    assert f"{name}: non-finite cell '{cell}' at row 2, column {col}" in str(err.value)
    assert (err.value.row, err.value.col) == (2, col)


def test_read_floats_equals_float_of_every_cell(tmp_path):
    # The streamed block holds float() of each cell, as a list-of-strings parse does.
    path = tmp_path / "t.csv"
    rows = [["7", "1e-300", "-0", " 2.5 ", "1_000"], ["-8", "1e308", "1e308", "0.1", "-1e-320"]]
    path.write_text("id,a,b,c,d\n" + "".join(",".join(r) + "\n" for r in rows))
    header, ids, block = read_floats(path, ids=True, start=1)
    expected = np.array([[float(c) for c in r[1:]] for r in rows])
    assert header == ["id", "a", "b", "c", "d"] and ids.tolist() == [7, -8]
    assert block.dtype == np.float64 and block.tobytes() == expected.tobytes()


def test_attribution_rows_name_one_method(tables_dir):
    path = tables_dir / "attr.csv"
    _edit_cell(path, 3, 1, "integrated_gradients")
    with pytest.raises(ParseError) as err:
        load_attributions(path)
    assert "attr.csv: row 3 names method 'integrated_gradients', row 1 'saliency'" in str(err.value)
    assert err.value.row == 3


def test_truth_unit_ids_must_match_data(tables_dir):
    _edit_cell(tables_dir / "truth.csv", 1, 0, "99")
    with pytest.raises(ParseError, match=r"truth\.csv: unit ids do not match .*data\.csv"):
        _load_dataset(tables_dir / "truth.csv")


@pytest.mark.parametrize("text, row, message", [("", 0, "empty file"), ("a\n", 1, "no data rows")])
def test_read_table_needs_header_and_data(tmp_path, text, row, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    def parse_row(r, cells):
        raise AssertionError(f"row {r} passed to the parser")

    with pytest.raises(ParseError, match=message) as err:
        read_table(path, parse_row, check_header=parse_row)
    assert err.value.row == row and str(path) in str(err.value)


def test_meta_missing_key_names_file_and_key(tables_dir):
    meta = tables_dir / "meta.json"
    content = json.loads(meta.read_text())
    del content["i_0"]
    meta.write_text(json.dumps(content))
    with pytest.raises(ParseError, match=r"meta\.json: missing key 'i_0'"):
        _load_dataset(meta)


# meta.json values outside their domain: (enclosing object, key, value)
META_VALUES = {
    "omega_pi": ("propensity", "omega_pi", -1.0),
    "i_prog": (None, "i_prog", [0, 0]),
    "sigma": (None, "sigma", float("nan")),
    "alpha_0": (None, "alpha_0", [0.5]),  # one entry short of i_0
    "i_1_high": (None, "i_1", [40, 41]),  # the fixture has 8 features
    "i_1_negative": (None, "i_1", [-1, -2]),
    "irrelevant_high": ("propensity", "irrelevant_index", 99),
    "irrelevant_negative": ("propensity", "irrelevant_index", -3),
    "irrelevant_fraction": ("propensity", "irrelevant_index", 2.5),
    "irrelevant_string": ("propensity", "irrelevant_index", "x"),
    "irrelevant_bool": ("propensity", "irrelevant_index", True),
    "irrelevant_driver": ("propensity", "irrelevant_index", lambda content: content["i_0"][0]),
}


@pytest.mark.parametrize(
    "defect, message",
    [
        ("truncated", r"meta\.json: not JSON \("),
        ("list", r"meta\.json: expected a JSON object"),
        ("omega_pi", r"meta\.json: malformed sidecar: omega_pi must be finite and >= 0, got -1\.0"),
        ("i_prog", r"meta\.json: malformed sidecar: index sets must be"),
        ("sigma", r"meta\.json: malformed sidecar: noise sigma must be finite and >= 0, got nan"),
        ("alpha_0", r"meta\.json: malformed sidecar: alpha_0 has shape \(1,\), but its index"),
        ("i_1_high", r"meta\.json: malformed sidecar: i_1 holds index 40, outside the 8 "),
        ("i_1_negative", r"meta\.json: malformed sidecar: i_1 holds index -1, outside the 8 "),
        *((f"irrelevant_{case}", r"meta\.json: malformed sidecar: irrelevant_index .* is not one "
           r"of the 8 features outside the driver sets")
          for case in ("high", "negative", "fraction", "string", "bool", "driver")),
    ],
)
def test_malformed_meta_names_file(tables_dir, defect, message):
    meta = tables_dir / "meta.json"
    text = meta.read_text()
    if defect == "truncated":
        text = text[: len(text) // 2]
    elif defect == "list":
        text = json.dumps(list(json.loads(text).values()))
    else:
        content = json.loads(text)
        parent, key, value = META_VALUES[defect]
        (content[parent] if parent else content)[key] = value(content) if callable(value) else value
        text = json.dumps(content)
    meta.write_text(text)
    with pytest.raises(ParseError, match=message):
        _load_dataset(meta)


def test_meta_bytes(tables_dir):
    text = (tables_dir / "meta.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"



@pytest.mark.parametrize("table", ["mixed", "one column"])
def test_write_table_bytes_equal_csv_writer(tmp_path, table):
    # The reference writes every float cell with its own f-string.
    if table == "mixed":
        header = ["id", "name, with comma", 'say "hi"', "x", "y"]
        rows = [
            [1, "plain", 'a "quoted" cell', 0.1, np.float64(-0.0)],
            [2, "comma, inside", "line\nbreak", float("nan"), float("inf")],
            [3, "", "cr\rcell", -float("inf"), np.float64(1e-300)],
            [-4, "100% sure", "50%, quoted", 123456789.0, -2.5e17],
            [None, "only strings", "%s %.17g", "", ""],
        ]
    else:  # csv quotes a row's only cell when it is empty
        header = ["only"]
        rows = [[""], ["x"], [1.5], [None]]
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(
            [f"{c:.17g}" if isinstance(c, float) else c for c in row] for row in [header, *rows]
        )
    write_table(tmp_path / "out.csv", header, iter(rows))
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
