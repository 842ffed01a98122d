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


@pytest.fixture()
def tables_dir(tmp_path):
    """One valid file of every table the package reads."""
    ds = generate_dataset(
        synth_covariates(6, 8, rng=stream(1)), sample_feature_sets(8, 2, stream(2)),
        sample_outcome_model(2, 0.5, 1.0, stream(3)), PropensitySpec(), 0.1, stream(4),
    )
    save_dataset(ds, tmp_path / "data.csv", tmp_path / "truth.csv", tmp_path / "meta.json")
    mat = AttributionMatrix(np.ones((3, 4)), SALIENCY, np.zeros(4), np.arange(3))
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
}


# defects: a non-numeric cell, a short row, and a fractional unit id (column 0)
DEFECTS = [(reader, defect) for reader in sorted(READERS) for defect in ("cell", "short")] + [
    (reader, "id") for reader in ("attributions", "observed", "truth")
]


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
    else:
        cells.pop()
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load(path)
    assert err.value.row == 2 and "row 2" in str(err.value)
    assert err.value.col == {"cell": col, "short": None, "id": 0}[defect]


def test_meta_missing_key_names_file_and_key(tables_dir):
    meta = tables_dir / "meta.json"
    content = json.loads(meta.read_text())
    del content["i_0"]
    meta.write_text(json.dumps(content))
    with pytest.raises(ParseError, match=r"meta\.json: missing key 'i_0'"):
        _load_dataset(meta)

