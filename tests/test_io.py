import json
import re
from io import StringIO

import numpy as np
import pytest

from ordmixed import (
    Dataset,
    DatasetParseError,
    FactorSchema,
    FitOptions,
    LinkFamily,
    builtin_dataset,
    fit,
    load_dataset,
    render_dataset,
    strawberry_dataset,
)
from ordmixed.datasets import STRAWBERRY_TABLE
from ordmixed.io import fit_result_tree, render_tree
from ordmixed.simulation import SimulationDesign, generate_dataset, study_true_parameters

SCHEMA = FactorSchema(factors=(("male", 3), ("female", 4), ("block", 4)), n_categories=3)


class TestStrawberryFixture:
    def test_shape(self):
        ds = strawberry_dataset()
        assert ds.n_clusters == 48
        assert ds.n_categories == 3
        assert ds.n_covariates == 8
        assert ds.covariate_names == (
            "male2", "male3", "female2", "female3", "female4",
            "block2", "block3", "block4",
        )

    def test_total_observations_by_direct_addition(self):
        # oracle: sum every count token in the raw embedded table
        raw = [
            int(tok)
            for line in STRAWBERRY_TABLE.splitlines()[1:]
            for tok in line.split(",")[3:]
        ]
        assert len(raw) == 48 * 3
        assert sum(raw) == 473
        assert strawberry_dataset().total_observations == sum(raw)

    def test_nine_plant_plots_kept_verbatim(self):
        sizes = strawberry_dataset().sizes
        assert sorted(set(sizes.tolist())) == [9, 10]
        assert int((sizes == 9).sum()) == 7

    def test_builtin_lookup(self):
        assert builtin_dataset("strawberry").n_clusters == 48
        with pytest.raises(ValueError):
            builtin_dataset("kiwi")


class TestLoadDataset:
    def test_reference_levels_give_zero_covariates(self):
        text = "male,female,block,y1,y2,y3\n1,1,1,0,3,6\n"
        ds = load_dataset(StringIO(text), SCHEMA)
        assert ds.n_clusters == 1
        assert ds.clusters[0].covariates.tolist() == [0.0] * 8
        assert ds.clusters[0].counts.tolist() == [0, 3, 6]

    def test_indicator_expansion(self):
        text = "male,female,block,y1,y2,y3\n2,4,3,1,2,3\n"
        ds = load_dataset(StringIO(text), SCHEMA)
        assert ds.clusters[0].covariates.tolist() == [1, 0, 0, 0, 1, 0, 1, 0]

    def test_empty_file_names_missing_header(self):
        with pytest.raises(DatasetParseError, match="header"):
            load_dataset(StringIO(""), SCHEMA)

    def test_header_mismatch(self):
        with pytest.raises(DatasetParseError, match="header"):
            load_dataset(StringIO("a,b\n1,2\n"), SCHEMA)

    def test_unknown_factor_level_with_line_number(self):
        text = "male,female,block,y1,y2,y3\n1,1,1,1,1,1\n4,1,1,1,1,1\n"
        with pytest.raises(DatasetParseError, match="line 3") as err:
            load_dataset(StringIO(text), SCHEMA)
        assert "male" in str(err.value)

    def test_negative_count(self):
        text = "male,female,block,y1,y2,y3\n1,1,1,1,-2,1\n"
        with pytest.raises(DatasetParseError, match="negative"):
            load_dataset(StringIO(text), SCHEMA)

    def test_non_integer_value(self):
        text = "male,female,block,y1,y2,y3\n1,1,1,1,x,1\n"
        with pytest.raises(DatasetParseError, match="non-integer"):
            load_dataset(StringIO(text), SCHEMA)

    def test_wrong_column_count(self):
        text = "male,female,block,y1,y2,y3\n1,1,1,1,1\n"
        with pytest.raises(DatasetParseError, match="columns"):
            load_dataset(StringIO(text), SCHEMA)

    def test_missing_file(self):
        with pytest.raises(DatasetParseError, match="cannot read"):
            load_dataset("/nonexistent/clusters.csv", SCHEMA)

    def test_whitespace_delimited_accepted(self):
        text = "male female block y1 y2 y3\n1 1 1 0 3 6\n"
        ds = load_dataset(StringIO(text), SCHEMA)
        assert ds.clusters[0].counts.tolist() == [0, 3, 6]


class TestRoundTrip:
    def test_strawberry_round_trips_exactly(self):
        ds = strawberry_dataset()
        again = load_dataset(StringIO(render_dataset(ds)), SCHEMA)
        assert np.array_equal(ds.count_matrix, again.count_matrix)
        assert np.array_equal(ds.covariate_matrix, again.covariate_matrix)
        assert np.array_equal(ds.factor_levels, again.factor_levels)
        assert render_dataset(again) == render_dataset(ds)

    def test_factor_names_and_levels_of_different_widths_are_refused(self):
        # such a dataset would render a header that its own rows do not fit
        clusters = strawberry_dataset().clusters[:2]
        with pytest.raises(ValueError, match="2 factor_names for 1 factor_levels columns"):
            Dataset(clusters=clusters, factor_names=("a", "b"), factor_levels=[[1], [2]])

    def test_simulated_dataset_round_trips(self):
        design = SimulationDesign(
            link=LinkFamily.PROPORTIONAL_ODDS,
            true_params=study_true_parameters(0.6),
            fits=(),
            replications=1,
            seed=3,
        )
        ds = generate_dataset(design, 0)
        schema = FactorSchema(
            factors=(("male", 3), ("female", 4), ("block", 4)), n_categories=3
        )
        again = load_dataset(StringIO(render_dataset(ds)), schema)
        assert np.array_equal(ds.count_matrix, again.count_matrix)
        assert np.array_equal(ds.covariate_matrix, again.covariate_matrix)


@pytest.fixture(scope="module")
def tree():
    ds = strawberry_dataset()
    result = fit(ds, LinkFamily.PROPORTIONAL_ODDS, "none", FitOptions())
    return fit_result_tree(result)


class TestReportRendering:
    def test_json_round_trips_to_identical_values(self, tree):
        text = render_tree(tree, "json")
        assert json.loads(text) == tree

    def test_text_rounds_to_three_decimals(self, tree):
        text = render_tree(tree, "text")
        row = next(line for line in text.splitlines() if line.strip().startswith("c1"))
        assert "-2.171" in row

    def test_json_carries_full_precision_of_text_numbers(self, tree):
        # every rounded number shown in the text table must exist at full
        # precision in the json tree
        text = render_tree(tree, "text")
        payload = json.loads(render_tree(tree, "json"))
        full_values = [
            v
            for p in payload["parameters"]
            for v in p.values()
            if isinstance(v, float)
        ]
        shown = re.findall(r"-?\d+\.\d{3}\b", text)
        for token in shown[:20]:
            target = float(token)
            assert any(abs(v - target) < 5e-4 for v in full_values + [payload["loglik"]])

    def test_csv_has_path_value_rows(self, tree):
        text = render_tree(tree, "csv")
        lines = text.splitlines()
        assert lines[0] == "path,value"
        assert any(line.startswith("parameters.c1.estimate,") for line in lines)

    def test_unknown_format_rejected(self, tree):
        with pytest.raises(ValueError):
            render_tree(tree, "yaml")
