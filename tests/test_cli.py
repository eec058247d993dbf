import json

import pytest

from ordmixed.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFitCommand:
    def test_builtin_fixture_text_output(self, capsys):
        code, out, err = run_cli(
            capsys, "fit", "--link", "po", "--random-effects", "none"
        )
        assert code == 0 and err == ""
        assert "c1" in out and "-2.171" in out
        assert "sigma" not in out

    def test_random_effect_column_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--link", "po", "--random-effects", "one"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip().startswith("sigma")]
        assert len(lines) == 1
        # estimate, se, p, and both interval bounds on the row
        assert len(lines[0].split()) == 6

    def test_data_file_with_schema(self, tmp_path, capsys):
        path = tmp_path / "toy.csv"
        path.write_text(
            "g,y1,y2,y3\n"
            + "\n".join(f"{1 + i % 2},{2 + i % 3},{3},{5 - i % 3}" for i in range(8))
            + "\n"
        )
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--schema", "g:2",
            "--categories", "3", "--link", "acl",
        )
        assert code == 0, err
        assert "g2" in out

    def test_json_format_parses(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--link", "acl", "--random-effects", "none",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["model"]["link"] == "acl"
        assert payload["converged"] is True


class TestGofCommand:
    def test_panel_includes_chi2_C_aic(self, capsys):
        code, out, _ = run_cli(
            capsys, "gof", "--link", "po", "--random-effects", "none",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["gof"]["chi2"]["df"] == 86
        assert payload["gof"]["C"]["df"] == 8
        assert payload["gof"]["chi2"]["statistic"] == pytest.approx(146.1, abs=0.5)
        assert payload["gof"]["aic"] == pytest.approx(384.1, abs=1.0)

    def test_json_keys_unchanged(self, capsys):
        code, out, _ = run_cli(
            capsys, "gof", "--link", "po", "--random-effects", "one", "--format", "json",
        )
        assert code == 0
        assert _key_paths(json.loads(out)) == [
            "fit", "fit.model", "fit.model.link", "fit.model.random_effects",
            "fit.loglik", "fit.converged", "fit.iterations", "fit.n_parameters",
            "fit.parameters", "fit.parameters.[].name", "fit.parameters.[].estimate",
            "fit.parameters.[].se", "fit.parameters.[].p_value",
            "fit.parameters.[].ci_lower", "fit.parameters.[].ci_upper",
            "fit.diagnostics", "fit.diagnostics.gradient_max_scaled",
            "fit.diagnostics.optimizer_message", "fit.diagnostics.information_passes",
            "gof", "gof.chi2", "gof.chi2.statistic", "gof.chi2.df", "gof.chi2.p_value",
            "gof.C", "gof.C.statistic", "gof.C.df", "gof.C.p_value", "gof.aic",
            "gof.icc", "gof.icc.value", "gof.icc.se", "gof.icc.p_value",
            "gof.icc.ci_lower", "gof.icc.ci_upper",
        ]


def _key_paths(node, prefix=""):
    """Dotted key paths of a JSON tree in document order; list items are
    represented by their first element under ``[]``."""
    paths = []
    if isinstance(node, dict):
        for key, value in node.items():
            paths.append(prefix + key)
            paths += _key_paths(value, f"{prefix}{key}.")
    elif isinstance(node, list) and node:
        paths += _key_paths(node[0], prefix + "[].")
    return paths


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        argv = [
            "simulate", "--link", "po", "--sigma", "0.6",
            "--replications", "3", "--seed", "11",
            "--fit", "po:none", "--fit", "po:one",
            "--order", "8", "--format", "json",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert set(payload["models"]) == {"po:none", "po:univariate"}

    def test_default_fit_list_is_both_variants(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--link", "crl", "--replications", "2",
            "--seed", "4", "--order", "6", "--format", "json",
        )
        payload = json.loads(out)
        assert set(payload["models"]) == {"crl:none", "crl:univariate"}

    def test_order_env_override(self, capsys, monkeypatch):
        argv = [
            "simulate", "--link", "po", "--replications", "2", "--seed", "4",
            "--fit", "po:one", "--format", "json",
        ]
        monkeypatch.setenv("ORDMIXED_ORDER", "6")
        code, low, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("ORDMIXED_ORDER", "30")
        code, high, _ = run_cli(capsys, *argv)
        assert code == 0
        # different quadrature orders shift the fitted values slightly
        assert low != high

    def test_empty_workers_variable_counts_as_unset(self, capsys, monkeypatch):
        argv = [
            "simulate", "--link", "po", "--replications", "2", "--seed", "4",
            "--fit", "po:none", "--format", "json",
        ]
        monkeypatch.setenv("ORDMIXED_WORKERS", "")
        code, empty, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        monkeypatch.delenv("ORDMIXED_WORKERS")
        code, unset, _ = run_cli(capsys, *argv)
        assert code == 0 and empty == unset


class TestReproduceCommand:
    def test_table2_deltas_are_small(self, capsys):
        code, out, err = run_cli(
            capsys, "reproduce", "table2", "--format", "json"
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["preset"] == "table2"
        rows = {r["name"]: r for r in payload["rows"]}
        row = rows["none.c1.estimate"]
        assert row["published"] == -2.171
        assert abs(row["delta"]) < 0.01
        assert abs(rows["univariate.sigma.estimate"]["delta"]) < 0.03
        # abbreviated published names map onto the fitted covariate names
        assert rows["none.f4.estimate"]["computed"] is not None
        assert abs(rows["none.f4.estimate"]["delta"]) < 0.01
        assert all(r["computed"] is not None for r in payload["rows"])

    def test_unknown_preset_fails_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "table99")
        assert code == 1
        assert err.startswith("error: ValueError:")
        assert "\n" not in err.strip()


class TestErrors:
    def test_unknown_fixture(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--link", "po", "--fixture", "kiwi")
        assert code == 1
        assert err.startswith("error: ValueError:")

    def test_missing_data_file(self, capsys):
        code, out, err = run_cli(
            capsys, "fit", "--link", "po", "--data", "/nope/missing.csv"
        )
        assert code == 1
        assert err.startswith("error: DatasetParseError:")

    @pytest.mark.parametrize(
        "variable, value, allowed",
        [
            ("ORDMIXED_ORDER", "ten", "an integer in [1, 100]"),
            ("ORDMIXED_ORDER", "101", "an integer in [1, 100]"),
            ("ORDMIXED_ORDER", "0", "an integer in [1, 100]"),
            ("ORDMIXED_WORKERS", "2.5", "an integer >= 1"),
            ("ORDMIXED_WORKERS", "0", "an integer >= 1"),
        ],
    )
    def test_invalid_environment_override(self, capsys, monkeypatch, variable, value, allowed):
        monkeypatch.setenv(variable, value)
        code, out, err = run_cli(
            capsys, "simulate", "--link", "po", "--replications", "2",
        )
        assert code == 1 and out == ""
        assert err == f"error: ValueError: {variable} must be {allowed}, got {value!r}\n"

    @pytest.mark.parametrize("value", ["0", "101"])
    def test_order_flag_out_of_range(self, capsys, value):
        code, out, err = run_cli(capsys, "fit", "--link", "po", "--order", value)
        assert code == 1 and out == ""
        assert err == f"error: ValueError: --order must be an integer in [1, 100], got {value}\n"

    @pytest.mark.parametrize("re_flag", ["one", "two"])
    def test_order_one_with_a_random_effect(self, capsys, re_flag):
        code, out, err = run_cli(
            capsys, "fit", "--link", "po", "--random-effects", re_flag, "--order", "1"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ValueError:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_workers_flag_below_one(self, capsys, value):
        code, out, err = run_cli(
            capsys, "simulate", "--link", "po", "--replications", "2", "--workers", value,
        )
        assert code == 1 and out == ""
        assert err == f"error: ValueError: --workers must be an integer >= 1, got {value}\n"

    def test_bad_flag_single_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--link", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ArgumentError:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["fit", "gof"])
    def test_fit_commands_take_no_seed(self, capsys, command):
        # a fit draws no random numbers, so only the study commands take a seed
        with pytest.raises(SystemExit) as exc:
            main([command, "--link", "po", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
