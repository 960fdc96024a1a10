import json
from importlib.resources import files

import jsonschema
import pytest

from upsilon_cd import chains as ch
from upsilon_cd.cli import main


def _schema(name):
    return json.loads(files("upsilon_cd").joinpath(f"schemas/{name}").read_text())


def _write_spec(tmp_path, chain, name="chain.json"):
    path = tmp_path / name
    ch.dump_spec(chain, path)
    return str(path)


class TestValidate:
    def test_valid_family(self, capsys):
        assert main(["validate", "family", "complete", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, _schema("validate_report.schema.json"))
        assert doc["ok"] and doc["irreducible"]

    def test_valid_spec_file(self, tmp_path):
        path = _write_spec(tmp_path, ch.cycle(4))
        assert main(["validate", path, "--out", str(tmp_path / "v")]) == 0
        doc = json.loads((tmp_path / "v.validate.json").read_text())
        assert doc["ok"]

    def test_not_reversible_exit_2(self, tmp_path, capsys):
        doc = {
            "states": ["0", "1", "2"],
            "rates": [
                {"from": "0", "to": "1", "rate": 1.0},
                {"from": "1", "to": "2", "rate": 1.0},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "NotReversible"

    def test_not_irreducible_exit_2(self, tmp_path, capsys):
        doc = {
            "states": ["0", "1", "2", "3"],
            "rates": [
                {"from": "0", "to": "1", "rate": 1.0},
                {"from": "1", "to": "0", "rate": 1.0},
                {"from": "2", "to": "3", "rate": 1.0},
                {"from": "3", "to": "2", "rate": 1.0},
            ],
        }
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "NotIrreducible"


class TestFamily:
    def test_emits_chain_spec(self, tmp_path):
        assert main(["family", "hypercube", "2", "--out", str(tmp_path / "h2")]) == 0
        doc = json.loads((tmp_path / "h2.chain.json").read_text())
        jsonschema.validate(doc, _schema("chain_spec.schema.json"))
        assert doc["states"] == ["00", "01", "10", "11"]

    def test_unknown_family_fails(self):
        assert main(["family", "dodecahedron", "3"]) == 2


class TestCurvature:
    def test_complete2_values(self, tmp_path):
        code = main(
            ["curvature", "family", "complete", "2", "--out", str(tmp_path / "k2"),
             "--starts", "24"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "k2.curvature.json").read_text())
        jsonschema.validate(doc, _schema("curvature_report.schema.json"))
        assert doc["global"]["kappa_upsilon"] == pytest.approx(2.0, abs=1e-6)
        csv = (tmp_path / "k2.curvature.csv").read_text().strip().split("\n")
        assert csv[0] == "vertex,kappa_be,kappa_upsilon"
        assert len(csv) == 3

    def test_hypercube3_constant_in_csv(self, tmp_path):
        code = main(
            ["curvature", "family", "hypercube", "3",
             "--out", str(tmp_path / "h3"), "--starts", "16"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "h3.curvature.json").read_text())
        assert doc["global"]["kappa_upsilon"] == pytest.approx(2.0, abs=1e-5)
        rows = (tmp_path / "h3.curvature.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 8
        for row in rows:
            assert float(row.split(",")[2]) == pytest.approx(2.0, abs=1e-5)

    def test_minus_infinity_in_report(self, tmp_path):
        # branched 5-vertex tree
        doc = {
            "states": ["0", "1", "2", "3", "4"],
            "rates": [
                {"from": a, "to": b, "rate": 1.0}
                for a, b in [
                    ("0", "1"), ("1", "0"), ("1", "2"), ("2", "1"),
                    ("2", "3"), ("3", "2"), ("2", "4"), ("4", "2"),
                ]
            ],
        }
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        assert main(["curvature", str(path), "--out", str(tmp_path / "t"),
                     "--starts", "16"]) == 0
        rep = json.loads((tmp_path / "t.curvature.json").read_text())
        kus = [r["kappa_upsilon"] for r in rep["per_vertex"]]
        assert "minus_infinity" in kus
        assert "minus_infinity" in (tmp_path / "t.curvature.csv").read_text()

    def test_default_opts_block(self, tmp_path):
        assert main(["curvature", "family", "complete", "2",
                     "--out", str(tmp_path / "k2")]) == 0
        doc = json.loads((tmp_path / "k2.curvature.json").read_text())
        assert doc["seed"] == 0
        assert doc["opts"] == {
            "starts": 64, "bound": 80.0, "maxiter": 400, "amplitude": 40.0,
            "minus_inf_threshold": -1e6,
        }

    def test_byte_identical_reruns(self, tmp_path):
        args = ["curvature", "family", "two_point", "1.0", "2.0",
                "--seed", "7", "--starts", "16"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a.curvature.json").read_bytes() == (
            tmp_path / "b.curvature.json"
        ).read_bytes()
        assert (tmp_path / "a.curvature.csv").read_bytes() == (
            tmp_path / "b.curvature.csv"
        ).read_bytes()


class TestFlow:
    def test_flow_artifacts(self, tmp_path):
        code = main(
            ["flow", "family", "hypercube", "2", "--rho0", "random:1",
             "--T", "1.0", "--grid", "501", "--out", str(tmp_path / "f")]
        )
        assert code == 0
        doc = json.loads((tmp_path / "f.flow.json").read_text())
        jsonschema.validate(doc, _schema("flow_summary.schema.json"))
        assert doc["ok"] and doc["mass_error"] <= 1e-10
        assert doc["method"] == "expm"
        lines = (tmp_path / "f.flow.csv").read_text().strip().split("\n")
        assert lines[0] == "t,H,I,d2H"
        assert len(lines) == 502

    def test_densities_sidecar(self, tmp_path):
        code = main(
            ["flow", "family", "complete", "3", "--rho0", "random:2",
             "--T", "0.5", "--grid", "301", "--densities",
             "--out", str(tmp_path / "d")]
        )
        assert code == 0
        doc = json.loads((tmp_path / "d.densities.json").read_text())
        jsonschema.validate(doc, _schema("flow_densities.schema.json"))
        assert len(doc["times"]) == 301
        assert len(doc["densities"][0]) == 3

    def test_p_channel_columns(self, tmp_path):
        code = main(
            ["flow", "family", "complete", "3", "--rho0", "random:1",
             "--T", "0.5", "--grid", "501", "--p", "1.5",
             "--out", str(tmp_path / "fp")]
        )
        assert code == 0
        header = (tmp_path / "fp.flow.csv").read_text().split("\n")[0]
        assert header == "t,H,I,d2H,Hp,Ip"

    def test_explicit_rho0(self, tmp_path):
        code = main(
            ["flow", "family", "complete", "2", "--rho0", "[1.5, 0.5]",
             "--T", "0.5", "--grid", "301", "--out", str(tmp_path / "e")]
        )
        assert code == 0

    def test_decay_violation_exit_4(self, tmp_path):
        # kappa far above the true rate forces a residual failure
        code = main(
            ["flow", "family", "complete", "2", "--rho0", "[1.5, 0.5]",
             "--T", "1.0", "--grid", "501", "--kappa", "50.0",
             "--out", str(tmp_path / "bad")]
        )
        assert code == 4
        doc = json.loads((tmp_path / "bad.flow.json").read_text())
        assert not doc["decay_holds"]

    def test_default_grid(self, tmp_path):
        assert main(["flow", "family", "complete", "2", "--rho0", "[1.5, 0.5]",
                     "--out", str(tmp_path / "g")]) == 0
        assert json.loads((tmp_path / "g.flow.json").read_text())["n_times"] == 201

    def test_grid_zero_is_invalid(self, tmp_path, capsys):
        code = main(["flow", "family", "complete", "2", "--grid", "0",
                     "--out", str(tmp_path / "g0")])
        assert code == 2
        assert "InvalidParameter" in capsys.readouterr().err
        assert not (tmp_path / "g0.flow.csv").exists()

    def test_fractional_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["flow", "family", "complete", "2", "--grid", "2.7"])
        assert exc.value.code == 1


class TestMlsiBeckner:
    def test_mlsi_pass(self, capsys):
        assert main(
            ["mlsi", "family", "hypercube", "2", "--alpha", "2.0",
             "--samples", "200", "--seed", "5"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, _schema("mlsi_report.schema.json"))
        assert doc["holds"]

    def test_mlsi_violation_exit_4(self, capsys):
        assert main(
            ["mlsi", "family", "hypercube", "2", "--alpha", "2.3",
             "--samples", "200", "--seed", "5"]
        ) == 4

    def test_beckner(self, capsys):
        assert main(
            ["beckner", "family", "complete", "2", "--alpha", "0.5",
             "--p", "1.5", "--samples", "200", "--seed", "5"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, _schema("beckner_report.schema.json"))

    def test_worst_sample_named(self, capsys):
        for cmd in (["mlsi"], ["beckner", "--p", "1.5"]):
            assert main(
                cmd + ["family", "hypercube", "2", "--alpha", "2.0",
                       "--samples", "50", "--seed", "1"]
            ) == 0
            doc = json.loads(capsys.readouterr().out)
            jsonschema.validate(doc, _schema(f"{cmd[0]}_report.schema.json"))
            kind = "random" if doc["worst_index"] < 50 else "tilt"
            assert doc["worst_kind"] == kind


class TestTensor:
    def test_product_check(self, capsys):
        code = main(
            ["tensor", "--a", "family complete 2", "--b", "family complete 2",
             "--kappa1", "2.0", "--kappa2", "2.0", "--starts", "16"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, _schema("tensor_report.schema.json"))
        assert doc["all_hold"] and doc["kappa"] == 2.0


@pytest.mark.parametrize("argv", [
    ["tensor", "--a", "family two_point 1 1", "--b", "family two_point 1 1",
     "--kappa1", "nan", "--kappa2", "1"],
    ["tensor", "--a", "family two_point 1 1", "--b", "family two_point 1 1",
     "--kappa1", "1", "--kappa2", "inf"],
    ["mlsi", "family", "hypercube", "3", "--alpha", "nan"],
    ["beckner", "family", "hypercube", "3", "--alpha", "nan", "--p", "1.5"],
])
def test_non_finite_kappa_or_alpha_exits_2(argv, capsys):
    # these hung (tensor) or printed "holds": true and exited 0 (mlsi)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InvalidParameter: ")


class TestUsage:
    def test_missing_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["flow", "family", "complete", "2", "--starts", "5"],
        ["curvature", "family", "complete", "2", "--amplitude", "3"],
    ])
    def test_flags_a_command_does_not_read_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1

    def test_unreadable_input_is_usage_error(self):
        assert main(["validate", "/nonexistent/chain.json"]) == 1
