import json

import numpy as np
import pytest

import oqw
from oqw import serialize
from oqw.cli import main, parse_rho
from oqw.errors import InputError
from oqw.fixtures import example_three_site_trap


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# rho parsing


def test_parse_rho_mixed():
    assert np.allclose(parse_rho("mixed", 2), np.eye(2) / 2)


def test_parse_rho_pure():
    rho = parse_rho("pure:1,0", 2)
    assert np.allclose(rho, np.diag([1.0, 0.0]))


def test_parse_rho_diag():
    rho = parse_rho("diag:0.7,0.3", 2)
    assert np.allclose(rho, np.diag([0.7, 0.3]))


def test_parse_rho_normalizes_with_warning(capsys):
    rho = parse_rho("diag:1,1", 2)
    assert np.allclose(rho, np.eye(2) / 2)
    assert "normalizing" in capsys.readouterr().err


def test_parse_rho_rejects_bad_input():
    with pytest.raises(InputError):
        parse_rho("diag:-1,2", 2)
    with pytest.raises(InputError):
        parse_rho("pure:0,0", 2)
    with pytest.raises(InputError):
        parse_rho("diag:1,0,0", 2)


def test_parse_rho_from_file(tmp_path):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(serialize.matrix_to_json(np.eye(2) / 2)))
    assert np.allclose(parse_rho(str(path), 2), np.eye(2) / 2)


# ---------------------------------------------------------------------------
# subcommands


def test_hit_branch_fixture_r1(capsys):
    code, out, _ = run_cli(capsys, "hit", "--walk", "example-5.4",
                           "--from", "1", "--rho", "diag:0,1", "--to", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.0, abs=1e-10)
    assert "walk_digest" in doc
    assert doc["diagnostics"]["method"] == "solve"


def test_return_time_half_line(capsys):
    code, out, _ = run_cli(capsys, "return-time", "--walk", "example-5.2",
                           "--p", "0.75", "--N", "60",
                           "--from", "0", "--rho", "diag:1,0", "--to", "0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(3.0, abs=1e-6)


def test_visits_reports_inf_as_string(capsys):
    code, out, _ = run_cli(capsys, "visits", "--walk", "example-5.1",
                           "--from", "0", "--rho", "pure:1,0", "--to", "0")
    assert code == 0
    assert json.loads(out)["value"] == "inf"


def test_validate_fixture_and_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate", "--walk", "example-5.1")
    assert code == 0
    assert json.loads(out)["value"] == "accepted"
    # a perturbed walk is rejected with exit code 1
    walk = example_three_site_trap()
    doc = serialize.walk_to_json(walk)
    for entry in doc["transitions"]:
        if entry["to"] == "1" and entry["from"] == "0":
            entry["matrix"][0][0][0] *= 1.001
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", "--walk", str(bad))
    assert code == 1
    assert json.loads(out)["value"] == "rejected"


def test_missing_walk_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "hit", "--walk", "no-such-file.json",
                           "--from", "0", "--rho", "mixed", "--to", "1")
    assert code == 1
    assert "error" in err


def test_numerical_error_exit_code(capsys):
    # diverging domain visit count -> exit code 2
    code, _, err = run_cli(capsys, "domain-visits", "--walk", "example-5.1",
                           "--domain", "0,1", "--from", "0",
                           "--rho", "pure:1,0", "--to", "0")
    assert code == 2
    assert "numerical error" in err


def test_emit_validate_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "emit", "--walk", "example-5.4")
    assert code == 0
    walk = serialize.walk_from_json(json.loads(out))
    report = oqw.validate_walk(walk)
    assert report.accepted
    assert report.max_residual <= 1e-12
    assert serialize.walk_digest(walk) == \
        serialize.walk_digest(oqw.fixtures.build_fixture("example-5.4"))


def test_fixtures_list(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "list")
    assert code == 0
    assert "example-5.2" in out


def test_info_on_ring(capsys):
    code, out, _ = run_cli(capsys, "info", "--walk", "random-doubly-stochastic")
    assert code == 0
    doc = json.loads(out)
    assert doc["irreducible"] is True
    assert doc["recurrence"]["case"] == "recurrent"
    assert doc["detailed_balance"]["selfadjoint_within_tol"] is True


def test_info_checks_irreducibility_once(capsys, monkeypatch):
    from oqw import structure

    calls = []
    check = structure.is_irreducible
    monkeypatch.setattr(structure, "is_irreducible",
                        lambda walk: calls.append(walk) or check(walk))
    code, out, _ = run_cli(capsys, "info", "--walk", "cycle")
    assert code == 0
    assert json.loads(out)["recurrence"]["case"] == "recurrent"
    assert len(calls) == 1


def test_info_reducible_reports_decomposition(capsys):
    code, out, _ = run_cli(capsys, "info", "--walk", "example-5.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["irreducible"] is False
    assert "decomposition" in doc


def test_exit_and_harmonic_commands(capsys):
    code, out, _ = run_cli(capsys, "exit", "--walk", "gamblers-ruin",
                           "--domain", "1,2,3,4,5,6,7,8,9",
                           "--from", "3", "--rho", "diag:1")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-10)
    code, out, _ = run_cli(capsys, "harmonic", "--walk", "gamblers-ruin",
                           "--domain", "1,2,3,4,5,6,7,8,9",
                           "--from", "3", "--rho", "diag:1")
    doc = json.loads(out)
    assert doc["measure"]["10"] == pytest.approx(0.3, abs=1e-10)
    assert doc["measure"]["0"] == pytest.approx(0.7, abs=1e-10)


def test_dirichlet_command(capsys, tmp_path):
    problem = {
        "domain": [str(k) for k in range(1, 10)],
        "A": {},
        "B": {"10": [[[1.0, 0.0]]]},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "dirichlet", "--walk", "gamblers-ruin",
                           "--problem", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["solution"]["3"][0][0][0] == pytest.approx(0.3, abs=1e-10)
    assert doc["diagnostics"]["method"] == "block_solve"


def test_dform_command(capsys, tmp_path):
    obs = {s: serialize.matrix_to_json(np.diag([1.0, -1.0]))
           for s in ("0", "1", "2")}
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(obs))
    code, out, _ = run_cli(capsys, "dform", "--walk", "random-doubly-stochastic",
                           "--observable", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["energy"] == pytest.approx(doc["half_gradient_norm"], abs=1e-10)


def test_simulate_command_with_dump(capsys, tmp_path):
    dump = tmp_path / "traj.jsonl"
    code, out, _ = run_cli(capsys, "simulate", "--walk", "example-5.1",
                           "--from", "0", "--to", "0", "--rho", "diag:0.7,0.3",
                           "--seed", "3", "--n-traj", "500", "--horizon", "10",
                           "--dump", str(dump))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["p_hit_by_horizon"] - 0.7) <= 3 * doc["p_standard_error"]
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 500
    rec = json.loads(lines[0])
    assert rec["sites"][0] == "0"


def test_kac_command(capsys):
    code, out, _ = run_cli(capsys, "kac", "--walk", "cycle", "--N", "3", "--p", "1.0",
                           "--site", "0", "--n-traj", "20", "--k-max", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["empirical_return_ratio"] == pytest.approx(3.0)
    assert doc["within_three_sigma"] is True


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "hit", "--walk", "example-5.1", "--format", "table",
                           "--from", "0", "--rho", "mixed", "--to", "0")
    assert code == 0
    assert "value: 0.5" in out


def test_unknown_subcommand_usage(capsys):
    code = main(["frobnicate"])
    assert code == 1


def test_alpha_grid_flag_validation(capsys):
    # every series is summed by the certified solve: there is no alpha grid
    # to set, and the flag is refused whatever its value
    for grid in ("0.5,2.0", "0.5,0.6,0.7"):
        code = main(["hit", "--walk", "example-5.1", "--from", "0", "--rho", "mixed",
                     "--to", "0", "--alpha-grid", grid])
        assert code == 1
        assert "--alpha-grid" in capsys.readouterr().err
