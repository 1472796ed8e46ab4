import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oqw
from oqw import serialize
from oqw.cli import build_parser, main, parse_rho
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


def test_hit_builds_one_capture_series(capsys, monkeypatch):
    from oqw import hitting

    calls = []
    build = hitting.capture_series
    monkeypatch.setattr(hitting, "capture_series",
                        lambda *args, **kw: calls.append(args[1:3]) or build(*args, **kw))
    code, out, _ = run_cli(capsys, "hit", "--walk", "example-5.2", "--p", "0.25",
                           "--N", "80", "--boundary", "taboo",
                           "--from", "0", "--rho", "mixed", "--to", "0")
    assert code == 0
    assert calls == [("0", "0")]
    doc = json.loads(out)
    assert 0.0 <= doc["value"] <= 1.0
    assert doc["diagnostics"]["method"] in ("solve", "compressed")


def test_hit_rejects_an_invalid_state(capsys, tmp_path):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps([[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]))
    code, _, err = run_cli(capsys, "hit", "--walk", "example-5.1",
                           "--from", "0", "--rho", str(path), "--to", "0")
    assert code == 1
    assert "error" in err


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


def test_fixture_params_are_info_flags():
    # every parameter that `oqw fixtures list` names is a flag of `oqw info`
    parser = build_parser()
    for name, params in oqw.fixtures.FIXTURE_PARAMS.items():
        for param in params:
            value = "taboo" if param == "boundary" else "3"
            args = parser.parse_args(["info", "--walk", name, f"--{param}", value])
            assert getattr(args, param.replace("-", "_")) is not None


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_back_to_back_calls_print_what_separate_processes_print(capsys):
    # the parser is shared between in-process calls, so a second call with
    # another subcommand must see none of the first call's arguments
    calls = [["info", "--walk", "example-5.2", "--p", "0.25", "--N", "6", "--boundary", "taboo"],
             ["hit", "--walk", "example-5.4", "--from", "1", "--to", "2", "--rho", "mixed",
              "--format", "table"]]
    together = []
    for argv in calls:
        assert main(argv) == 0
        together.append(capsys.readouterr().out)
    src = Path(oqw.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    apart = [subprocess.run([sys.executable, "-m", "oqw.cli", *argv], capture_output=True,
                            text=True, env=env, timeout=120, check=True).stdout
             for argv in calls]
    assert together == apart


def test_info_on_ring(capsys):
    code, out, _ = run_cli(capsys, "info", "--walk", "random-doubly-stochastic")
    assert code == 0
    doc = json.loads(out)
    assert doc["irreducible"] is True
    assert doc["irreducible_decision"] == "certified"
    assert doc["recurrence"]["case"] == "recurrent"
    assert doc["detailed_balance"]["selfadjoint_within_tol"] is True


def test_info_without_invariant_state_is_heuristic(capsys):
    code, out, _ = run_cli(capsys, "info", "--walk", "example-5.2", "--p", "0.25",
                           "--N", "10", "--boundary", "taboo")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant_site_masses"] is None
    assert doc["irreducible"] is True
    assert doc["irreducible_decision"] == "heuristic"


def test_info_checks_irreducibility_once(capsys, monkeypatch):
    # one decomposition (and so one invariant state) serves the verdict, the
    # fixed-space dimension and the printed decomposition; the spies sit on
    # the structure record's builders, which do the work once per walk
    from oqw import structure, superop

    calls = []

    def counting(name, fn):
        return lambda walk: calls.append(name) or fn(walk)

    monkeypatch.setattr(structure, "_decompose", counting("decompose", structure._decompose))
    monkeypatch.setattr(superop, "_invariant_state",
                        counting("invariant_state", superop._invariant_state))
    for name, key in (("cycle", "recurrence"), ("example-5.1", "decomposition")):
        calls.clear()
        code, out, _ = run_cli(capsys, "info", "--walk", name)
        assert code == 0
        assert key in json.loads(out)
        assert sorted(calls) == ["decompose", "invariant_state"]


def test_info_reads_the_structure_record_the_fixture_filled(capsys, monkeypatch):
    # the fixture's irreducibility assertion factors the 4 x 4 return map at
    # "0", not the 32 x 32 step matrix; info reads the verdict, the
    # decomposition and the invariant state it kept
    from oqw import linalg

    calls = []
    fixed_space = linalg._fixed_space
    monkeypatch.setattr(linalg, "_fixed_space",
                        lambda m: calls.append(m.shape) or fixed_space(m))
    code, out, _ = run_cli(capsys, "info", "--walk", "random-doubly-stochastic",
                           "--N", "8", "--dim", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["irreducible"] is True and doc["irreducible_decision"] == "certified"
    assert calls == [(4, 4)]


def test_info_prints_the_fixed_dimension_without_invariant_state(capsys, monkeypatch):
    from oqw import structure

    monkeypatch.setattr(structure, "invariant_state", lambda walk: (None, 3))
    code, out, _ = run_cli(capsys, "info", "--walk", "cycle")
    assert code == 0
    doc = json.loads(out)
    assert doc["fixed_space_dim"] == 3
    assert doc["irreducible_decision"] == "heuristic"


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


def test_dirichlet_global_command(capsys, tmp_path):
    # gambler's ruin on 0..10 with A = 1 at site 3: the solution exceeds its
    # value at an absorbing end by the visits to 3, 2 min(i, 3) (10 - max(i, 3)) / 10
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"A": {"3": [[[1.0, 0.0]]]}}))
    code, out, _ = run_cli(capsys, "dirichlet", "--walk", "gamblers-ruin", "--method", "global",
                           "--problem", str(path))
    assert code == 0
    doc = json.loads(out)
    z = {int(s): block[0][0][0] for s, block in doc["solution"].items()}
    assert sorted(z) == list(range(11))
    for i, value in z.items():
        assert value - z[0] == pytest.approx(2 * min(i, 3) * (10 - max(i, 3)) / 10, abs=1e-10)
    assert sum(z.values()) == pytest.approx(0.0, abs=1e-10)
    assert doc["uniqueness"].startswith("unique up to a multiple of the identity")
    assert doc["diagnostics"]["method"] == "compressed"


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


def test_simulate_dump_comes_from_the_ensemble(capsys, tmp_path, monkeypatch):
    from oqw import trajectory

    dump = tmp_path / "traj.jsonl"
    want = [trajectory.sample_trajectory(
        example_three_site_trap(), "0", np.diag([0.7, 0.3]), 10, stop={"hit": "0"},
        rng=trajectory.trajectory_rng(3, k), record_states=False) for k in range(40)]
    monkeypatch.setattr(trajectory, "sample_trajectory", None)
    code, _, _ = run_cli(capsys, "simulate", "--walk", "example-5.1",
                         "--from", "0", "--to", "0", "--rho", "diag:0.7,0.3",
                         "--seed", "3", "--n-traj", "40", "--horizon", "10",
                         "--dump", str(dump))
    assert code == 0
    assert [json.loads(line) for line in dump.read_text().splitlines()] == [
        {"sites": r.sites, "stop_reason": r.stop_reason, "stopping_index": r.stopping_index}
        for r in want]


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


# ---------------------------------------------------------------------------
# the input-error contract: bad input prints one ``error:`` line, exits 1


W54 = ["--walk", "example-5.4"]
RDS = ["--walk", "random-doubly-stochastic", "--N", "6", "--fixture-seed", "3"]   # d = 2
BLOCK_3X3 = [[[1, 0], [0, 0], [0, 0]]] * 3
NOT_HERMITIAN = [[[1, 0], [1, 0]], [[0, 0], [0, 0]]]   # [[1, 1], [0, 0]]
BAD_INPUT = {
    # an unknown --from site
    **{f"from-{cmd}": [cmd, *W54, "--from", "9", "--to", "0", "--rho", "mixed"]
       for cmd in ("hit", "visits", "return-time")},
    **{f"from-{cmd}": [cmd, *W54, "--domain", "1,2", "--from", "9", "--rho", "mixed"]
       for cmd in ("exit", "harmonic")},
    "from-domain-visits": ["domain-visits", *W54, "--domain", "1,2", "--from", "9",
                           "--to", "1", "--rho", "mixed"],
    "from-simulate": ["simulate", *W54, "--from", "9", "--to", "0", "--rho", "mixed",
                      "--n-traj", "5", "--horizon", "3"],
    # an unknown --to site of the sampler
    "to-simulate": ["simulate", *W54, "--from", "1", "--to", "9", "--rho", "mixed",
                    "--n-traj", "5", "--horizon", "3"],
    # an unknown --site of the return-time sampler
    "site-kac": ["kac", *W54, "--site", "zzz", "--n-traj", "10", "--k-max", "3"],
    # a sampler run with no trajectory, no step or no return to count
    "simulate-horizon": ["simulate", *W54, "--from", "1", "--to", "0", "--rho", "mixed",
                         "--n-traj", "5", "--horizon", "0"],
    "kac-n-traj": ["kac", *W54, "--site", "1", "--n-traj", "0", "--k-max", "3"],
    "kac-k-max": ["kac", *W54, "--site", "1", "--n-traj", "10", "--k-max", "0"],
    # missing files
    "missing-problem": ["dirichlet", "--walk", "gamblers-ruin", "--problem", "missing.json"],
    "missing-observable": ["dform", "--walk", "gamblers-ruin", "--observable", "missing.json"],
    # invalid JSON
    "json-rho": ["hit", *W54, "--from", "1", "--to", "0", "--rho", "broken.json"],
    "json-problem": ["dirichlet", "--walk", "gamblers-ruin", "--problem", "broken.json"],
    "json-observable": ["dform", "--walk", "gamblers-ruin", "--observable", "broken.json"],
    # documents of the wrong shape
    "problem-without-domain": ["dirichlet", "--walk", "gamblers-ruin",
                               "--problem", "no-domain.json"],
    "problem-not-object": ["dirichlet", "--walk", "gamblers-ruin", "--problem", "list.json"],
    "global-problem-not-object": ["dirichlet", "--walk", "gamblers-ruin", "--method", "global",
                                  "--problem", "list.json"],
    "problem-data-not-object": ["dirichlet", "--walk", "gamblers-ruin",
                                "--problem", "list-data.json"],
    "observable-not-object": ["dform", "--walk", "gamblers-ruin", "--observable", "list.json"],
    "walk-dim-not-number": ["validate", "--walk", "text-dim.json"],
    "template-tolerance-not-number": ["validate", "--walk", "text-tolerance.json"],
    "ragged-state": ["hit", *W54, "--from", "1", "--to", "0", "--rho", "ragged.json"],
    # malformed numbers in a state
    "diag-number": ["hit", *W54, "--from", "1", "--to", "0", "--rho", "diag:x,1"],
    "pure-number": ["hit", *W54, "--from", "1", "--to", "0", "--rho", "pure:1,2k"],
    # observable blocks of the wrong shape or at a site the walk does not have
    "dform-block-shape": ["dform", *RDS, "--observable", "block-3x3.json"],
    "dform-unknown-site": ["dform", *RDS, "--observable", "block-at-9.json"],
    "dform-not-hermitian": ["dform", *RDS, "--observable", "not-hermitian.json"],
    **{f"dirichlet-{method}-A-shape": ["dirichlet", *RDS, "--method", method,
                                       "--problem", "A-3x3.json"]
       for method in ("closed-form", "variational", "global")},
    "dirichlet-B-shape": ["dirichlet", *RDS, "--problem", "B-3x3.json"],
    "global-A-unknown-site": ["dirichlet", *RDS, "--method", "global", "--problem", "A-at-9.json"],
}


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_prints_an_error_line(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "no-domain.json").write_text('{"A": {}}')
    (tmp_path / "list-data.json").write_text('{"domain": ["1"], "A": [1, 2]}')
    (tmp_path / "text-dim.json").write_text('{"sites": [{"id": "0", "dim": "two"}]}')
    (tmp_path / "ragged.json").write_text("[[[1, 0]], [[1, 0], [0, 0]]]")
    (tmp_path / "block-3x3.json").write_text(json.dumps({"1": BLOCK_3X3}))
    (tmp_path / "block-at-9.json").write_text('{"9": [[[1, 0]]]}')
    (tmp_path / "not-hermitian.json").write_text(json.dumps({"0": NOT_HERMITIAN}))
    (tmp_path / "A-3x3.json").write_text(json.dumps({"domain": ["1", "2"], "A": {"1": BLOCK_3X3}}))
    (tmp_path / "B-3x3.json").write_text(json.dumps({"domain": ["1", "2"], "B": {"0": BLOCK_3X3}}))
    (tmp_path / "A-at-9.json").write_text('{"A": {"9": [[[1, 0]]]}}')
    (tmp_path / "text-tolerance.json").write_text(json.dumps(
        {"template": "line", "range": [0, 3], "L_plus": [[[1, 0]]], "L_minus": [[[0, 0]]],
         "tolerance": "small"}))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_observable_blocks_are_checked_where_they_are_read(capsys, tmp_path):
    # shape and site are checked on every block the CLI reads; a block off the
    # domain keeps the message the problem's own check gives it
    cases = {
        "dform": ({"1": BLOCK_3X3}, "observable block at '1' has wrong shape (3, 3)"),
        "dform-hermitian": ({"0": NOT_HERMITIAN}, "observable block at '0' is not Hermitian"),
        "global": ({"A": {"9": [[[1, 0]]]}}, "problem data 'A' block at unknown site '9'"),
        "closed-form": ({"domain": ["1", "2"], "A": {"9": [[[1, 0]]]}},
                        "interior data supported outside the domain: ['9']"),
        "variational": ({"domain": ["1", "2"], "B": {"0": BLOCK_3X3}},
                        "problem data 'B' block at '0' has wrong shape (3, 3)"),
    }
    for method, (doc, message) in cases.items():
        path = tmp_path / f"{method}.json"
        path.write_text(json.dumps(doc))
        argv = (["dform", *RDS, "--observable", str(path)] if method.startswith("dform") else
                ["dirichlet", *RDS, "--method", method, "--problem", str(path)])
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n"), method


def test_dirichlet_repeated_domain_site(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"domain": ["1", "2", "2", "3"],
                                "A": {"1": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}}))
    docs = {}
    for method in ("closed-form", "variational"):
        code, out, _ = run_cli(capsys, "dirichlet", *RDS, "--method", method,
                               "--problem", str(path))
        assert code == 0, method
        docs[method] = json.loads(out)["solution"]
    assert set(docs["variational"]) == set(docs["closed-form"])
    for s, block in docs["closed-form"].items():
        assert np.abs(np.array(docs["variational"][s]) - np.array(block)).max() <= 1e-7


# ---------------------------------------------------------------------------
# README's examples


def _readme_commands() -> list[list[str]]:
    """The ``oqw`` command lines of README's CLI example block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("oqw ")]


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.json").write_text(json.dumps(
        {"domain": [str(k) for k in range(1, 10)], "A": {}, "B": {"10": [[[1.0, 0.0]]]}}))
    (tmp_path / "obs.json").write_text(json.dumps(
        {s: serialize.matrix_to_json(np.diag([1.0, -1.0])) for s in ("0", "1", "2")}))
    commands = _readme_commands()
    assert len(commands) == 13
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        if argv[0] != "fixtures":
            assert "walk_digest" in json.loads(out), argv
    # the piped walk: oqw fixtures emit --walk example-5.4 | oqw validate --walk -
    code, out, _ = run_cli(capsys, "fixtures", "emit", "--walk", "example-5.4")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run_cli(capsys, "validate", "--walk", "-")
    assert code == 0 and json.loads(out)["value"] == "accepted"
