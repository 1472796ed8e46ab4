import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oqw
from oqw import serialize
from oqw.errors import InputError


def test_matrix_roundtrip_re_im_pairs():
    m = np.array([[1 + 2j, 0.5], [-3j, 4.0]])
    data = serialize.matrix_to_json(m)
    assert data[0][0] == [1.0, 2.0]
    assert np.array_equal(serialize.matrix_from_json(data), m)


def test_walk_roundtrip(branch_walk):
    doc = serialize.walk_to_json(branch_walk)
    back = serialize.walk_from_json(json.loads(json.dumps(doc)))
    assert back.sites == branch_walk.sites
    assert back.dims == branch_walk.dims
    for key, mat in branch_walk.transitions.items():
        assert np.abs(back.transitions[key] - mat).max() <= 1e-15
    assert serialize.walk_digest(back) == serialize.walk_digest(branch_walk)


def test_digest_changes_with_content(trap_walk, branch_walk):
    assert serialize.walk_digest(trap_walk) != serialize.walk_digest(branch_walk)


def test_line_template_expansion():
    s2 = 1 / np.sqrt(2)
    doc = {
        "template": "line",
        "range": [-2, 2],
        "L_plus": serialize.matrix_to_json(s2 * np.array([[1, 1], [0, 0]])),
        "L_minus": serialize.matrix_to_json(s2 * np.array([[0, 0], [1, -1]])),
        "boundary": "absorbing",
    }
    walk = serialize.walk_from_json(doc)
    assert "0" in walk.sites and "cut+" in walk.sites and "cut-" in walk.sites
    assert oqw.validate_walk(walk).accepted


def test_line_template_taboo_is_substochastic():
    doc = {
        "template": "line",
        "range": [0, 3],
        "L_plus": serialize.matrix_to_json(np.sqrt(0.5) * np.eye(2)),
        "L_minus": serialize.matrix_to_json(np.sqrt(0.5) * np.eye(2)),
        "boundary": "taboo",
    }
    walk = serialize.walk_from_json(doc)
    report = oqw.validate_walk(walk)
    assert not report.accepted
    assert report.residuals["0"] == pytest.approx(0.5, abs=1e-12)


def test_malformed_documents_raise_input_errors():
    with pytest.raises(InputError):
        serialize.walk_from_json({"sites": [{"id": "0"}]})
    with pytest.raises(InputError):
        serialize.walk_from_json({"template": "torus"})
    with pytest.raises(InputError):
        serialize.matrix_from_json([[1.0, 2.0]])


def test_infinity_encodes_as_string():
    assert serialize.encode_value(float("inf")) == "inf"
    assert serialize.encode_value(2.5) == 2.5


def test_result_document_shape(trap_walk):
    doc = serialize.result_document(trap_walk, {"value": float("inf")},
                                    {"spectral_radius": 1.0})
    assert doc["walk_digest"] == serialize.walk_digest(trap_walk)
    assert doc["diagnostics"]["spectral_radius"] == 1.0


def test_digest_changes_when_one_entry_moves_by_one_ulp(branch_walk):
    for key in branch_walk.transitions:
        trans = {k: np.array(L) for k, L in branch_walk.transitions.items()}
        a, b = np.unravel_index(np.argmax(np.abs(trans[key])), trans[key].shape)
        x = trans[key][a, b]
        trans[key][a, b] = complex(np.nextafter(x.real, np.inf), x.imag)
        moved = oqw.WalkSpec(branch_walk.sites, branch_walk.dims, trans)
        assert serialize.walk_digest(moved) != serialize.walk_digest(branch_walk), key


def test_digest_tells_negative_zero_from_zero_and_ignores_declared_order():
    sites, dims = ("a", "b"), {"a": 1, "b": 2}
    trans = {("b", "a"): np.array([[1.0], [0.0]]), ("a", "b"): np.array([[0.5, 0.5]])}
    walk = oqw.WalkSpec(sites, dims, trans)
    signed = oqw.WalkSpec(sites, dims, {**trans, ("b", "a"): np.array([[1.0], [-0.0]])})
    reordered = oqw.WalkSpec(sites, dims, dict(reversed(list(trans.items()))))
    assert serialize.walk_digest(signed) != serialize.walk_digest(walk)
    assert serialize.walk_digest(reordered) == serialize.walk_digest(walk)
    # the JSON round trip keeps the sign of zero, and so the digest
    back = serialize.walk_from_json(json.loads(json.dumps(serialize.walk_to_json(signed))))
    assert serialize.walk_digest(back) == serialize.walk_digest(signed)


def test_digest_is_equal_across_processes_with_different_hash_seeds():
    code = ("import oqw; from oqw import serialize; "
            "print(serialize.walk_digest(oqw.fixtures.build_fixture('example-5.4')), "
            "serialize.walk_digest(oqw.fixtures.example_lattice_nonnormal(6, 'absorbing')))")
    src = str(Path(oqw.__file__).resolve().parents[1])
    outs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        outs.add(proc.stdout)
    here = [serialize.walk_digest(oqw.fixtures.build_fixture("example-5.4")),
            serialize.walk_digest(oqw.fixtures.example_lattice_nonnormal(6, "absorbing"))]
    assert outs == {" ".join(here) + "\n"}
