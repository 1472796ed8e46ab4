"""JSON round-trips for walks, states, operators and results.

Complex scalars travel as ``[re, im]`` pairs, matrices as nested lists of
such pairs, and infinite expectations as the string ``"inf"`` (JSON has no
infinity literal).  Every CLI result carries a digest of the normalized
walk for provenance.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import InputError
from .fixtures import _line_window
from .linalg import COMPLEX
from .walk import DEFAULT_TOLERANCE, DiagonalObservable, WalkSpec


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=COMPLEX)]


def matrix_from_json(data) -> np.ndarray:
    try:
        return np.array([[complex(cell[0], cell[1]) for cell in row] for row in data],
                        dtype=COMPLEX)
    except (TypeError, IndexError, ValueError) as exc:   # ValueError: ragged rows
        raise InputError(f"malformed matrix payload: {exc}") from exc


def walk_to_json(walk: WalkSpec) -> dict:
    return {
        "sites": [{"id": s, "dim": walk.dims[s]} for s in walk.sites],
        "transitions": [
            {"to": to, "from": fr, "matrix": matrix_to_json(L)}
            for (to, fr), L in sorted(walk.transitions.items())
        ],
        "tolerance": walk.tolerance,
    }


def walk_from_json(data: dict) -> WalkSpec:
    """Parse a walk document; lattice templates are expanded on load."""
    if "template" in data:
        return _expand_template(data)
    try:
        sites = tuple(str(entry["id"]) for entry in data["sites"])
        dims = {str(entry["id"]): int(entry["dim"]) for entry in data["sites"]}
        trans = {
            (str(entry["to"]), str(entry["from"])): matrix_from_json(entry["matrix"])
            for entry in data.get("transitions", [])
        }
        tolerance = float(data.get("tolerance", DEFAULT_TOLERANCE))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed walk document: {exc}") from exc
    return WalkSpec(sites, dims, trans, tolerance)


def _expand_template(data: dict) -> WalkSpec:
    if data.get("template") != "line":
        raise InputError(f"unknown template {data.get('template')!r}")
    try:
        low, high = (int(x) for x in data["range"])
        lp = matrix_from_json(data["L_plus"])
        lm = matrix_from_json(data["L_minus"])
        tolerance = float(data.get("tolerance", DEFAULT_TOLERANCE))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed line template: {exc}") from exc
    boundary = data.get("boundary", "absorbing")
    if boundary not in ("absorbing", "taboo"):
        raise InputError(f"unknown boundary mode {boundary!r}")
    return _line_window(low, high, lp, lm, boundary, tolerance)


def walk_digest(walk: WalkSpec) -> str:
    """Content hash of the normalized spec, for provenance in outputs: SHA-256
    of the ``repr`` of sites, dims, tolerance and sorted transition keys, then
    each block's raw complex128 bytes in key order (``-0.0`` is not ``0.0``)."""
    keys = sorted(walk.transitions)
    head = repr((walk.sites, [walk.dims[s] for s in walk.sites], walk.tolerance, keys))
    blocks = b"".join(walk.transitions[k].tobytes() for k in keys)
    return hashlib.sha256(head.encode() + blocks).hexdigest()[:16]


def observable_to_json(obs: DiagonalObservable) -> dict:
    return {s: matrix_to_json(b) for s, b in obs.blocks.items()}


def observable_from_json(data: dict) -> DiagonalObservable:
    return DiagonalObservable({str(s): matrix_from_json(m) for s, m in data.items()})


def enclosure_to_json(enclosure) -> dict:
    """Per-site orthonormal bases as matrices (d x k, possibly k = 0)."""
    return {s: matrix_to_json(b) for s, b in enclosure.bases.items()}


def decomposition_to_json(deco) -> dict:
    return {
        "recurrent": [enclosure_to_json(enc) for enc in deco.recurrent],
        "transient": enclosure_to_json(deco.transient),
        "fixed_space_dim": deco.fixed_dim,
        "warning": deco.warning,
    }


def verdict_to_json(verdict) -> dict:
    doc = {
        "case": verdict.case,
        "site": verdict.site,
        "return_dual_identity": matrix_to_json(verdict.return_dual_identity),
        "eigenvalues": [float(x) for x in verdict.eigenvalues],
        "diagnostics": verdict.diagnostics,
    }
    if verdict.witness_sure is not None:
        doc["witness_sure"] = matrix_to_json(verdict.witness_sure)
        doc["witness_deficient"] = matrix_to_json(verdict.witness_deficient)
    return doc


def encode_value(x):
    """Floats become JSON numbers; infinities become the string \"inf\"."""
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def result_document(walk: WalkSpec, payload: dict, diagnostics: dict | None = None) -> dict:
    """Payload and diagnostics with top-level infinities encoded, plus the
    walk's digest."""
    doc = {k: encode_value(v) for k, v in payload.items()}
    doc["diagnostics"] = {k: encode_value(v) for k, v in (diagnostics or {}).items()}
    doc["walk_digest"] = walk_digest(walk)
    return doc
