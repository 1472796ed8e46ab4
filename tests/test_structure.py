import math

import numpy as np
import pytest

import oqw
from oqw import fixtures, structure
from oqw.errors import InputError
from oqw.linalg import extend_basis
from oqw.structure import RANK_TOL, Enclosure, _minimal_enclosures, enclosure_closure

from conftest import E1, E2, MIX, rotate, rotation
from test_certificate import fixture_walks, random_walk


def unit(d, k):
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


def fresh(walk):
    """The same walk with an empty structure record."""
    return oqw.WalkSpec(walk.sites, walk.dims, dict(walk.transitions), walk.tolerance)


# ---------------------------------------------------------------------------
# closures


def test_closure_identity_site_keeps_seed():
    walk = oqw.WalkSpec(("0",), {"0": 2}, {("0", "0"): np.eye(2)})
    enc = enclosure_closure(walk, [("0", unit(2, 0))])
    assert enc.dim("0") == 1
    assert np.abs(np.abs(enc.bases["0"][:, 0]) - np.array([1.0, 0.0])).max() <= 1e-12


def test_closure_trap_walk_e2_never_reenters_e1(trap_walk):
    enc = enclosure_closure(trap_walk, [("0", unit(2, 1))])
    assert enc.dim("0") == 1
    assert enc.dim("1") == 0
    assert enc.dim("2") == 1
    # the site-0 component stays along e2
    assert abs(enc.bases["0"][0, 0]) <= 1e-12
    assert enc.closure_defect(trap_walk) <= 1e-8


def test_closure_branch_walk_from_e1(branch_walk):
    # e1 at site 1 spreads to the full fibers at 0 and 1; sites 2 and 3 keep
    # only their reachable e1 lines
    enc = enclosure_closure(branch_walk, [("1", unit(2, 0))])
    assert enc.dim("0") == 1
    assert enc.dim("1") == 2
    assert enc.dim("2") == 1
    assert enc.dim("3") == 1
    assert enc.closure_defect(branch_walk) <= 1e-8


def test_closure_is_transition_closed(half_line_up_taboo, ring_walk):
    rng = np.random.default_rng(11)
    for walk in (half_line_up_taboo, ring_walk):
        s = walk.sites[0]
        v = rng.normal(size=walk.dims[s]) + 1j * rng.normal(size=walk.dims[s])
        enc = enclosure_closure(walk, [(s, v)])
        assert enc.closure_defect(walk) <= 1e-8


def test_closure_rejects_zero_seed(trap_walk):
    with pytest.raises(InputError):
        enclosure_closure(trap_walk, [("0", np.zeros(2))])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closure_drops_rounding_images(branch_walk, seed):
    # L[2,1] kills e2 at "1"; in rotated bases its image there is ~1e-16,
    # which must not be taken for a direction
    walk = rotate(branch_walk, seed)
    e2 = rotation(branch_walk, seed)["1"] @ unit(2, 1)
    enc = enclosure_closure(walk, [("1", e2)])
    assert tuple(enc.dim(s) for s in walk.sites) == (1, 1, 0, 0)
    assert enc.closure_defect(walk) <= 1e-12


def sweep_closure(walk, seeds):
    """Closure by re-sweeping every transition until nothing grows, with the
    same rounding cut as the worklist: unit seeds, and images of orthonormal
    columns of norm at most RANK_TOL dropped."""
    bases = {s: np.zeros((walk.dims[s], 0), dtype=complex) for s in walk.sites}
    for s, v in seeds:
        v = np.asarray(v, dtype=complex).reshape(-1, 1)
        bases[s] = extend_basis(bases[s], v / np.linalg.norm(v))
    for _ in range(walk.total_dim + 1):
        grew = False
        for (to, fr), L in walk.transitions.items():
            if bases[fr].shape[1]:
                before = bases[to].shape[1]
                image = L @ bases[fr]
                image = image[:, np.linalg.norm(image, axis=0) > RANK_TOL]
                bases[to] = extend_basis(bases[to], image)
                grew = grew or bases[to].shape[1] > before
        if not grew:
            break
    return Enclosure(bases)


def plus_minus_walk():
    """Two sites, d=2, every block upper-triangular in the (|+>, |->) basis, so
    span{|+>} is closed at both sites while |-> leaks into it."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    t1 = np.array([[1.0 / np.sqrt(2.0), 0.5], [0.0, 0.5]])
    t2 = np.array([[1.0 / np.sqrt(2.0), -0.5], [0.0, 0.5]])
    trans = {("0", "0"): h @ t1 @ h, ("1", "0"): h @ t2 @ h,
             ("0", "1"): h @ t2 @ h, ("1", "1"): h @ t1 @ h}
    return oqw.WalkSpec(("0", "1"), {"0": 2, "1": 2}, trans), h[:, 0]


def test_worklist_closure_matches_sweep(trap_walk, branch_walk, ring_walk, half_line_up_taboo):
    rng = np.random.default_rng(13)
    walks = [trap_walk, branch_walk, ring_walk, half_line_up_taboo, plus_minus_walk()[0]]
    walks += [rotate(trap_walk, seed) for seed in (1, 2, 3)]
    walks += [rotate(branch_walk, 4)]
    for walk in walks:
        seeds = [[(s, unit(walk.dims[s], k))] for s in walk.sites[:3]
                 for k in range(walk.dims[s])]
        s = walk.sites[-1]
        seeds.append([(s, rng.normal(size=walk.dims[s]) + 1j * rng.normal(size=walk.dims[s]))])
        for seed in seeds:
            got = enclosure_closure(walk, seed)
            want = sweep_closure(walk, seed)
            for t in walk.sites:
                d = walk.dims[t]
                assert got.dim(t) == want.dim(t)
                assert np.abs(got.projector(t, d) - want.projector(t, d)).max() <= 1e-10
            assert got.closure_defect(walk) <= 1e-8


def test_extend_basis_ignores_rounding_residual():
    basis = np.array([[1.0], [0.0]], dtype=complex)
    assert extend_basis(basis, np.array([[1.0], [1e-17]], dtype=complex)).shape == (2, 1)
    assert extend_basis(basis, np.array([[1.0], [1e-6]], dtype=complex)).shape == (2, 2)
    assert extend_basis(basis, np.array([[0.0], [1e-20]], dtype=complex)).shape == (2, 2)


def test_closed_line_is_its_own_closure():
    walk, plus = plus_minus_walk()
    line = Enclosure({s: plus.reshape(2, 1).astype(complex) for s in walk.sites})
    assert line.closure_defect(walk) <= 1e-12
    enc = enclosure_closure(walk, [("0", plus)])
    assert (enc.dim("0"), enc.dim("1")) == (1, 1)
    assert np.abs(enc.projector("0", 2) - line.projector("0", 2)).max() <= 1e-12
    deco = oqw.decompose(walk)
    assert [(e.dim("0"), e.dim("1")) for e in deco.recurrent] == [(1, 1)]
    assert (deco.transient.dim("0"), deco.transient.dim("1")) == (1, 1)


# ---------------------------------------------------------------------------
# irreducibility


def test_trap_walk_reducible_with_witness(trap_walk):
    ok, witness = oqw.is_irreducible(trap_walk)
    assert not ok
    assert witness is not None
    assert not witness.is_full(trap_walk)
    assert witness.closure_defect(trap_walk) <= 1e-8


def test_plus_minus_walk_reducible_with_plus_line_witness():
    walk, plus = plus_minus_walk()
    ok, witness = oqw.is_irreducible(walk)
    assert not ok
    assert not witness.is_full(walk)
    assert witness.closure_defect(walk) <= 1e-12
    for s in walk.sites:
        assert np.abs(witness.projector(s, 2) - np.outer(plus, plus)).max() <= 1e-12


def test_half_line_taboo_truncation_irreducible():
    for n in (2, 5, 17):
        walk = fixtures.example_half_line(0.25, n, boundary="taboo")
        ok, _ = oqw.is_irreducible(walk)
        assert ok


def closure_per_basis_vector(walk):
    """Heuristic irreducibility by one full closure per basis vector, in
    declared site order: the first closure that is not full is the witness."""
    for s in walk.sites:
        for e in np.eye(walk.dims[s], dtype=complex):
            enc = enclosure_closure(walk, [(s, e)])
            if not enc.is_full(walk):
                return False, enc
    return True, None


def scalar_walk(weights):
    """Walk with one-dimensional fibers and the given (to, from) -> weight blocks."""
    sites = sorted({s for key in weights for s in key})
    return oqw.WalkSpec(tuple(sites), {s: 1 for s in sites},
                        {key: np.array([[w]]) for key, w in weights.items()})


def shortcut_then_witness_walk():
    """Sites "0" and "1" lead everywhere, "2" and "3" only to each other; mass
    leaks, so there is no invariant state.  The closure from "1" fills the
    known site "0" and stops; the closure from "2" is the witness {2, 3}."""
    r = np.sqrt(0.5)
    return scalar_walk({("1", "0"): 1.0, ("0", "1"): r, ("2", "1"): r,
                        ("3", "2"): 1.0, ("2", "3"): 0.5})


def heuristic_oracle_walks():
    fixed = list(fixture_walks().values())
    walks = fixed + [rotate(w, seed) for seed, w in enumerate(fixed)]
    walks += [random_walk(seed, substochastic=True) for seed in range(300)]
    walks += [fixtures.example_half_line(p, n, boundary="taboo")
              for p in (0.25, 0.5, 0.75) for n in (2, 7, 30)]
    walks += [fixtures.example_lattice_nonnormal(n, "taboo") for n in (2, 4, 8)]
    walks += [fixtures.example_lattice_normal(0.3, 0.7, n, "taboo") for n in (2, 4)]
    walks += [scalar_walk({("1", "0"): 1.0, ("2", "1"): 1.0, ("1", "2"): 0.5}),
              shortcut_then_witness_walk()]
    return [w for w in walks if oqw.decompose(w).invariant is None]


def test_known_site_stop_keeps_verdicts_and_witnesses():
    walks = heuristic_oracle_walks()
    assert len(walks) >= 200
    verdicts = []
    for walk in walks:
        ok, witness, how = structure.irreducibility(walk, oqw.decompose(walk))
        want_ok, want = closure_per_basis_vector(walk)
        assert (ok, how) == (want_ok, "heuristic")
        if want is None:
            assert witness is None
        else:
            for s in walk.sites:
                assert np.array_equal(witness.bases[s], want.bases[s])
        verdicts.append(ok)
    assert 0 < sum(verdicts) < len(verdicts)


def test_witness_after_a_closure_stopped_at_a_known_site(monkeypatch):
    walk = shortcut_then_witness_walk()
    results = []
    closure = structure._closure

    def spy(*args):
        results.append(closure(*args))
        return results[-1]

    monkeypatch.setattr(structure, "_closure", spy)
    ok, witness = oqw.is_irreducible(walk)
    assert [r is None for r in results] == [False, True, False]
    assert not ok
    assert [witness.dim(s) for s in walk.sites] == [0, 0, 1, 1]


@pytest.mark.parametrize("n", [30, 120])
def test_heuristic_irreducibility_makes_linearly_many_basis_extensions(n, monkeypatch):
    walk = fixtures.example_half_line(0.25, n, boundary="taboo")
    calls = []

    def spy(*args):
        calls.append(None)
        return extend_basis(*args)

    monkeypatch.setattr(structure, "extend_basis", spy)
    ok, _ = oqw.is_irreducible(walk)
    assert ok
    assert len(calls) <= 5 * walk.total_dim


def test_minimal_dilation_irreducibility_matches_connectivity():
    ok, _ = oqw.is_irreducible(fixtures.cycle_dilation(4, bias=0.7))
    assert ok
    ok, _ = oqw.is_irreducible(fixtures.gamblers_ruin(5, 0.5))
    assert not ok  # absorbing edges


def test_irreducible_walk_factors_its_return_map_once(monkeypatch):
    # the fixture's own irreducibility assertion fills its walk's structure
    # record, so the same walk is built again with an empty one; the verdict
    # reads the 25 x 25 first-return map at "0", never the 150 x 150 step
    # matrix, and takes no SVD at all once it is kept
    walk = fresh(fixtures.random_doubly_stochastic(6, 5, seed=4))
    n = walk.dims["0"] ** 2
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kw):
        shapes.append(np.shape(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", spy)
    ok, witness = oqw.is_irreducible(walk)
    assert ok and witness is None
    assert shapes.count((n, n)) == 1
    assert max(shapes, key=lambda s: s[0] * s[-1]) == (n, n)
    shapes.clear()
    assert oqw.is_irreducible(walk) == (True, None)
    assert shapes == []


def test_irreducibility_invariant_under_local_unitaries(ring_walk):
    rng = np.random.default_rng(12)
    us = {}
    for s in ring_walk.sites:
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        us[s] = q
    trans = {(to, fr): us[to] @ L @ us[fr].conj().T
             for (to, fr), L in ring_walk.transitions.items()}
    rotated = oqw.WalkSpec(ring_walk.sites, ring_walk.dims, trans)
    assert oqw.is_irreducible(rotated)[0] == oqw.is_irreducible(ring_walk)[0]


# ---------------------------------------------------------------------------
# the structure record: computed once per walk, read by every structure query


def structure_answers(walk):
    """Verdict, witness, decomposition and invariant state as plain data."""

    def enc(e):
        return None if e is None else {s: b.copy() for s, b in e.bases.items()}

    def state(t):
        return None if t is None else {s: b.copy() for s, b in t.blocks.items()}

    ok, witness = oqw.is_irreducible(walk)
    deco = oqw.decompose(walk)
    tau, k = oqw.invariant_state(walk)
    return (ok, enc(witness), [enc(e) for e in deco.recurrent], enc(deco.transient),
            state(deco.invariant), deco.fixed_dim, deco.warning, state(tau), k)


def same_data(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(
            same_data(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(
            same_data(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("build", [fixtures.example_three_site_trap, shortcut_then_witness_walk,
                                   lambda: twin_cycles(), lambda: plus_minus_walk()[0]],
                         ids=["trap", "heuristic-witness", "twin-cycles", "plus-minus"])
def test_returned_structure_cannot_change_the_record(build):
    # the record's arrays are read-only by design: writing into one raises;
    # replacing one in a returned container leaves the record as it was
    walk = build()
    want = structure_answers(fresh(walk))
    ok, witness = oqw.is_irreducible(walk)
    deco = oqw.decompose(walk)
    tau, _ = oqw.invariant_state(walk)
    for blocks in [*(e.bases for e in [witness, deco.transient, *deco.recurrent]
                     if e is not None),
                   *(t.blocks for t in (tau, deco.invariant) if t is not None)]:
        for s, b in blocks.items():
            with pytest.raises(ValueError, match="read-only"):
                b[...] = 7.0
            blocks[s] = np.full_like(b, 7.0)
    deco.recurrent.clear()
    deco.recurrent.append(Enclosure({}))
    assert same_data(structure_answers(walk), want)
    assert same_data(structure_answers(walk), want)


def test_classify_every_site_reads_one_irreducibility(monkeypatch):
    walk = fixtures.example_half_line(0.25, 30, boundary="taboo")
    calls = []
    closure = structure._closure

    def spy(*args):
        calls.append(None)
        return closure(*args)

    monkeypatch.setattr(structure, "_closure", spy)
    assert oqw.is_irreducible(fresh(walk))[0]
    once = len(calls)
    calls.clear()
    cases = [structure.classify_recurrence(walk, s).case for s in walk.sites]
    assert len(calls) == once > 0
    assert cases == ["mixed"] + ["transient"] * 30


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_irreducible_walk_is_single_full_enclosure(ring_walk):
    deco = oqw.decompose(ring_walk)
    assert len(deco.recurrent) == 1
    assert deco.recurrent[0].is_full(ring_walk)
    assert deco.transient.total_dim() == 0
    assert deco.projector_sum_defect(ring_walk) <= 1e-8


def test_decompose_finds_no_transient_part_without_an_eigh(monkeypatch):
    # one recurrent enclosure that is the whole space leaves nothing transient:
    # no eigh of a projector sum (an identity) per site, and the same result
    # the eigh gives, a d x 0 basis at each of the 8 sites
    walk = fresh(fixtures.random_doubly_stochastic(8, 2, seed=5))
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: seen.append(np.array(a))
                        or eigh(a, *args, **kw))
    deco = oqw.decompose(walk)
    monkeypatch.undo()
    assert seen and not any(np.allclose(a, np.eye(a.shape[-1])) for a in seen)
    assert (len(deco.recurrent), deco.fixed_dim, deco.warning) == (1, 1, None)
    assert deco.recurrent[0].is_full(walk)
    for s in walk.sites:
        d = walk.dims[s]
        w, v = np.linalg.eigh(deco.recurrent[0].projector(s, d))
        assert deco.transient.bases[s].shape == v[:, w < 0.5].shape == (d, 0)
        assert deco.transient.bases[s].dtype == v.dtype
        assert np.allclose(deco.recurrent[0].projector(s, d), np.eye(d))
    assert deco.projector_sum_defect(walk) <= 1e-8


def test_decompose_trap_walk(trap_walk):
    deco = oqw.decompose(trap_walk)
    assert deco.projector_sum_defect(trap_walk) <= 1e-8
    # e1 direction at site 0 belongs to the recurrent cycle, e2 to none
    d0 = sum(enc.dim("0") for enc in deco.recurrent)
    assert d0 == 1
    assert deco.transient.dim("0") == 1
    assert sum(enc.dim("2") for enc in deco.recurrent) == 2
    # the fixed space is degenerate (site "2" carries a full matrix algebra),
    # yet the split into minimal enclosures needs no warning
    assert deco.fixed_dim == 5 > len(deco.recurrent) == 3
    assert deco.warning is None


def test_decompose_direct_sum_recovers_components(ring_walk):
    other = fixtures.cycle_dilation(2, bias=0.5)
    sites = tuple(f"a{s}" for s in ring_walk.sites) + tuple(f"b{s}" for s in other.sites)
    dims = {f"a{s}": d for s, d in ring_walk.dims.items()}
    dims.update({f"b{s}": d for s, d in other.dims.items()})
    trans = {(f"a{t}", f"a{f}"): L for (t, f), L in ring_walk.transitions.items()}
    trans.update({(f"b{t}", f"b{f}"): L for (t, f), L in other.transitions.items()})
    walk = oqw.WalkSpec(sites, dims, trans)
    deco = oqw.decompose(walk)
    assert len(deco.recurrent) == 2
    assert deco.transient.total_dim() == 0
    supports = [{s for s in sites if enc.dim(s) > 0} for enc in deco.recurrent]
    assert {frozenset(x) for x in supports} == {
        frozenset(s for s in sites if s.startswith("a")),
        frozenset(s for s in sites if s.startswith("b"))}


def twin_cycles():
    """Two disjoint scalar 2-cycles a0 <-> a1 and b0 <-> b1."""
    a = fixtures.cycle_dilation(2, 0.5)
    sites = tuple(f"a{s}" for s in a.sites) + tuple(f"b{s}" for s in a.sites)
    trans = {(f"a{t}", f"a{f}"): L for (t, f), L in a.transitions.items()}
    trans.update({(f"b{t}", f"b{f}"): L for (t, f), L in a.transitions.items()})
    return oqw.WalkSpec(sites, {s: 1 for s in sites}, trans)


DECOMPOSE_FIXTURES = {"example-5.1": fixtures.example_three_site_trap(),
                      "example-5.4": fixtures.example_branch_return(),
                      "ruin11": fixtures.gamblers_ruin(11, 0.5),
                      "twin-cycles": twin_cycles(),
                      # fixed dimension 1: a faithful and a non-faithful invariant state
                      "ring": fixtures.random_doubly_stochastic(4, 3, seed=1),
                      "half-line": fixtures.example_half_line(0.25, 10)}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_FIXTURES))
@pytest.mark.parametrize("seed", [None] + list(range(1, 21)))
def test_decompose_gives_orthogonal_minimal_enclosures(name, seed):
    walk = DECOMPOSE_FIXTURES[name]
    if seed is not None:
        walk = rotate(walk, seed)
    deco = oqw.decompose(walk)
    assert deco.warning is None
    assert deco.projector_sum_defect(walk) <= 1e-10
    for k, enc in enumerate(deco.recurrent):
        assert enc.closure_defect(walk) <= 1e-10
        for other in deco.recurrent[k + 1:]:
            for s in walk.sites:
                d = walk.dims[s]
                assert np.abs(enc.projector(s, d) @ other.projector(s, d)).max() <= 1e-10
        sub, _ = oqw.restrict_walk(walk, enc)
        assert oqw.invariant_state(sub)[1] == 1
    if deco.fixed_dim == 1:
        # the support's closure is returned unsplit; splitting it finds nothing
        (enc,) = deco.recurrent
        (found,) = _minimal_enclosures(walk, enc)
        assert found is enc


def test_decompose_splits_enclosures_the_ramp_does_not_separate():
    # 0 <-> 3 and 1 <-> 2: diag(1..4)/4 projects to 5/8 on both cycles
    one = np.ones((1, 1))
    walk = oqw.WalkSpec(("0", "1", "2", "3"), {s: 1 for s in "0123"},
                        {("3", "0"): one, ("0", "3"): one, ("1", "2"): one, ("2", "1"): one})
    deco = oqw.decompose(walk)
    supports = {frozenset(s for s in walk.sites if enc.dim(s)) for enc in deco.recurrent}
    assert supports == {frozenset("03"), frozenset("12")}
    assert not oqw.is_irreducible(walk)[0]


def test_decompose_leaves_a_slowly_leaking_part_transient():
    # the chain leaks into "cut+" about (1/3)^20 per step, below the fixed-point
    # tolerance; it is still not closed, so only the cemetery is recurrent
    walk = fixtures.example_half_line(0.75, 20)
    deco = oqw.decompose(walk)
    assert deco.fixed_dim == 2
    assert [{s for s in walk.sites if enc.dim(s)} for enc in deco.recurrent] == [{"cut+"}]
    assert deco.transient.total_dim() == walk.total_dim - 1
    ok, witness = oqw.is_irreducible(walk)
    assert not ok and witness.closure_defect(walk) == 0.0


def test_restrict_walk_is_stochastic_on_enclosure(trap_walk):
    deco = oqw.decompose(trap_walk)
    cycle = next(enc for enc in deco.recurrent if enc.dim("0") == 1)
    sub, _ = oqw.restrict_walk(trap_walk, cycle)
    assert oqw.validate_walk(sub).accepted


# ---------------------------------------------------------------------------
# recurrence classification


def test_classify_requires_irreducible(trap_walk):
    with pytest.raises(InputError, match="reducible"):
        oqw.classify_recurrence(trap_walk, "0")


def test_classify_recurrent_cases():
    # any finite irreducible walk with an invariant state is recurrent
    for walk in (fixtures.cycle_dilation(4, 0.7),
                 fixtures.random_doubly_stochastic(3, 2, seed=7),
                 fixtures.example_half_line(0.75, 30, boundary="taboo")):
        verdict = oqw.classify_recurrence(walk, walk.sites[0])
        assert verdict.case == "recurrent"
        assert verdict.expected_visits_finite is False


def test_classify_transient_open_chain():
    t = np.zeros((6, 6))
    for k in range(6):
        if k + 1 < 6:
            t[k + 1, k] = 0.7
        if k - 1 >= 0:
            t[k - 1, k] = 0.3
    trans = {(str(i), str(j)): np.array([[np.sqrt(t[i, j])]], dtype=complex)
             for i in range(6) for j in range(6) if t[i, j] > 0}
    walk = oqw.WalkSpec(tuple(str(k) for k in range(6)),
                        {str(k): 1 for k in range(6)}, trans)
    verdict = oqw.classify_recurrence(walk, "2")
    assert verdict.case == "transient"
    assert verdict.expected_visits_finite is True


def test_classify_mixed_half_line(half_line_up_taboo):
    verdict = oqw.classify_recurrence(half_line_up_taboo, "0")
    assert verdict.case == "mixed"
    assert np.allclose(verdict.witness_sure, E2, atol=1e-8)
    assert np.allclose(verdict.witness_deficient, MIX, atol=1e-12)
    # witnesses behave as claimed
    p_sure = oqw.passage_probability(half_line_up_taboo, "0", verdict.witness_sure, "0")
    p_def = oqw.passage_probability(half_line_up_taboo, "0",
                                    verdict.witness_deficient, "0")
    assert p_sure >= 1 - 1e-6
    assert p_def <= 1 - 1e-3


def test_classify_builds_one_return_series(half_line_up_taboo, monkeypatch):
    from oqw import hitting, structure

    calls = []
    build = hitting.capture_series
    for module in (hitting, structure):
        monkeypatch.setattr(module, "capture_series",
                            lambda *args, **kw: calls.append(args[1:]) or build(*args, **kw))
    oqw.classify_recurrence(half_line_up_taboo, "0")
    assert calls == [("0", "0")]


def test_classify_reports_the_series_certificate(half_line_up_taboo, monkeypatch):
    sizes = []
    eigvals = np.linalg.eigvals

    def spy(m):
        sizes.append(m.shape[0])
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    verdict = oqw.classify_recurrence(half_line_up_taboo, "0")
    assert sizes == []   # the certificate decides; no dense eigvals at all
    diag = verdict.diagnostics
    assert diag["radius_source"] == "certificate"
    assert diag["radius_bound"] < 1.0 and diag["residual"] <= 1e-12
    assert "interior_spectral_radius" not in diag


def test_classify_agrees_with_classical_recurrence():
    # minimal dilations of finite irreducible chains are always recurrent
    for bias in (0.5, 0.8):
        verdict = oqw.classify_recurrence(fixtures.cycle_dilation(5, bias), "0")
        assert verdict.case == "recurrent"


# ---------------------------------------------------------------------------
# decomposition bounds


def test_bounds_equality_inside_enclosure(trap_walk):
    deco = oqw.decompose(trap_walk)
    rep = oqw.check_decomposition_bounds(trap_walk, deco, "0", E1, "0")
    assert rep.inequalities_hold
    assert rep.supported_in_recurrent
    assert rep.equalities_hold


def test_bounds_strict_for_leaking_state(trap_walk):
    deco = oqw.decompose(trap_walk)
    rep = oqw.check_decomposition_bounds(trap_walk, deco, "0", MIX, "0")
    assert rep.inequalities_hold
    assert not rep.supported_in_recurrent
    # return time is strictly larger than the enclosure sum (inf vs finite)
    assert math.isinf(rep.return_time[0])
    assert not math.isinf(rep.return_time[1])


def test_bounds_share_one_first_passage_per_walk(trap_walk, monkeypatch):
    # passage, visits and return time come from one i -> j series on the walk
    # and one on the enclosure's sub-walk, bit for bit the separate queries
    from oqw import hitting

    deco = oqw.decompose(trap_walk)
    calls = []
    build = hitting.capture_series
    monkeypatch.setattr(hitting, "capture_series",
                        lambda *args: calls.append(args[1:]) or build(*args))
    rep = oqw.check_decomposition_bounds(trap_walk, deco, "0", MIX, "0")
    assert calls == [("0", "0")] * 2
    monkeypatch.undo()
    sub, _ = structure.restrict_walk(trap_walk, deco.recurrent[0])
    block = deco.recurrent[0].bases["0"].conj().T @ MIX @ deco.recurrent[0].bases["0"]
    weight = float(np.trace(block).real)
    separate = [(oqw.passage_probability(w, "0", r, "0"), oqw.expected_visits(w, "0", r, "0").value,
                 oqw.expected_return_time(w, "0", r, "0").value)
                for w, r in ((trap_walk, MIX), (sub, block / weight))]
    assert (rep.passage, rep.visits, rep.return_time) == tuple(
        (lhs, weight * rhs) for lhs, rhs in zip(*separate))


def test_bounds_equality_for_mixture_of_enclosures():
    walk = twin_cycles()
    deco = oqw.decompose(walk)
    rep = oqw.check_decomposition_bounds(walk, deco, "a0",
                                         np.array([[1.0]], dtype=complex), "a1")
    assert rep.supported_in_recurrent
    assert rep.equalities_hold


def test_bounds_exit_inside_an_enclosure(trap_walk):
    deco = oqw.decompose(trap_walk)
    rep = oqw.check_decomposition_bounds(trap_walk, deco, "0", E1, "0", domain=["0", "1"])
    assert rep.exit == (0.0, 0.0)   # the e1 cycle never leaves {0, 1}
    assert rep.equalities_hold
    rep = oqw.check_decomposition_bounds(trap_walk, deco, "0", MIX, "0", domain=["0", "1"])
    assert rep.exit == pytest.approx((0.5, 0.0))   # e2 exits to "2" at once
    assert rep.inequalities_hold and not rep.equalities_hold


@pytest.mark.parametrize("target", ["a1", "b0"])
def test_bounds_exit_through_the_enclosure_boundary(target):
    """The exit bound counts every enclosure that carries the state, also one
    that never visits the target, whose return time is then infinite."""
    walk = twin_cycles()
    deco = oqw.decompose(walk)
    rep = oqw.check_decomposition_bounds(walk, deco, "a0", np.array([[1.0]], dtype=complex),
                                         target, domain=["a0"])
    assert rep.exit == pytest.approx((1.0, 1.0))
    assert rep.supported_in_recurrent and rep.equalities_hold
    if target == "b0":
        assert rep.passage == (0.0, 0.0) and rep.visits == (0.0, 0.0)
        assert math.isinf(rep.return_time[0]) and math.isinf(rep.return_time[1])

