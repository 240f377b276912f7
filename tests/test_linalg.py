import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pure, random_state
from qshannon import channels as ch
from qshannon import decoupling as dec
from qshannon import measure as mea
from qshannon._rng import stream
from qshannon.entropy import (conditional_mutual_quantum, gibbs_free_energy, holevo_chi,
                              relative_entropy_quantum, von_neumann_entropy)
from qshannon.linalg import (
    DensityOperator,
    LayoutError,
    PureState,
    SubsystemLayout,
    density_from_matrix,
    eig_hermitian,
    fidelity_pure,
    haar_random_pure,
    haar_random_unitary,
    layout,
    maximally_mixed,
    partial_trace,
    partial_trace_pure,
    purify,
    qubits,
    random_mixed_state,
    schmidt_decomposition,
    tensor,
    trace_distance,
    trace_norm,
)


class TestLayout:
    def test_builders(self):
        lay = layout({"A": 2, "B": 3})
        assert lay.dims == (2, 3) and lay.labels == ("A", "B")
        assert lay.total_dim == 6
        assert qubits("ABC").dims == (2, 2, 2)

    def test_restrict_preserves_order(self):
        lay = layout({"A": 2, "B": 3, "C": 4})
        sub = lay.restrict(["C", "A"])
        assert sub.labels == ("A", "C") and sub.dims == (2, 4)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout((2, 2), ("A", "A"))

    def test_unknown_label_rejected(self):
        with pytest.raises(LayoutError):
            layout({"A": 2}).index("B")


class TestStates:
    def test_pure_state_normalization_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]), qubits("A"))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 64, 129, 1024])
    def test_pure_state_at_the_edge_gives_a_valid_density(self, d):
        """PureState and DensityOperator test the same squared norm against
        the same tolerance, so every accepted state has a valid density()."""
        rng = np.random.default_rng(d)
        accepted = rejected = 0
        for _ in range(40 if d < 1024 else 8):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v *= math.sqrt(1 + rng.uniform(-1.5e-8, 1.5e-8)) / np.linalg.norm(v)
            try:
                psi = PureState(v, SubsystemLayout((d,), ("A",)))
            except ValueError:
                rejected += 1
                continue
            accepted += 1
            assert psi.density().matrix.shape == (d, d)
        assert accepted and rejected

    def test_pure_state_norm_off_by_5e_7_refused(self):
        # accepted before, though its density operator has trace 1 + 1e-6
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([1 + 5e-7, 0.0]), qubits("A"))

    def test_density_validation(self):
        with pytest.raises(ValueError):
            density_from_matrix(np.array([[0.5, 0.5], [0.1, 0.5]]))
        with pytest.raises(ValueError):
            density_from_matrix(np.eye(2))  # trace 2

    def test_purity_and_eigenvalues(self):
        rho = density_from_matrix(np.diag([0.75, 0.25]))
        assert rho.purity() == pytest.approx(0.625)
        assert rho.eigenvalues() == pytest.approx([0.75, 0.25])


class TestPartialTrace:
    def test_product_state_factors(self):
        a = density_from_matrix(np.diag([0.9, 0.1]), "A")
        b = density_from_matrix(np.diag([0.2, 0.3, 0.5]), "B")
        ab = tensor(a, b)
        assert trace_distance(partial_trace(ab, ["A"]), a) < 1e-12
        assert trace_distance(partial_trace(ab, ["B"]), b) < 1e-12

    def test_pure_route_matches_density_route(self):
        psi = random_pure((2, 3, 2), "ABC", 11)
        for keep in (["A"], ["B"], ["A", "C"], ["B", "C"]):
            assert trace_distance(partial_trace_pure(psi, keep),
                                  partial_trace(psi.density(), keep)) < 1e-10

    def test_trace_preserved(self):
        rho = random_state((2, 2, 3), "XYZ", 13)
        for keep in (["X"], ["Y", "Z"]):
            assert np.trace(partial_trace(rho, keep).matrix).real == pytest.approx(1.0)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), qubits("AB"))
        assert trace_distance(partial_trace_pure(bell, ["A"]),
                              maximally_mixed(qubits("A"))) < 1e-12


class TestEig:
    def test_descending_order_and_reconstruction(self):
        rho = random_state((4,), "A", 17)
        vals, vecs = eig_hermitian(rho.matrix)
        assert np.all(np.diff(vals) <= 1e-12)
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSchmidt:
    def test_reconstruction(self):
        psi = random_pure((2, 2, 3), "ABC", 19)
        dec = schmidt_decomposition(psi, ["A", "B"])
        rebuilt = sum(c * np.kron(dec.left_basis[:, i], dec.right_basis[:, i])
                      for i, c in enumerate(dec.coefficients))
        # the cut (A, B) vs (C) keeps the original index order
        assert np.max(np.abs(rebuilt - psi.amplitudes)) < 1e-10

    def test_coefficients_match_marginal_spectrum(self):
        psi = random_pure((2, 4), "AB", 23)
        dec = schmidt_decomposition(psi, ["A"])
        marg = partial_trace_pure(psi, ["A"]).eigenvalues()
        assert np.allclose(np.sort(dec.coefficients ** 2), np.sort(marg)[-2:],
                           atol=1e-10)

    def test_product_state_rank_one(self):
        psi = tensor(random_pure((2,), "A", 29), random_pure((3,), "B", 31))
        assert schmidt_decomposition(psi, ["A"]).rank == 1


class TestPurify:
    def test_purification_traces_back(self):
        rho = random_state((3,), "A", 37)
        psi = purify(rho)
        assert trace_distance(partial_trace_pure(psi, ["A"]), rho) < 1e-8

    def test_reference_dim_is_rank(self):
        rho = density_from_matrix(np.diag([0.5, 0.5, 0.0]))
        psi = purify(rho)
        assert psi.layout.dims[-1] == 2

    def test_label_collision_avoided(self):
        rho = DensityOperator(np.eye(2) / 2, SubsystemLayout((2,), ("ref",)))
        psi = purify(rho)
        assert len(set(psi.layout.labels)) == 2


class TestHaar:
    def test_unitarity(self):
        u = haar_random_unitary(7, stream(41, 0))
        assert np.max(np.abs(u @ u.conj().T - np.eye(7))) < 1e-10

    def test_determinism(self):
        u1 = haar_random_unitary(4, stream(43, 5))
        u2 = haar_random_unitary(4, stream(43, 5))
        assert np.array_equal(u1, u2)

    def test_mean_entry_moment(self):
        # E |U_00|^2 = 1/d for Haar measure
        vals = [abs(haar_random_unitary(3, stream(47, i))[0, 0]) ** 2
                for i in range(2000)]
        assert np.mean(vals) == pytest.approx(1 / 3, abs=0.02)

    def test_random_mixed_state_full_rank(self):
        rho = random_mixed_state(qubits("AB"), stream(53, 0))
        assert rho.eigenvalues().min() > 1e-6


class TestDistances:
    def test_trace_norm_hermitian_vs_svd_paths(self):
        h = np.diag([1.0, -2.0, 0.5])
        assert trace_norm(h) == pytest.approx(3.5)
        g = np.array([[0, 3], [0, 0]], dtype=complex)
        assert trace_norm(g) == pytest.approx(3.0)

    def test_trace_distance_bounds(self):
        a = random_state((3,), "A", 59)
        b = random_state((3,), "A", 61)
        d = trace_distance(a, b)
        assert 0 <= d <= 2
        assert trace_distance(a, a) < 1e-12

    def test_fidelity_pure(self):
        psi = random_pure((4,), "A", 67)
        assert fidelity_pure(psi, psi.density()) == pytest.approx(1.0)
        assert fidelity_pure(psi, maximally_mixed(psi.layout)) == pytest.approx(0.25)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_partial_trace_linearity_and_unit_trace(idx):
    rho = random_state((2, 3), "AB", 71, index=idx)
    red = partial_trace(rho, ["B"])
    assert np.trace(red.matrix).real == pytest.approx(1.0)
    assert np.min(np.linalg.eigvalsh(red.matrix)) > -1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_triangle_inequality(idx):
    a = random_state((3,), "A", 73, index=idx)
    b = random_state((3,), "A", 79, index=idx)
    c = random_state((3,), "A", 83, index=idx)
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


# ---------------------------------------------------------------------------
# validation at the boundary: results derived from validated states and
# channels are built without their __post_init__ checks
# ---------------------------------------------------------------------------

@pytest.fixture
def checks(monkeypatch):
    """How often each class's __post_init__ runs, by class name."""
    counts = Counter()
    for cls in (SubsystemLayout, PureState, DensityOperator, ch.KrausChannel):
        def counted(self, cls=cls, check=cls.__post_init__):
            counts[cls.__name__] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


MIXED = np.eye(2) / 2
Z_BASIS = mea.POVM((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


def derived_calls():
    """Calls on validated inputs that only derive states and channels."""
    rho = random_state((2, 3, 2), "ABC", 89)
    psi_ra = random_pure((4, 2), ("R", "A"), 97)
    qubit = random_state((2,), "A", 107)
    ensemble = [(0.25, qubit), (0.75, random_state((2,), "A", 151))]
    ad, dep = ch.amplitude_damping(0.3), ch.depolarizing(0.1)
    trial_set = dec.DecouplingTrialSet(dec.random_sigma_ae(4, 2, stream(101, 0)), (2, 2), 5, 103)
    return {
        "conditional_mutual_quantum": lambda: conditional_mutual_quantum(rho),
        "holevo_chi": lambda: holevo_chi(ensemble),
        "accessible_info": lambda: mea.accessible_info(ensemble, Z_BASIS),
        "decoupling_experiment": lambda: dec.decoupling_experiment(trial_set),
        "projected_decoupling_experiment":
            lambda: dec.projected_decoupling_experiment(psi_ra, ad, 2, 5, 109),
        "partial_trace": lambda: partial_trace(rho, ["A", "C"]),
        "apply": lambda: ch.apply(ad, qubit),
        "compose": lambda: ch.compose(dep, ad),
        "complementary": lambda: ch.complementary(ad),
    }


@pytest.mark.parametrize("name", ["conditional_mutual_quantum", "holevo_chi", "accessible_info",
                                  "decoupling_experiment", "projected_decoupling_experiment",
                                  "partial_trace", "apply", "compose", "complementary"])
def test_derived_results_are_not_checked_again(name, checks):
    call = derived_calls()[name]
    checks.clear()
    call()
    assert dict(checks) == {}


def test_bare_ensemble_members_are_checked_once(checks):
    """optimize_accessible_info checks each bare member once, for its
    objective and its Holevo bound together, and never the average state."""
    ensemble = [(0.5, random_state((2,), "A", s).matrix) for s in (157, 163)]
    checks.clear()
    mea.optimize_accessible_info(ensemble, 2, restarts=1)
    assert dict(checks) == {"SubsystemLayout": 2, "DensityOperator": 2}


BARE_ENTRY_POINTS = {
    "von_neumann_entropy": von_neumann_entropy,
    "relative_entropy_quantum_rho": lambda m: relative_entropy_quantum(m, MIXED),
    "relative_entropy_quantum_sigma": lambda m: relative_entropy_quantum(MIXED, m),
    "holevo_chi": lambda m: holevo_chi([(0.5, MIXED), (0.5, m)]),
    "measure": lambda m: mea.measure(m, Z_BASIS),
    "outcome_joint": lambda m: mea.outcome_joint([(0.5, MIXED), (0.5, m)], Z_BASIS),
    "accessible_info": lambda m: mea.accessible_info([(0.5, MIXED), (0.5, m)], Z_BASIS),
    "optimize_accessible_info":
        lambda m: mea.optimize_accessible_info([(0.5, MIXED), (0.5, m)], 2, restarts=1),
    "fidelity_pure": lambda m: fidelity_pure(np.array([1.0, 0.0]), m),
    "cq_channel": lambda m: ch.cq_channel(np.eye(2), [m, MIXED]),
}


@pytest.mark.parametrize("m,word", [
    ([[1.0, 5.0], [0.0, 0.0]], "not Hermitian"),
    ([[0.7, 0.0], [0.0, 0.7]], "trace"),
], ids=["non_hermitian", "trace"])
@pytest.mark.parametrize("entry", BARE_ENTRY_POINTS)
def test_bare_array_states_are_checked_at_every_entry(entry, m, word):
    """A bare-array state is checked as a density operator wherever it enters;
    eigvalsh would read one triangle of [[1, 5], [0, 0]] and call it pure."""
    with pytest.raises(ValueError, match=word):
        BARE_ENTRY_POINTS[entry](np.array(m))


def test_derived_results_pass_the_checks_they_skip():
    """Each derived result, rebuilt by its public constructor, passes every
    check and stores the same fields in the same form."""
    rho = random_state((2, 3), "AB", 113)
    psi = random_pure((2, 3), "CD", 127)
    qubit = random_state((2,), "A", 131)
    ad = ch.amplitude_damping(0.3)
    h = np.array([[0.0, 0.3], [0.3, 1.0]])
    results = [
        rho.layout.restrict(["B"]), psi.density(), maximally_mixed(rho.layout),
        tensor(psi, random_pure((2,), "E", 149)), tensor(rho, psi), partial_trace(rho, ["B"]),
        partial_trace_pure(psi, ["D"]), haar_random_pure(qubits("AB"), stream(137, 0)),
        random_mixed_state(qubits("AB"), stream(139, 0), env_dim=3), purify(rho),
        ch.apply(ad, qubit), ch.apply(ad, qubit.matrix), ch.dilate_state(ad, qubit),
        ch.complementary(ad), ch.compose(ad, ad), gibbs_free_energy(h, 1.3, qubit).gibbs_state,
    ]
    for out in results:
        fields = [f.name for f in dataclasses.fields(out)]
        again = type(out)(*(getattr(out, f) for f in fields))
        for f in fields:
            a, b = getattr(out, f), getattr(again, f)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
                assert a.flags.c_contiguous
            else:
                assert repr(a) == repr(b)


@pytest.mark.parametrize("channel", [ch.amplitude_damping(0.3), ch.identity_channel(2)],
                         ids=["two_kraus", "one_kraus"])
def test_complementary_kraus_tensor_is_fresh(channel):
    ops = ch.complementary(channel).kraus_ops
    assert ops.flags.c_contiguous and not np.shares_memory(ops, channel.kraus_ops)
