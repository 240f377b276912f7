import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_state
from test_imports import run_fresh
from qshannon._rng import stream
from qshannon import channels as ch
from qshannon.entropy import von_neumann_entropy
from qshannon.linalg import (
    density_from_matrix,
    haar_isometry,
    maximally_mixed,
    partial_trace,
    qubits,
    trace_distance,
)
from qshannon.suites import _decay_probability, _random_channel


class TestKrausValidation:
    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError):
            ch.KrausChannel((0.5 * np.eye(2),), 2, 2)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            ch.KrausChannel((np.eye(3),), 2, 2)

    def test_tuple_and_tensor_inputs_agree(self):
        ops = ch.depolarizing(0.2).kraus_ops
        from_tuple = ch.KrausChannel(tuple(ops), 2, 2)
        from_tensor = ch.KrausChannel(ops, 2, 2)
        for channel in (from_tuple, from_tensor):
            assert channel.kraus_ops.shape == (4, 2, 2)
            assert channel.kraus_ops.dtype == complex
            assert channel.kraus_ops.flags.c_contiguous
            assert np.array_equal(channel.kraus_ops, ops)

    @pytest.mark.parametrize("ops", [(), np.zeros((0, 2, 2)), np.eye(2)],
                             ids=["empty_tuple", "empty_tensor", "bare_matrix"])
    def test_empty_or_flat_input_rejected(self, ops):
        with pytest.raises(ValueError):
            ch.KrausChannel(ops, 2, 2)

    def test_ragged_operators_rejected(self):
        with pytest.raises(ValueError):
            ch.KrausChannel((np.eye(2), np.zeros((3, 2))), 2, 2)

    def test_env_dim_counts_operators(self):
        assert ch.depolarizing(0.1).env_dim == 4
        assert ch.amplitude_damping(0.1).env_dim == 2


def loop_apply(channel, m):
    """Kraus action summed operator by operator."""
    return sum(k @ m @ k.conj().T for k in channel.kraus_ops)


def loop_dilate(channel):
    db, de, da = channel.dim_out, channel.env_dim, channel.dim_in
    v = np.zeros((db * de, da), dtype=complex)
    for k_idx, k in enumerate(channel.kraus_ops):
        for b in range(db):
            v[b * de + k_idx, :] += k[b, :]
    return v


def loop_choi(channel):
    d = channel.dim_in
    j = np.zeros((channel.dim_out * d, channel.dim_out * d), dtype=complex)
    for k in channel.kraus_ops:
        w = k.reshape(-1) / np.sqrt(d)
        j += np.outer(w, w.conj())
    return j


def loop_compose(outer, inner):
    return np.array([a @ k for a in outer.kraus_ops for k in inner.kraus_ops])


def loop_complementary(channel):
    return np.array([np.array([k[b, :] for k in channel.kraus_ops])
                     for b in range(channel.dim_out)])


def oracle_channels():
    catalog = [ch.identity_channel(3), ch.depolarizing(0.1), ch.amplitude_damping(0.3),
               ch.erasure(0.3, 3), ch.completely_dephasing(3),
               ch.generalized_dephasing(np.array([[1.0, 0.6], [0.6, 1.0]])),
               ch.from_classical(np.array([[0.8, 0.3], [0.2, 0.7]])),
               ch.cq_channel(np.eye(2), [np.diag([0.7, 0.3]), np.diag([0.2, 0.8])])]
    rand = []
    for i in range(40):
        rng = stream(431, i)
        rand.append(_random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5))))
    return catalog + rand


class TestTensorAgainstLoops:
    """The one-tensor forms against the per-operator loops they replaced."""

    def test_apply_dilate_complementary_bit_identical(self):
        for i, channel in enumerate(oracle_channels()):
            rho = random_state((channel.dim_in,), "A", 433, index=i).matrix
            assert np.array_equal(ch.apply(channel, rho).matrix, loop_apply(channel, rho))
            assert np.array_equal(ch.dilate(channel), loop_dilate(channel))
            assert np.array_equal(ch.complementary(channel).kraus_ops,
                                  loop_complementary(channel))

    def test_choi_and_compose(self):
        for channel in oracle_channels():
            assert np.max(np.abs(ch.choi_matrix(channel) - loop_choi(channel))) <= 1e-15
            outer = ch.depolarizing(0.2) if channel.dim_out == 2 else ch.identity_channel(
                channel.dim_out)
            both = ch.compose(outer, channel)
            assert np.max(np.abs(both.kraus_ops - loop_compose(outer, channel))) <= 1e-15


class TestApplyAndDilate:
    def test_identity_preserves(self):
        rho = random_state((2,), "A", 3)
        out = ch.apply(ch.identity_channel(2), rho)
        assert trace_distance(out.matrix, rho.matrix) < 1e-12

    def test_dilation_is_isometry(self):
        v = ch.dilate(ch.depolarizing(0.3))
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-10

    def test_dilated_state_marginals(self):
        channel = ch.amplitude_damping(0.35)
        rho = random_state((2,), "A", 5)
        be = ch.dilate_state(channel, rho)
        assert trace_distance(partial_trace(be, ["B"]).matrix,
                              ch.apply(channel, rho).matrix) < 1e-10
        assert trace_distance(partial_trace(be, ["E"]).matrix,
                              ch.apply(ch.complementary(channel), rho).matrix) < 1e-10

    def test_output_trace_preserved(self):
        rho = random_state((3,), "A", 7)
        out = ch.apply(ch.erasure(0.4, 3), rho)
        assert np.trace(out.matrix).real == pytest.approx(1.0)

    @pytest.mark.parametrize("fn", [ch.apply, ch.dilate_state])
    @pytest.mark.parametrize("m,word", [
        ([[0.5, 0.5], [0.0, 0.5]], "not Hermitian"),
        ([[0.7, 0.0], [0.0, 0.7]], "trace"),
        ([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]], "shape"),
    ], ids=["non_hermitian", "trace", "not_square"])
    def test_bad_bare_input_refused(self, fn, m, word):
        # the input is checked, not the output: dephasing would map the
        # non-Hermitian matrix to the valid diag(0.5, 0.5)
        with pytest.raises(ValueError, match=word):
            fn(ch.completely_dephasing(2), np.array(m))

    def test_input_of_another_dimension_refused(self):
        with pytest.raises(ValueError, match="input dim 3 != channel dim_in 2"):
            ch.apply(ch.depolarizing(0.1), random_state((3,), "A", 7))


class TestChoi:
    def test_unit_trace(self):
        for channel in (ch.depolarizing(0.2), ch.erasure(0.3, 2),
                        ch.completely_dephasing(3)):
            assert np.trace(ch.choi_matrix(channel)).real == pytest.approx(1.0)

    def test_positive_semidefinite(self):
        j = ch.choi_matrix(ch.amplitude_damping(0.6))
        assert np.min(np.linalg.eigvalsh(j)) > -1e-12

    def test_equality_invariant_under_kraus_gauge(self):
        # mixing Kraus operators by a unitary leaves the channel unchanged
        channel = ch.amplitude_damping(0.3)
        k0, k1 = channel.kraus_ops
        u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        mixed = ch.KrausChannel((u[0, 0] * k0 + u[0, 1] * k1,
                                 u[1, 0] * k0 + u[1, 1] * k1), 2, 2)
        assert ch.channels_equal(channel, mixed)

    def test_inequality_detected(self):
        assert not ch.channels_equal(ch.depolarizing(0.1), ch.depolarizing(0.2))


class TestCatalog:
    def test_depolarizing_action(self):
        rho = density_from_matrix(np.diag([1.0, 0.0]))
        out = ch.apply(ch.depolarizing(0.75), rho)  # completely depolarizing
        assert trace_distance(out.matrix, np.eye(2) / 2) < 1e-12

    def test_amplitude_damping_decay(self):
        rho = density_from_matrix(np.diag([0.0, 1.0]))
        out = ch.apply(ch.amplitude_damping(0.3), rho)
        assert out.matrix[0, 0].real == pytest.approx(0.3)

    def test_erasure_flag_probability(self):
        rho = random_state((2,), "A", 11)
        out = ch.apply(ch.erasure(0.4, 2), rho)
        assert out.matrix[2, 2].real == pytest.approx(0.4)

    def test_completely_dephasing_kills_coherence(self):
        rho = density_from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = ch.apply(ch.completely_dephasing(2), rho)
        assert abs(out.matrix[0, 1]) < 1e-12

    def test_generalized_dephasing_interpolates(self):
        # unit overlaps: identity; zero overlaps: completely dephasing
        ident = ch.generalized_dephasing(np.ones((2, 2)))
        assert ch.channels_equal(ident, ch.identity_channel(2))
        full = ch.generalized_dephasing(np.eye(2))
        assert ch.channels_equal(full, ch.completely_dephasing(2))

    def test_from_classical_matches_probabilities(self):
        w = np.array([[0.8, 0.3], [0.2, 0.7]])
        channel = ch.from_classical(w)
        out = ch.apply(channel, density_from_matrix(np.diag([1.0, 0.0])))
        assert np.diag(out.matrix).real == pytest.approx([0.8, 0.2])

    def test_cq_channel_breaks_entanglement(self):
        outs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        channel = ch.cq_channel(np.eye(2), outs)
        # the Choi state of an entanglement-breaking channel is separable;
        # here it is diagonal, so its partial transpose stays PSD
        j = ch.choi_matrix(channel).reshape(2, 2, 2, 2)
        jt = np.transpose(j, (0, 3, 2, 1)).reshape(4, 4)
        assert np.min(np.linalg.eigvalsh(jt)) > -1e-12

    def test_bsc_matrix(self):
        w = ch.bsc(0.1)
        assert w.sum(axis=0) == pytest.approx([1.0, 1.0])
        assert w[1, 0] == pytest.approx(0.1)


class TestComplementary:
    def test_entropy_exchange_symmetry(self):
        # for any input, H(B) of the dilated state uses the channel and H(E)
        # the complement; on a pure input both entropies agree
        channel = ch.depolarizing(0.23)
        rho = density_from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        h_b = von_neumann_entropy(ch.apply(channel, rho))
        h_e = von_neumann_entropy(ch.apply(ch.complementary(channel), rho))
        assert h_b == pytest.approx(h_e, abs=1e-9)

    def test_amplitude_damping_complement_is_damping(self):
        p = 0.3
        comp = ch.complementary(ch.amplitude_damping(p))
        assert ch.channels_equal(comp, ch.amplitude_damping(1 - p))


class TestCompose:
    def test_amplitude_damping_semigroup(self):
        a = ch.amplitude_damping(0.2)
        b = ch.amplitude_damping(0.3)
        combined = ch.compose(b, a)
        assert ch.channels_equal(combined, ch.amplitude_damping(1 - 0.8 * 0.7))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ch.compose(ch.identity_channel(3), ch.identity_channel(2))


def bare(channel):
    """The channel's Kraus tensor without its catalog kind, so no closed form
    is used."""
    return ch.KrausChannel(channel.kraus_ops, channel.dim_in, channel.dim_out)


def random_qubit_to_qutrit(index):
    """Two Kraus operators 2 -> 3 from a Haar isometry 2 -> 6."""
    q = haar_isometry(6, 2, stream(20261018, index))
    return ch.KrausChannel(q.reshape(3, 2, 2).transpose(1, 0, 2), 2, 3)


# channels whose superoperator is not onto, each with the answer it must get
# (None: either answer, with its certificate)
NOT_ONTO = {
    **{f"erasure_{p}": (bare(ch.erasure(p)), p <= 0.5) for p in (0.01, 0.1, 0.25, 0.5, 0.6, 0.9)},
    **{f"dephasing_{d}": (bare(ch.completely_dephasing(d)), True) for d in (2, 3, 4)},
    **{f"random_{i}": (random_qubit_to_qutrit(i), None) for i in range(10)},
    # one Kraus operator: |E| = 1, so the affine set is a single point
    "isometry": (ch.KrausChannel(haar_isometry(3, 2, stream(20261018, 10))[None], 2, 3), True),
}


class TestDegradability:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
    def test_amplitude_damping_closed_form(self, p):
        channel = ch.amplitude_damping(p)
        t = ch.degrading_map(channel)
        assert _decay_probability(t) == pytest.approx((1 - 2 * p) / (1 - p))
        assert trace_distance(ch.choi_matrix(ch.compose(t, channel)),
                              ch.choi_matrix(ch.complementary(channel))) < 1e-8

    @pytest.mark.parametrize("p,d", [(0.1, 2), (0.25, 3)])
    def test_erasure_closed_form(self, p, d):
        channel = ch.erasure(p, d)
        t = ch.degrading_map(channel)
        assert trace_distance(ch.choi_matrix(ch.compose(t, channel)),
                              ch.choi_matrix(ch.complementary(channel))) < 1e-8

    def test_antidegradable_region_returns_none(self):
        assert ch.degrading_map(ch.amplitude_damping(0.7)) is None
        assert ch.degrading_map(ch.erasure(0.7, 2)) is None

    def test_is_degradable(self):
        assert ch.is_degradable(ch.amplitude_damping(0.2))
        assert not ch.is_degradable(ch.amplitude_damping(0.8))

    @pytest.fixture
    def no_barrier(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the degrading-map barrier ran")
        monkeypatch.setattr(ch, "_barrier", refuse)

    @pytest.fixture
    def barrier_calls(self, monkeypatch):
        """Every (X0, B, matrix, found) the barrier sees and returns."""
        calls, barrier = [], ch._barrier

        def record(x0, basis):
            out = barrier(x0, basis)
            calls.append((x0, basis, *out))
            return out
        monkeypatch.setattr(ch, "_barrier", record)
        return calls

    def test_exact_map_matches_amplitude_damping_closed_form(self, no_barrier):
        p = 0.3
        t = ch.degrading_map(bare(ch.amplitude_damping(p)))
        closed = ch.amplitude_damping((1 - 2 * p) / (1 - p))
        assert np.max(np.abs(ch.choi_matrix(t) - ch.choi_matrix(closed))) <= 1e-12

    # the last three are not onto; no linear T exists for them
    @pytest.mark.parametrize("channel", [
        bare(ch.amplitude_damping(0.6)), ch.depolarizing(0.1), ch.depolarizing(0.3),
        bare(ch.amplitude_damping(1.0)),
        ch.from_classical(ch.bsc(0.1)),
        ch.cq_channel(np.eye(2), [np.diag([0.7, 0.3]), np.full((2, 2), 0.5)])],
        ids=["ad_0.6", "dep_0.1", "dep_0.3", "ad_1", "classical_bsc", "cq"])
    def test_exact_map_certifies_non_degradable(self, no_barrier, channel):
        assert ch.degrading_map(channel) is None
        assert not ch.is_degradable(channel)

    def test_exact_map_on_dephasing(self, no_barrier):
        channel = ch.generalized_dephasing(np.array([[1.0, 0.6], [0.6, 1.0]]))
        t = ch.degrading_map(channel)
        assert trace_distance(ch.choi_matrix(ch.compose(t, channel)),
                              ch.choi_matrix(ch.complementary(channel))) <= 1e-8

    def test_barrier_runs_when_superoperator_is_not_onto(self, barrier_calls):
        channel = ch.completely_dephasing(2)
        t = ch.degrading_map(channel)
        assert len(barrier_calls) == 1
        assert trace_distance(ch.choi_matrix(ch.compose(t, channel)),
                              ch.choi_matrix(ch.complementary(channel))) < 1e-6

    @pytest.mark.parametrize("name", NOT_ONTO)
    def test_barrier_answer_is_certified(self, barrier_calls, name):
        channel, expected = NOT_ONTO[name]
        t = ch.degrading_map(channel)
        [(x0, basis, out, found)] = barrier_calls
        assert found == (t is not None) and expected in (None, found)
        # the affine set: X0 is trace one and orthogonal to the orthonormal,
        # traceless, Hermitian B_i
        flat = basis.reshape(len(basis), x0.size)
        for err in (flat.conj() @ flat.T - np.eye(len(basis)),
                    basis - basis.conj().transpose(0, 2, 1),
                    np.trace(basis, axis1=1, axis2=2), flat.conj() @ x0.reshape(-1)):
            assert np.max(np.abs(err), initial=0.0) <= 1e-12
        assert np.trace(x0).real == pytest.approx(1.0, abs=1e-12)
        if found:
            assert np.linalg.eigvalsh(out)[0] >= -ch.SDP_PSD_TOL
            assert trace_distance(ch.choi_matrix(ch.compose(t, channel)),
                                  ch.choi_matrix(ch.complementary(channel))) <= ch.DEGRADING_TOL
        else:
            w = out
            assert np.linalg.eigvalsh(w)[0] >= 0
            assert max(abs(np.trace(w @ b)) for b in basis) <= 1e-12
            assert np.trace(w @ x0).real < 0

    def test_barrier_answers_do_not_depend_on_blas_threads(self):
        code = ("from qshannon import channels as ch\n"
                "from test_channels import NOT_ONTO\n"
                "print([ch.degrading_map(c) is not None for c, _ in NOT_ONTO.values()])")
        answers = repr([ch.degrading_map(c) is not None for c, _ in NOT_ONTO.values()])
        for threads in ("1", "2"):
            assert run_fresh(code, OPENBLAS_NUM_THREADS=threads) == answers


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
def test_apply_preserves_state_validity(idx, p):
    rho = random_state((2,), "A", 13, index=idx)
    out = ch.apply(ch.depolarizing(p), rho)
    assert np.trace(out.matrix).real == pytest.approx(1.0)
    assert np.min(np.linalg.eigvalsh(out.matrix)) > -1e-10
