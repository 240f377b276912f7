import numpy as np
import pytest

from qshannon import capacity as cap
from qshannon import channels as ch
from qshannon._rng import stream
from qshannon.linalg import dagger, haar_isometry


class TestBlahutArimoto:
    def test_noiseless_binary(self):
        res = cap.blahut_arimoto(np.eye(2))
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.converged

    def test_bsc_closed_form(self):
        for p in (0.05, 0.2, 0.45):
            res = cap.blahut_arimoto(ch.bsc(p), tol=1e-10)
            assert res.value == pytest.approx(1 - cap.binary_entropy(p), abs=1e-7)

    def test_useless_channel_zero(self):
        w = np.full((2, 2), 0.5)
        assert cap.blahut_arimoto(w).value == pytest.approx(0.0, abs=1e-9)

    def test_erasure_classical(self):
        # binary erasure channel: capacity 1 - p
        p = 0.3
        w = np.array([[1 - p, 0.0], [0.0, 1 - p], [p, p]])
        assert cap.blahut_arimoto(w, tol=1e-10).value == pytest.approx(1 - p, abs=1e-7)

    def test_asymmetric_channel_gap_small(self):
        w = np.array([[0.9, 0.2], [0.1, 0.8]])
        res = cap.blahut_arimoto(w, tol=1e-10)
        assert res.gap_estimate < 1e-9

    def test_invalid_matrix(self):
        with pytest.raises(ValueError):
            cap.blahut_arimoto(np.array([[0.5, 0.5], [0.2, 0.5]]))


class TestOneShotQuantum:
    def test_identity_channel(self):
        res = cap.one_shot_quantum_capacity(ch.identity_channel(2), restarts=3)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("p,d", [(0.0, 2), (0.25, 2), (0.25, 3), (0.4, 2)])
    def test_erasure_closed_form(self, p, d):
        res = cap.one_shot_quantum_capacity(ch.erasure(p, d), restarts=4)
        assert res.value == pytest.approx(cap.erasure_q1(p, d), abs=1e-5)

    def test_antidegradable_zero(self):
        res = cap.one_shot_quantum_capacity(ch.erasure(0.5, 2), restarts=4)
        assert res.value <= 1e-5

    def test_depolarizing_matches_mixed_input_formula(self):
        p = 0.05
        res = cap.one_shot_quantum_capacity(ch.depolarizing(p), restarts=4)
        assert res.value == pytest.approx(cap.depolarizing_q1_mm(p), abs=1e-5)


class TestEntanglementAssisted:
    def test_identity_gives_two_bits(self):
        res = cap.entanglement_assisted_capacity(ch.identity_channel(2), restarts=3)
        assert res.value == pytest.approx(2.0, abs=1e-6)

    def test_erasure_closed_form(self):
        p = 0.3
        res = cap.entanglement_assisted_capacity(ch.erasure(p, 2), restarts=3)
        assert res.value == pytest.approx(2 * (1 - p), abs=1e-5)

    def test_depolarizing_closed_form(self):
        p = 0.2
        res = cap.entanglement_assisted_capacity(ch.depolarizing(p), restarts=3)
        assert res.value == pytest.approx(cap.depolarizing_ce(p), abs=1e-5)


class TestHolevoChiChannel:
    def test_noiseless_qubit_one_bit(self):
        res = cap.holevo_chi_channel(ch.identity_channel(2), restarts=4)
        assert res.value == pytest.approx(1.0, abs=1e-5)

    def test_depolarizing_closed_form(self):
        p = 0.15
        res = cap.holevo_chi_channel(ch.depolarizing(p), restarts=4)
        assert res.value == pytest.approx(cap.depolarizing_c1(p), abs=1e-5)

    def test_ensemble_is_normalized(self):
        res = cap.holevo_chi_channel(ch.depolarizing(0.1), restarts=2)
        probs = [p for p, _ in res.argmax]
        assert sum(probs) == pytest.approx(1.0)
        for _, rho in res.argmax:
            assert np.trace(rho).real == pytest.approx(1.0)


class TestClosedForms:
    def test_endpoints(self):
        assert cap.depolarizing_c1(0.0) == pytest.approx(1.0)
        assert cap.depolarizing_ce(0.0) == pytest.approx(2.0)
        assert cap.depolarizing_q1_mm(0.0) == pytest.approx(1.0)
        assert cap.depolarizing_ce(0.75) == pytest.approx(0.0, abs=1e-12)

    def test_zero_crossing_bracketed(self):
        root = cap.depolarizing_q1_zero()
        assert 0.18 < root < 0.20
        assert abs(cap.depolarizing_q1_mm(root)) < 1e-10

    def test_erasure_clamped(self):
        assert cap.erasure_q1(0.6, 2) == 0.0
        assert cap.erasure_q1(0.25, 3) == pytest.approx(0.5 * np.log2(3))


class TestSweep:
    def test_rows_and_csv(self):
        rows = cap.capacity_sweep("erasure", [0.0, 0.25], ("Q1",), restarts=2)
        assert len(rows) == 2
        csv = cap.sweep_to_csv_rows(rows)
        assert csv[0] == "family,p,quantity,value,err,converged"
        assert csv[1].startswith("erasure,0,Q1,1,")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            cap.capacity_sweep("nope", [0.1])

    @pytest.mark.parametrize("which", [["Q2"], ["C1", "Q2"]])
    def test_unknown_quantity_refused_before_any_optimizer(self, monkeypatch, which):
        def ran(*args, **kwargs):
            raise AssertionError("an optimizer ran")

        monkeypatch.setattr(cap, "holevo_chi_channel", ran)
        with pytest.raises(ValueError, match=r"'Q2'.*'C1', 'CE', 'Q1'"):
            cap.capacity_sweep("erasure", [0.1], which)


# ---------------------------------------------------------------------------
# objectives: exact gradients against central differences, and the loop-based
# objectives they replaced, kept here as oracles
# ---------------------------------------------------------------------------

def random_channel(d: int, n_kraus: int, seed: int) -> ch.KrausChannel:
    v = haar_isometry(n_kraus * d, d, stream(seed, 0))
    return ch.KrausChannel(tuple(v.reshape(n_kraus, d, d)), d, d)


def _oracle_log2_psd(m, floor=1e-18):
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals.real, floor, None)
    return (vecs * np.log2(vals)) @ dagger(vecs)


def _oracle_adjoint(channel, x):
    return sum(dagger(k) @ x @ k for k in channel.kraus_ops)


def _oracle_channel_mat(channel, m):
    return sum(k @ m @ dagger(k) for k in channel.kraus_ops)


def _oracle_entropy_bits(m):
    vals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    nz = vals[vals > 1e-14]
    return float(-np.sum(nz * np.log2(nz)))


def oracle_rho_objective(channel, assisted):
    comp = ch.complementary(channel)

    def f_and_grad(rho):
        out_b = _oracle_channel_mat(channel, rho)
        out_e = _oracle_channel_mat(comp, rho)
        val = _oracle_entropy_bits(out_b) - _oracle_entropy_bits(out_e)
        grad = (-_oracle_adjoint(channel, _oracle_log2_psd(out_b))
                + _oracle_adjoint(comp, _oracle_log2_psd(out_e)))
        if assisted:
            val += _oracle_entropy_bits(rho)
            grad += -_oracle_log2_psd(rho) - np.eye(rho.shape[0]) / cap.LN2
        return val, grad

    return f_and_grad


def oracle_chi_objective(channel, m):
    d = channel.dim_in
    nv = 2 * m * d

    def neg(x):
        vecs = (x[: m * d] + 1j * x[m * d: nv]).reshape(m, d)
        a = x[nv:] - x[nv:].max()
        p = np.exp(a)
        p /= p.sum()
        ts = np.einsum("id,id->i", vecs.conj(), vecs).real
        rhos = [np.outer(v, v.conj()) / t for v, t in zip(vecs, ts)]
        sigmas = [_oracle_channel_mat(channel, r) for r in rhos]
        sbar = sum(pi * s for pi, s in zip(p, sigmas))
        h_members = np.array([_oracle_entropy_bits(s) for s in sigmas])
        chi = _oracle_entropy_bits(sbar) - float(p @ h_members)
        log_sbar = _oracle_log2_psd(sbar)
        grad_x = np.zeros_like(x)
        for i in range(m):
            gi = p[i] * _oracle_adjoint(channel, _oracle_log2_psd(sigmas[i]) - log_sbar)
            mmat = gi - np.trace(gi @ rhos[i]).real * np.eye(d)
            gv = (2.0 / ts[i]) * (mmat @ vecs[i])
            grad_x[i * d: (i + 1) * d] = gv.real
            grad_x[m * d + i * d: m * d + (i + 1) * d] = gv.imag
        gp = np.array([-np.trace(s @ log_sbar).real - h for s, h in zip(sigmas, h_members)])
        grad_x[nv:] = p * (gp - float(p @ gp))
        return -chi, -grad_x

    return neg


def central_differences(neg, x, h=1e-6):
    return np.array([(neg(x + h * e)[0] - neg(x - h * e)[0]) / (2 * h)
                     for e in np.eye(x.size)])


CHANNEL_CASES = [(2, 2, 401), (2, 3, 402), (2, 4, 403), (3, 2, 404), (3, 3, 405)]


def objectives(d, n_kraus, seed):
    """(name, new objective, oracle objective, random point) per functional."""
    channel = random_channel(d, n_kraus, seed)
    rng = stream(seed, 1)
    out = []
    for name, assisted in (("Q1", False), ("CE", True)):
        out.append((name, cap._state_objective(cap._rho_objective_factory(channel, assisted), d),
                    cap._state_objective(oracle_rho_objective(channel, assisted), d),
                    rng.standard_normal(2 * d * d)))
    for m in (d, d * d):
        out.append((f"chi{m}", cap._chi_objective(channel, m), oracle_chi_objective(channel, m),
                    np.concatenate([rng.standard_normal(2 * m * d), rng.standard_normal(m) * 0.1])))
    return out


class TestObjectives:
    @pytest.mark.parametrize("d,n_kraus,seed", CHANNEL_CASES)
    def test_gradient_matches_central_differences(self, d, n_kraus, seed):
        for name, neg, _, x in objectives(d, n_kraus, seed):
            _, grad = neg(x)
            fd = central_differences(neg, x)
            assert np.max(np.abs(fd - grad)) <= 1e-6 * np.max(np.abs(grad)), name

    @pytest.mark.parametrize("d,n_kraus,seed", CHANNEL_CASES)
    def test_matches_loop_oracle(self, d, n_kraus, seed):
        for name, neg, oracle, x in objectives(d, n_kraus, seed):
            val, grad = neg(x)
            val_o, grad_o = oracle(x)
            assert val == pytest.approx(val_o, abs=1e-12), name
            assert np.max(np.abs(grad - grad_o)) <= 1e-12, name

    @pytest.mark.parametrize("d,n_kraus,seed", CHANNEL_CASES)
    def test_maximally_mixed_candidate_matches_oracle(self, d, n_kraus, seed):
        channel = random_channel(d, n_kraus, seed)
        mm = np.eye(d) / d
        for assisted in (False, True):
            val, grad = cap._rho_objective_factory(channel, assisted)(mm)
            val_o, grad_o = oracle_rho_objective(channel, assisted)(mm)
            assert val == pytest.approx(val_o, abs=1e-12)
            assert np.max(np.abs(grad - grad_o)) <= 1e-12


class TestConverged:
    """`converged` is the L-BFGS status of the restart whose value is returned."""

    @staticmethod
    def one_iteration(monkeypatch):
        real = cap.minimize

        def capped(fun, x0, **kwargs):
            return real(fun, x0, **{**kwargs, "options": {**kwargs["options"], "maxiter": 1}})

        monkeypatch.setattr(cap, "minimize", capped)

    @staticmethod
    def reported_failure(monkeypatch):
        real = cap.minimize

        def failing(fun, x0, **kwargs):
            res = real(fun, x0, **kwargs)
            res.success = False
            return res

        monkeypatch.setattr(cap, "minimize", failing)

    def test_chi_converged_by_default(self):
        assert cap.holevo_chi_channel(ch.amplitude_damping(0.3), restarts=2).converged

    def test_chi_iteration_cap_not_converged(self, monkeypatch):
        self.one_iteration(monkeypatch)
        res = cap.holevo_chi_channel(ch.amplitude_damping(0.3), restarts=2)
        assert res.iterations == 2
        assert not res.converged

    def test_q1_reported_failure_not_converged(self, monkeypatch):
        # amplitude damping's optimal input is not maximally mixed, so the
        # closed-form candidate cannot win over a full ascent
        self.reported_failure(monkeypatch)
        channel = ch.amplitude_damping(0.2)
        res = cap.one_shot_quantum_capacity(channel, restarts=2)
        f = cap._rho_objective_factory(channel, assisted=False)
        assert res.raw_value > f(np.eye(2) / 2)[0]
        assert not res.converged

    def test_maximally_mixed_candidate_counts_as_converged(self, monkeypatch):
        self.one_iteration(monkeypatch)
        p = 0.05
        res = cap.one_shot_quantum_capacity(ch.depolarizing(p), restarts=2)
        assert res.value == pytest.approx(cap.depolarizing_q1_mm(p), abs=1e-12)
        assert res.converged
