import numpy as np
import pytest

from qshannon import capacity as cap
from qshannon import channels as ch
from qshannon import measure as mea
from qshannon._rng import stream
from qshannon.entropy import _ensemble
from qshannon.linalg import SubsystemLayout, dagger, haar_isometry, random_mixed_state


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

    def test_certificate_on_random_channels(self):
        # the upper bound is recomputed here from the returned input alone
        rng = np.random.default_rng(2024)
        tol = 1e-9
        for i in range(400):
            dy, dx = ((4, 3), (3, 5))[i % 2]
            w = rng.dirichlet(np.ones(dy), size=dx).T
            res = cap.blahut_arimoto(w, tol=tol)
            assert res.converged and res.iterations <= 100
            assert -1e-12 <= divergence_upper(w, res.argmax) - res.value <= tol + 1e-12
            assert res.value == pytest.approx(mutual_information(w, res.argmax), abs=1e-14)

    def test_boundary_optimum(self):
        # the third input is a mixture of the first two, so C is the BSC's
        # and the optimum puts no weight on it
        w = np.array([[0.9, 0.1, 0.88], [0.1, 0.9, 0.12]])
        res = cap.blahut_arimoto(w)
        assert res.converged and res.iterations <= 100
        assert res.value == pytest.approx(1 - cap.binary_entropy(0.1), abs=1e-9)
        assert res.argmax[2] <= 1e-6

    def test_output_no_input_produces(self):
        w = np.array([[0.7, 0.2], [0.0, 0.0], [0.3, 0.8]])
        res = cap.blahut_arimoto(w)
        assert res.converged
        assert res.value == pytest.approx(cap.blahut_arimoto(w[[0, 2]]).value, abs=1e-9)
        assert -1e-12 <= divergence_upper(w, res.argmax) - res.value <= 1e-9 + 1e-12

    def test_single_input(self):
        res = cap.blahut_arimoto(np.array([[0.3], [0.7]]))
        assert res.converged and res.value == 0.0 and res.argmax.tolist() == [1.0]

    def test_max_iter_reports_the_gap(self):
        w = np.array([[0.9, 0.2], [0.1, 0.8]])
        res = cap.blahut_arimoto(w, max_iter=2)
        assert not res.converged and res.iterations == 2
        assert res.gap_estimate == pytest.approx(divergence_upper(w, res.argmax) - res.value,
                                                 abs=1e-15)
        assert res.gap_estimate > 1e-9


def divergence_upper(w, r):
    """max_x D(W(.|x) || W r) in bits."""
    q = w @ r
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, w * (np.log2(w) - np.log2(q)[:, None]), 0.0)
    return float(terms.sum(axis=0).max())


def mutual_information(w, r):
    """I(X;Y) = H(Y) - H(Y|X) in bits for input distribution r."""
    h = lambda p: -sum(x * np.log2(x) for x in p if x > 0)
    return h(w @ r) - sum(rx * h(col) for rx, col in zip(r, w.T))


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


def ce_oracle(channel, restarts=5, seed=13):
    """C_E by the multi-start L-BFGS ascent the Blahut-Arimoto loop replaced:
    the best of `restarts` seeded starts over rho = L L† / tr(L L†)."""
    from scipy.optimize import minimize

    d = channel.dim_in
    neg = cap._state_objective(cap._rho_objective_factory(channel, assisted=True), d)
    return max(-minimize(neg, stream(seed, r).standard_normal(2 * d * d), jac=True,
                         method="L-BFGS-B", options=cap.LBFGS_OPTIONS).fun
               for r in range(restarts))


CE_CATALOG = {
    "ad_0": ch.amplitude_damping(0.0), "ad_0.3": ch.amplitude_damping(0.3),
    "ad_0.99": ch.amplitude_damping(0.99), "ad_1": ch.amplitude_damping(1.0),
    "dep_0.1439": ch.depolarizing(0.1439), "dep_0.75": ch.depolarizing(0.75),
    "dep_1": ch.depolarizing(1.0), "erasure_0": ch.erasure(0.0), "erasure_1": ch.erasure(1.0),
    "erasure_0.3_d3": ch.erasure(0.3, 3),
    "dephasing": ch.generalized_dephasing(np.array([[1.0, 0.6], [0.6, 1.0]])),
    "identity_4": ch.identity_channel(4), "classical_bsc": ch.from_classical(ch.bsc(0.1)),
    "cq": ch.cq_channel(np.eye(2), [np.diag([0.7, 0.3]), np.full((2, 2), 0.5)]),
}
CE_RANDOM = [(d, n_kraus, seed + 10 * d + n_kraus)
             for d in (2, 3, 4) for n_kraus in (1, 2, 3) for seed in (600, 700)]


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

    @staticmethod
    def assert_certified_optimum(channel):
        res = cap.entanglement_assisted_capacity(channel)
        assert res.converged
        assert res.gap_estimate <= cap.CE_TOL
        assert res.value == pytest.approx(ce_oracle(channel), abs=1e-12)
        assert np.trace(res.argmax).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(CE_CATALOG))
    def test_catalog_certified_at_oracle_value(self, name):
        self.assert_certified_optimum(CE_CATALOG[name])

    @pytest.mark.parametrize("d,n_kraus,seed", CE_RANDOM)
    def test_random_channel_certified_at_oracle_value(self, d, n_kraus, seed):
        self.assert_certified_optimum(random_channel(d, n_kraus, seed))

    def test_no_seed_no_restarts(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("C_E drew a stream or ran L-BFGS")

        channel = random_channel(3, 2, 404)
        before = cap.entanglement_assisted_capacity(channel)
        monkeypatch.setattr(cap, "stream", refuse)
        monkeypatch.setattr(cap, "minimize", refuse)
        for kwargs in ({}, {"restarts": 9, "seed": 1}):
            res = cap.entanglement_assisted_capacity(channel, **kwargs)
            assert (res.value, res.iterations) == (before.value, before.iterations)

    def test_iteration_cap_reports_gap_not_converged(self, monkeypatch):
        channel = ch.amplitude_damping(0.99)
        monkeypatch.setattr(cap, "CE_MAX_ITER", 3)
        res = cap.entanglement_assisted_capacity(channel)
        assert res.iterations == 3
        assert not res.converged
        assert res.gap_estimate > cap.CE_TOL
        assert res.value <= ce_oracle(channel) <= res.value + res.gap_estimate


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
    @pytest.mark.parametrize("which", [("CE",), ("C1", "CE", "Q1")])
    def test_restarts_below_one_refused_before_any_work(self, which, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a capacity ran")
        monkeypatch.setattr(cap, "entanglement_assisted_capacity", no_work)
        with pytest.raises(ValueError, match="restarts must be >= 1, got 0"):
            cap.capacity_sweep("depolarizing", [0.1], which, restarts=0)

    def test_rows_and_csv(self):
        rows = cap.capacity_sweep("erasure", [0.0, 0.25], ("Q1",), restarts=2)
        assert len(rows) == 2
        csv = cap.sweep_to_csv_rows(rows)
        assert csv[0] == "family,p,quantity,value,err,converged"
        assert csv[1].startswith("erasure,0,Q1,1,")

    def test_err_is_the_ce_gap_and_none_elsewhere(self):
        rows = cap.capacity_sweep("depolarizing", [0.2], restarts=2)
        err = {r.quantity: r.err for r in rows}
        assert err["C1"] is None and err["Q1"] is None
        assert -1e-15 <= err["CE"] <= cap.CE_TOL
        fields = {line.split(",")[2]: line.split(",")[4]
                  for line in cap.sweep_to_csv_rows(rows)[1:]}
        assert fields == {"C1": "", "CE": f"{err['CE']:.12g}", "Q1": ""}

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


# ---------------------------------------------------------------------------
# the restart loop: Q1, chi and accessible information through `_ascend`
# against the per-restart loops each of them ran before, kept as oracles
# ---------------------------------------------------------------------------

def q1_loop(channel, restarts, seed):
    from scipy.optimize import minimize

    d = channel.dim_in
    f_and_grad = cap._rho_objective_factory(channel, assisted=False)
    neg = cap._state_objective(f_and_grad, d)
    best_val, best_rho, iters, converged = -np.inf, None, 0, False
    for r in range(restarts):
        x0 = stream(seed, r).standard_normal(2 * d * d)
        res = minimize(neg, x0, jac=True, method="L-BFGS-B", options=cap.LBFGS_OPTIONS)
        iters += res.nit
        if -res.fun > best_val:
            best_val, converged = -res.fun, bool(res.success)
            ell = (res.x[: d * d] + 1j * res.x[d * d:]).reshape(d, d)
            best_rho = (ell @ dagger(ell)) / np.trace(ell @ dagger(ell)).real
    mm = np.eye(d) / d
    mm_val, _ = f_and_grad(mm)
    if mm_val > best_val:
        best_val, best_rho, converged = mm_val, mm, True
    return cap.CapacityResult(max(best_val, 0.0), best_rho, iters, converged, raw_value=best_val)


def chi_loop(channel, m, restarts, seed):
    from scipy.optimize import minimize

    d = channel.dim_in
    nv = 2 * m * d
    neg = cap._chi_objective(channel, m)
    best_val, best_x, iters, converged = -np.inf, None, 0, False
    for r in range(restarts):
        rng = stream(seed, r)
        x0 = np.concatenate([rng.standard_normal(nv), rng.standard_normal(m) * 0.1])
        res = minimize(neg, x0, jac=True, method="L-BFGS-B", options=cap.LBFGS_OPTIONS)
        iters += res.nit
        if -res.fun > best_val:
            best_val, best_x, converged = -res.fun, res.x, bool(res.success)
    vecs = (best_x[: m * d] + 1j * best_x[m * d: nv]).reshape(m, d)
    a = best_x[nv:] - best_x[nv:].max()
    p = np.exp(a)
    p /= p.sum()
    ensemble = [(float(pi), np.outer(v, v.conj()) / (v.conj() @ v).real)
                for pi, v in zip(p, vecs)]
    return cap.CapacityResult(best_val, ensemble, iters, converged)


def accessible_info_loop(ensemble, outcomes, restarts, seed):
    """(value, POVM elements) of the best restart."""
    from scipy.optimize import minimize

    d = ensemble[0][1].dim
    neg = mea._accessible_info_objective(*_ensemble(ensemble), outcomes)
    best_val, best_x = -np.inf, None
    for r in range(restarts):
        x0 = stream(seed, r).standard_normal(2 * outcomes * d * d)
        res = minimize(neg, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-13})
        if -res.fun > best_val:
            best_val, best_x = -res.fun, res.x
    els = list(mea._povm_elements(best_x, outcomes, d)[0])
    els[0] = els[0] + (np.eye(d) - sum(els))
    return best_val, [(e + dagger(e)) / 2 for e in els]


RESTART_CHANNELS = {
    "ad_0.3": ch.amplitude_damping(0.3), "dep_0.1": ch.depolarizing(0.1),
    "erasure_0.2": ch.erasure(0.2), "random_2_2": random_channel(2, 2, 401),
    "random_2_3": random_channel(2, 3, 402), "random_3_2": random_channel(3, 2, 404),
}
RESTART_RUNS = [(1, 3), (3, 11), (4, 17)]     # (restarts, seed)


def random_ensemble(seed):
    """Three equiprobable random mixed qubit states."""
    rng = stream(seed, 99)
    return [(1 / 3, random_mixed_state(SubsystemLayout((2,), ("A",)), rng)) for _ in range(3)]


def same_result(new, old):
    assert new.value == old.value
    assert new.raw_value == old.raw_value
    assert new.iterations == old.iterations
    assert new.converged is old.converged


class TestRestartLoop:
    @pytest.mark.parametrize("name", sorted(RESTART_CHANNELS))
    @pytest.mark.parametrize("restarts,seed", RESTART_RUNS)
    def test_q1_matches_restart_loop(self, name, restarts, seed):
        channel = RESTART_CHANNELS[name]
        new = cap.one_shot_quantum_capacity(channel, restarts=restarts, seed=seed)
        old = q1_loop(channel, restarts, seed)
        same_result(new, old)
        assert np.array_equal(new.argmax, old.argmax)

    @pytest.mark.parametrize("name", sorted(RESTART_CHANNELS))
    @pytest.mark.parametrize("restarts,seed", RESTART_RUNS)
    def test_chi_matches_restart_loop(self, name, restarts, seed):
        channel = RESTART_CHANNELS[name]
        m = channel.dim_in
        new = cap.holevo_chi_channel(channel, ensemble_size=m, restarts=restarts, seed=seed)
        old = chi_loop(channel, m, restarts, seed)
        same_result(new, old)
        for (p, rho), (p_old, rho_old) in zip(new.argmax, old.argmax, strict=True):
            assert p == p_old
            assert np.array_equal(rho, rho_old)

    @pytest.mark.parametrize("outcomes", [2, 3])
    @pytest.mark.parametrize("restarts,seed", RESTART_RUNS)
    def test_accessible_info_matches_restart_loop(self, outcomes, restarts, seed):
        ensemble = random_ensemble(seed)
        new = mea.optimize_accessible_info(ensemble, outcomes, restarts=restarts, seed=seed)
        value, elements = accessible_info_loop(ensemble, outcomes, restarts, seed)
        assert new.value == value
        assert all(np.array_equal(e, e_old)
                   for e, e_old in zip(new.povm.elements, elements, strict=True))

    @pytest.mark.parametrize("restarts", [0, -1])
    @pytest.mark.parametrize("quantity", ["Q1", "chi", "accessible_info"])
    def test_no_restarts_refused(self, quantity, restarts, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("L-BFGS ran")

        monkeypatch.setattr(cap, "minimize", ran)
        run = {"Q1": lambda: cap.one_shot_quantum_capacity(ch.depolarizing(0.1), restarts),
               "chi": lambda: cap.holevo_chi_channel(ch.depolarizing(0.1), restarts=restarts),
               "accessible_info": lambda: mea.optimize_accessible_info(
                   random_ensemble(5), 2, restarts)}
        with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
            run[quantity]()
