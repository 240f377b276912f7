"""The stacked Haar Monte Carlo engine against the one-trial-at-a-time loops
it replaced.  The loops below are kept as oracles: every experiment must
reproduce their per-trial values bit for bit, whatever the chunk size.  The
one exception is decoupling at shapes where the BLAS sums the Kronecker
loop's zero-padded products in another order; there the values agree to
roundoff."""

import ast
import math
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qshannon import _rng
from qshannon import decoupling as dec
from qshannon import coding as cod
from qshannon import measure as mea
from qshannon._rng import keyed_stream, normal_pairs, stream, trial_chunks
from qshannon.channels import amplitude_damping, dilate, erasure
from qshannon.linalg import (
    DensityOperator,
    PureState,
    SubsystemLayout,
    haar_isometries,
    haar_isometry,
    haar_random_pure,
    haar_states,
    partial_trace,
    partial_trace_pure,
    random_mixed_state,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "qshannon"


# ---------------------------------------------------------------------------
# oracles: the per-trial loops, one stream(seed, t) generator per trial
# ---------------------------------------------------------------------------

def loop_haar_unitary(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def loop_haar_isometry(d, cols, rng):
    z = (rng.standard_normal((d, cols)) + 1j * rng.standard_normal((d, cols))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def loop_l1(a, b):
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def loop_decoupling(sigma, split, trials, seed):
    da = sigma.layout.dims[0]
    de = sigma.layout.dims[1] if len(sigma.layout.dims) > 1 else 1
    d1, d2 = split
    has_e = len(sigma.layout.dims) > 1
    sigma_e = partial_trace(sigma, ["E"]).matrix if has_e else np.array([[1.0]], dtype=complex)
    target = np.kron(np.eye(d2) / d2, sigma_e)
    m = sigma.matrix
    vals = np.empty(trials)
    for i in range(trials):
        u = loop_haar_unitary(da, stream(seed, i))
        big_u = np.kron(u, np.eye(de)) if has_e else u
        rotated = big_u @ m @ big_u.conj().T
        r = rotated.reshape(d1, d2 * de, d1, d2 * de)
        vals[i] = loop_l1(np.einsum("iaib->ab", r), target)
    return vals


def loop_partial_swap(d1, d2):
    d = d1 * d2
    op = np.zeros((d * d, d * d))
    for a1 in range(d1):
        for a2 in range(d2):
            for b1 in range(d1):
                for b2 in range(d2):
                    row = (a1 * d2 + b2) * d + (b1 * d2 + a2)
                    col = (a1 * d2 + a2) * d + (b1 * d2 + b2)
                    op[row, col] = 1.0
    return op


def loop_swap(d):
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def loop_moment_mean(d1, d2, trials, seed):
    d = d1 * d2
    op = loop_partial_swap(d1, d2)
    acc = np.zeros((d * d, d * d), dtype=complex)
    for i in range(trials):
        u = loop_haar_unitary(d, stream(seed, i))
        uu = np.kron(u, u)
        acc += uu.conj().T @ op @ uu
    return acc / trials


def loop_projected(psi_ra, channel, d_r2, trials, seed):
    lay = psi_ra.layout
    d_r = lay.dims[lay.index("R")]
    d_r1 = d_r // d_r2
    v_dil = dilate(channel)
    d_b, d_e = channel.dim_out, channel.env_dim
    amps = psi_ra.amplitudes.reshape(d_r, channel.dim_in)
    phi = (amps @ v_dil.T).reshape(d_r, d_b, d_e)
    sigma_e = np.einsum("rbe,rbf->ef", phi, phi.conj())
    target = np.kron(np.eye(d_r2) / d_r2, sigma_e)
    vals = np.empty(trials)
    for i in range(trials):
        v = loop_haar_unitary(d_r, stream(seed, i))
        rot = np.einsum("sr,rbe->sbe", v, phi)
        proj = rot.reshape(d_r1, d_r2, d_b, d_e)[0]
        norm2 = np.vdot(proj, proj).real
        if norm2 < 1e-30:
            vals[i] = 0.0
            continue
        proj = proj / math.sqrt(norm2)
        s_r2e = np.einsum("qbe,pbf->qepf", proj, proj.conj()).reshape(d_r2 * d_e, d_r2 * d_e)
        vals[i] = loop_l1(s_r2e, target)
    return vals


def loop_mirror(n, k, kps, age, trials, seed):
    d = 2 ** n
    per_c = np.empty((len(kps), trials))
    for t in range(trials):
        rng = stream(seed, t)
        iso = loop_haar_isometry(d, d if age == "old" else 2 ** k, rng)
        for j, kp in enumerate(kps):
            d_a, d_rem, d_em = 2 ** k, 2 ** (n - kp), 2 ** kp
            if age == "old":
                t4 = iso.reshape(d_em, d_rem, d_a, 2 ** (n - k))
                w = np.transpose(t4, (1, 2, 0, 3)).reshape(d_rem * d_a, d_em * 2 ** (n - k))
                sigma = (w @ w.conj().T) / (2 ** n)
            else:
                t3 = iso.reshape(d_em, d_rem, d_a) / math.sqrt(d_a)
                m = np.transpose(t3, (1, 2, 0)).reshape(d_rem * d_a, d_em)
                sigma = m @ m.conj().T
            evals = np.linalg.eigvalsh(sigma)
            per_c[j, t] = float(np.abs(evals - 1.0 / (d_rem * d_a)).sum())
    return per_c


def loop_subsystem_entropies(d1, d2, trials, seed):
    lay = SubsystemLayout((d1, d2), ("A1", "A2"))
    vals = np.empty(trials)
    for i in range(trials):
        psi = haar_random_pure(lay, stream(seed, i))
        rho2 = partial_trace_pure(psi, ["A2"]).matrix
        ev = np.clip(np.linalg.eigvalsh(rho2), 0.0, None)
        nz = ev[ev > 1e-14]
        vals[i] = float(-np.sum(nz * np.log2(nz)))
    return vals


def loop_gain_terms(d, trials, seed):
    lay = SubsystemLayout((d,), ("A",))
    cond = np.empty(trials)
    for t in range(trials):
        psi = haar_random_pure(lay, stream(seed, t))
        p = np.abs(psi.amplitudes) ** 2
        nz = p[p > 1e-300]
        cond[t] = -np.sum(nz * np.log(nz))
    return cond


def stderr(x):
    return float(x.std(ddof=1) / math.sqrt(x.size))


# chunk bounds: one trial per chunk, the engine's own bound, and every trial at once
@pytest.fixture(params=[1, _rng.CHUNK_ENTRIES, 2 ** 40], ids=["one", "default", "all"])
def chunk_entries(request, monkeypatch):
    monkeypatch.setattr(_rng, "CHUNK_ENTRIES", request.param)
    return request.param


def same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


# ---------------------------------------------------------------------------
# keyed draws and the Haar samplers
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.one_of(st.integers(-2 ** 70, -1), st.integers(2 ** 63, 2 ** 66),
                      st.integers(0, 2 ** 63)),
       start=st.integers(0, 2 ** 64 + 5), count=st.integers(1, 5), cut=st.integers(0, 5),
       shape=st.sampled_from([(1,), (3,), (2, 3)]))
def test_normal_pairs_equal_stream_draws(seed, start, count, cut, shape):
    re_all, im_all = normal_pairs(seed, start, start + count, shape)
    for row, t in enumerate(range(start, start + count)):
        g = stream(seed, t)
        assert same(re_all[row], g.standard_normal(shape))
        assert same(im_all[row], g.standard_normal(shape))
    # a chunk boundary anywhere in the range changes nothing
    mid = start + min(cut, count)
    left, right = normal_pairs(seed, start, mid, shape), normal_pairs(seed, mid, start + count, shape)
    assert same(np.concatenate([left[0], right[0]]), re_all)
    assert same(np.concatenate([left[1], right[1]]), im_all)


@pytest.mark.parametrize("shape", [(1,), (16,), (4, 4), (64, 64)])
def test_normal_pairs_row_is_one_double_draw(shape):
    """Row t is one stream(seed, t).standard_normal((2, *shape)) draw, split
    into its (re, im) halves."""
    re_all, im_all = normal_pairs(71, 5, 9, shape)
    for row, t in enumerate(range(5, 9)):
        both = stream(71, t).standard_normal((2,) + shape)
        assert same(re_all[row], both[0]) and same(im_all[row], both[1])


def test_normal_pairs_threads_keep_their_own_generator():
    """Each thread re-keys its own Philox: threads drawing at once get the
    draws a lone caller gets."""
    seeds = list(range(101, 109))
    want = {s: normal_pairs(s, 0, 40, (3,)) for s in seeds}
    got = {}

    def work(s):
        for _ in range(25):
            got[s] = normal_pairs(s, 0, 40, (3,))
            if not (same(got[s][0], want[s][0]) and same(got[s][1], want[s][1])):
                return

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for s in seeds:
        assert same(got[s][0], want[s][0]) and same(got[s][1], want[s][1])


def same_state(a, b):
    """Equal bit-generator states: nested dicts of ints and arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return same(a, b)


KEYED_DRAWS = {
    "uint8_integers": lambda g: g.integers(0, 2, size=(7, 5), dtype=np.uint8),
    "integers": lambda g: g.integers(1000),
    "random": lambda g: g.random(9),
    "multinomial": lambda g: g.multinomial(12, [0.1, 0.0, 0.4, 0.5]),
    "binomial_array": lambda g: g.binomial(np.array([0, 3, 1, 2 ** 40, 70, 0, 5]), 0.3),
    "binomial_p1": lambda g: g.binomial(np.array([4, 0, 9]), 1.0),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.one_of(st.integers(-2 ** 70, -1), st.integers(0, 2 ** 66)),
       index=st.integers(0, 2 ** 64 + 5),
       order=st.permutations(sorted(KEYED_DRAWS)))
def test_keyed_stream_equals_stream(seed, index, order):
    """The re-keyed generator makes the draws stream(seed, index) makes, in
    any sequence of calls, and is left in the same state; a draw with
    another key in between changes nothing."""
    keyed_stream(seed + 1, index)
    fresh = stream(seed, index)
    keyed = keyed_stream(seed, index)
    for name in order:
        assert same(KEYED_DRAWS[name](keyed), KEYED_DRAWS[name](fresh)), name
    assert same_state(keyed.bit_generator.state, fresh.bit_generator.state)
    # numpy integer seeds and indices key the same stream
    assert same(keyed_stream(np.int64(seed % 2 ** 62), np.int64(index % 2 ** 62)).random(3),
                stream(seed % 2 ** 62, index % 2 ** 62).random(3))


def test_keyed_stream_threads_keep_their_own_generator():
    """Threads that re-key and draw at once each get the draws of their own
    key."""
    keys = [(201 + i, i) for i in range(8)]
    want = {k: stream(*k).random(64) for k in keys}
    bad = []

    def work(k):
        for _ in range(200):
            if not same(keyed_stream(*k).random(64), want[k]):
                bad.append(k)
                return

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


@pytest.mark.parametrize("trials,entries", [(0, 4), (1, 4), (10, 4096), (37, 256), (3, 2 ** 20)])
def test_trial_chunks_partition_within_bound(trials, entries):
    chunks = list(trial_chunks(trials, entries))
    assert [t for a, b in chunks for t in range(a, b)] == list(range(trials))
    assert all(b - a == 1 or (b - a) * entries <= _rng.CHUNK_ENTRIES for a, b in chunks)


@pytest.mark.parametrize("rows,cols", [(1, 1), (4, 4), (16, 16), (8, 2), (6, 3), (64, 64)])
def test_haar_isometries_equal_per_trial_draws(rows, cols):
    stack = haar_isometries(61, 3, 12, rows, cols)
    for row, t in enumerate(range(3, 12)):
        one = haar_isometry(rows, cols, stream(61, t))
        assert same(stack[row], one)
        assert same(one, loop_haar_isometry(rows, cols, stream(61, t)))


@pytest.mark.parametrize("d", [1, 2, 16, 64, 1024])
def test_haar_states_equal_haar_random_pure(d):
    lay = SubsystemLayout((d,), ("A",))
    stack = haar_states(67, 0, 9, d)
    for t in range(9):
        assert same(stack[t], haar_random_pure(lay, stream(67, t)).amplitudes)


def test_qr_only_in_linalg():
    """One Haar sampler: no module but linalg calls a QR."""
    calls = {p.name for p in SRC.glob("*.py") if re.search(r"\bqr\(", p.read_text())}
    assert calls == {"linalg.py"}


def test_density_operator_coerced_only_in_linalg():
    """One checked boundary for states: no module but linalg tests
    isinstance(x, DensityOperator); the others take bare arrays through
    linalg._state_matrix."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and "DensityOperator" in ast.unparse(node.args[1])):
                found.add(path.stem)
    assert found == {"linalg"}


def callers(name):
    """(module, top-level function or class) of every call of `name` in the
    package."""
    found = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                    found.add((path.stem, getattr(top, "name", None)))
    return found


def test_one_trial_loop():
    """Only run_trials loops over the chunks of a stacked experiment, and
    refuses too few trials; expected_M_check keeps its ordered running sum,
    and slepian_wolf_sim its per-trial loop."""
    assert callers("trial_chunks") == {("_rng", "_run_range"), ("decoupling", "expected_M_check")}
    assert callers("check_trials") == {("_rng", "run_trials"), ("decoupling", "DecouplingTrialSet"),
                                       ("coding", "slepian_wolf_sim")}


def test_one_typical_set():
    """The census and the Schumacher subspace share one typical-set routine,
    the typicality window h - delta <= rate <= h + delta is written once,
    and no dense projector is built."""
    assert callers("_typical_set") == {("coding", "typical_set_census"),
                                       ("coding", "schumacher_projector")}
    windows = set()
    for top in ast.parse((SRC / "coding.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.BinOp) and "delta" in ast.unparse(side)
                    for side in [node.left, *node.comparators]):
                windows.add(top.name)
    assert windows == {"_within"}
    for gone in ("_typical_classes", "_typical_mask", "_materialize_projector"):
        assert not hasattr(cod, gone)


@pytest.mark.parametrize("np_int", [np.int64, np.uint64])
def test_numpy_integer_seeds_draw_as_python_ints(np_int):
    """A numpy integer seed or index keys the same stream as the Python int."""
    want = stream(5, 3).random(8)
    assert same(stream(np_int(5), np_int(3)).random(8), want)
    assert same(keyed_stream(np_int(5), np_int(3)).random(8), want)
    got, ref = normal_pairs(np_int(5), np_int(2), np_int(6), (3,)), normal_pairs(5, 2, 6, (3,))
    assert same(got[0], ref[0]) and same(got[1], ref[1])
    sigma = dec.random_sigma_ae(4, 2, stream(5, 0))
    reps = [dec.decoupling_experiment(dec.DecouplingTrialSet(sigma, (2, 2), 5, s))
            for s in (11, np_int(11))]
    assert same(reps[0].per_trial, reps[1].per_trial)
    gains = [mea.haar_information_gain(8, 5, s) for s in (9, np_int(9))]
    assert gains[0].estimate_nats == gains[1].estimate_nats
    conc = [cod.concentration_sim(0.2, 10, 50, s) for s in (7, np_int(7))]
    assert conc[0].histogram == conc[1].histogram


# ---------------------------------------------------------------------------
# the experiments against their loops
# ---------------------------------------------------------------------------

def basis_pure(d):
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = 1.0
    return DensityOperator(m, SubsystemLayout((d,), ("A",)))


@pytest.mark.parametrize("case", ["pure16", "mixed8", "ae8x2", "ae4x4", "ae16x2",
                                  "ae16x4_2x8", "ae16x4_4x4", "ae16x4_8x2"])
@pytest.mark.parametrize("trials", [2, 37])
def test_decoupling_per_trial_equals_loop(case, trials, chunk_entries):
    sigma, split = {
        "pure16": lambda: (basis_pure(16), (8, 2)),
        "mixed8": lambda: (random_mixed_state(SubsystemLayout((8,), ("A",)), stream(3, 0),
                                              env_dim=2), (2, 4)),
        "ae8x2": lambda: (dec.random_sigma_ae(8, 2, stream(5, 0)), (4, 2)),
        "ae4x4": lambda: (dec.random_sigma_ae(4, 4, stream(7, 0)), (2, 2)),
        "ae16x2": lambda: (dec.random_sigma_ae(16, 2, stream(9, 0)), (4, 4)),
        "ae16x4_2x8": lambda: (dec.random_sigma_ae(16, 4, stream(13, 0)), (2, 8)),
        "ae16x4_4x4": lambda: (dec.random_sigma_ae(16, 4, stream(13, 0)), (4, 4)),
        "ae16x4_8x2": lambda: (dec.random_sigma_ae(16, 4, stream(13, 0)), (8, 2)),
    }[case]()
    rep = dec.decoupling_experiment(dec.DecouplingTrialSet(sigma, split, trials, 11))
    vals = loop_decoupling(sigma, split, trials, 11)
    assert same(rep.per_trial, vals)
    assert rep.mean_l1 == float(vals.mean()) and rep.mc_stderr == stderr(vals)


@pytest.mark.parametrize("da,de,split", [(2, 4, (2, 1)), (6, 2, (2, 3)), (64, 4, (8, 8)),
                                         (128, 2, (2, 64))])
def test_decoupling_near_loop_where_sums_reorder(da, de, split):
    """Shapes whose products the BLAS sums in another order without the
    zero blocks of U x I_E: |A| not a multiple of 4, or |A||E| >= 256.  Per
    trial they agree with the Kronecker loop to roundoff."""
    sigma = dec.random_sigma_ae(da, de, stream(23, 0))
    rep = dec.decoupling_experiment(dec.DecouplingTrialSet(sigma, split, 3, 11))
    np.testing.assert_allclose(rep.per_trial, loop_decoupling(sigma, split, 3, 11),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("d1,d2,trials", [(2, 2, 37), (2, 3, 5), (4, 4, 3), (1, 3, 2)])
def test_moment_mean_equals_loop(d1, d2, trials, chunk_entries):
    rep = dec.expected_M_check(d1, d2, trials, 13)
    assert same(rep.empirical_mean, loop_moment_mean(d1, d2, trials, 13))


@pytest.mark.parametrize("d1,d2", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_permutation_operators_equal_loops(d1, d2):
    eye = np.eye((d1 * d2) ** 2)
    assert same(eye[dec._partial_swap(d1, d2)], loop_partial_swap(d1, d2))
    assert same(eye[dec._partial_swap(1, d1 * d2)], loop_swap(d1 * d2))


@pytest.mark.parametrize("case", ["ad", "erasure", "rank2"])
@pytest.mark.parametrize("trials", [2, 41])
def test_projected_per_trial_equals_loop(case, trials, chunk_entries):
    if case == "ad":
        psi = haar_random_pure(SubsystemLayout((8, 2), ("R", "A")), stream(17, 0))
        channel, d_r2 = amplitude_damping(0.3), 2
    elif case == "erasure":
        psi = haar_random_pure(SubsystemLayout((4, 4), ("R", "A")), stream(19, 0))
        channel, d_r2 = erasure(0.25, 4), 2
    else:
        psi = PureState(np.eye(4, 2).reshape(-1) / math.sqrt(2),
                        SubsystemLayout((4, 2), ("R", "A")))
        channel, d_r2 = amplitude_damping(0.5), 1
    rep = dec.projected_decoupling_experiment(psi, channel, d_r2, trials, 29)
    vals = loop_projected(psi, channel, d_r2, trials, 29)
    assert same(rep.per_trial, vals)
    assert rep.mean_l1 == float(vals.mean()) and rep.mc_stderr == stderr(vals)


@pytest.mark.parametrize("n,k,cs,age,trials", [(4, 2, [1, 2], "old", 37), (6, 2, [1, 2], "young", 5),
                                               (6, 2, [2], "old", 3), (4, 2, [0, 1], "young", 2)])
def test_mirror_per_trial_equals_loop(n, k, cs, age, trials, chunk_entries):
    reps = dec.black_hole_mirror_batch(n, k, cs, age, trials, 31)
    kps = [dec._emitted_count(n, k, c, age) for c in cs]
    per_c = loop_mirror(n, k, kps, age, trials, 31)
    for rep, vals in zip(reps, per_c):
        assert rep.mean_l1 == float(vals.mean()) and rep.mc_stderr == stderr(vals)


@pytest.mark.parametrize("n,k,cs,age,trials,atol", [
    (5, 1, [0, 1], "old", 7, 0.0), (5, 3, [0, 1], "old", 3, 0.0),
    (5, 1, [0, 1, 2], "young", 41, 1e-15), (7, 3, [0, 1], "young", 9, 1e-15)])
def test_mirror_at_odd_k(n, k, cs, age, trials, atol):
    """One kernel divides each hole's Gram matrix by its column count.  The
    loop's young hole scales the draw by 1/sqrt(2^k) first, which is exact
    only at even k; at odd k the two differ by roundoff (at most 7.8e-16 per
    trial seen over 400 trials at n = 5..11, k = 1 and 3)."""
    reps = dec.black_hole_mirror_batch(n, k, cs, age, trials, 31)
    kps = [dec._emitted_count(n, k, c, age) for c in cs]
    for rep, vals in zip(reps, loop_mirror(n, k, kps, age, trials, 31)):
        np.testing.assert_allclose(rep.per_trial, vals, rtol=0, atol=atol)


@pytest.mark.parametrize("d1,d2,trials", [(8, 2, 37), (4, 4, 2), (16, 1, 5), (1, 4, 3), (2, 8, 9)])
def test_subsystem_entropy_equals_loop(d1, d2, trials, chunk_entries):
    rep = dec.random_subsystem_entropy(d1, d2, trials, 37)
    vals = loop_subsystem_entropies(d1, d2, trials, 37)
    assert rep.mean_entropy == float(vals.mean()) and rep.mc_stderr == stderr(vals)


@pytest.mark.parametrize("d,trials", [(2, 37), (16, 5), (3, 2)])
def test_information_gain_equals_loop(d, trials, chunk_entries):
    rep = mea.haar_information_gain(d, trials, 41)
    cond = loop_gain_terms(d, trials, 41)
    assert rep.estimate_nats == math.log(d) - float(cond.mean())
    assert rep.mc_stderr_nats == float(cond.std(ddof=1) / math.sqrt(trials))


@pytest.mark.parametrize("n", range(1, 17))
def test_row_entropies_drop_small_entries_as_the_loop_does(n):
    """Below 8 entries the masked sum, from 8 the per-row recompute, each
    equal to the sum of the row's kept entries; an all-dropped row is +0.0."""
    from qshannon.entropy import row_entropies
    rng = stream(43, n)
    p = rng.random((40, n))
    p[rng.random((40, n)) < 0.3] = 0.0
    p[1, : (n + 1) // 2] = 1e-20
    p[2] = 0.0
    p[3] = 1e-20
    p[4] = rng.random(n)
    got = row_entropies(p, 1e-14, np.log2)
    for row, val in zip(p, got):
        nz = row[row > 1e-14]
        assert same(val, -np.sum(nz * np.log2(nz)))
    assert not np.signbit(got).any()
    assert same(row_entropies(p[2], 1e-14, np.log2), 0.0)
    assert same(row_entropies(p.reshape(5, 8, n), 1e-14, np.log2), got.reshape(5, 8))
