"""Tests of the benchmark itself: every correctness check accepts a right
value and rejects a deliberately wrong one, and the harness pieces (metric
names, tracing, determinism comparison, set-up completeness) do what the
README says.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks as ck  # noqa: E402
import metrics  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def rng(seed=0):
    return np.random.default_rng(seed)


def random_state(d, rank, seed):
    g = rng(seed).standard_normal((d, rank)) + 1j * rng(seed + 1).standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


# ---------------------------------------------------------------------------
# haar_small checks
# ---------------------------------------------------------------------------

def test_info_gain_rejects_wrong_estimate_exact_and_stderr():
    d, t = 16, 800
    exact = ck.info_gain_exact_nats(d)
    se = ck.info_gain_trial_std(d) / math.sqrt(t)
    assert ck.check_info_gain(d, t, exact + se, exact, se) is None
    assert ck.check_info_gain(d, t, exact + 5 * se, exact, se)
    assert ck.check_info_gain(d, t, exact, exact + 1e-6, se)
    assert ck.check_info_gain(d, t, exact, exact, 10 * se)


def test_page_mean_matches_small_case_and_rejects_shift():
    # d1 = d2 = 2: sum_{k=3}^{4} 1/k - 1/4 = 1/3 nats
    assert ck.page_mean_bits(2, 2) == pytest.approx((1 / 3) / math.log(2), abs=1e-15)
    t = 400
    se = ck.page_trial_std_bits(8, 2) / math.sqrt(t)
    ref = ck.page_mean_bits(8, 2)
    assert ck.check_page(8, 2, t, ref - se, se) is None
    assert ck.check_page(8, 2, t, ref - 5 * se, se)
    with pytest.raises(ValueError):
        ck.page_mean_bits(2, 8)


def test_decoupling_check_rejects_mean_above_bound_and_bad_trials():
    sigma = np.zeros((4, 4), dtype=complex)
    sigma[0, 0] = 1.0                      # pure: bound sqrt(2/2 * 1) = 1 for split (2, 2)
    low = np.full(30, 0.5) + 0.01 * rng().standard_normal(30)
    assert ck.check_decoupling(sigma, 2, 2, 1, low, float(low.mean())) is None
    high = np.full(30, 1.5) + 0.01 * rng().standard_normal(30)
    assert ck.check_decoupling(sigma, 2, 2, 1, high, float(high.mean()))
    assert ck.check_decoupling(sigma, 2, 2, 1, low, float(low.mean()) + 0.1)
    bad = low.copy()
    bad[0] = 2.5
    assert ck.check_decoupling(sigma, 2, 2, 1, bad, float(bad.mean()))


def test_moment_check_rejects_wrong_weights():
    d1 = d2 = 2
    d = 4
    c = (1 / 2) * (1 - 1 / 4) / (1 - 1 / 16)
    s = ck.swap_operator(d)
    assert np.array_equal(s @ s, np.eye(d * d))
    assert ck.check_moments(d1, d2, 600, c * np.eye(d * d) + c * s) is None
    assert ck.check_moments(d1, d2, 600, (c + 0.3) * np.eye(d * d) + c * s)


def test_projected_check_rejects_wrong_bound_and_mean():
    g = 0.3
    kraus = [np.array([[1, 0], [0, math.sqrt(1 - g)]]), np.array([[0, math.sqrt(g)], [0, 0]])]
    psi = rng(3).standard_normal(16) + 1j * rng(4).standard_normal(16)
    psi /= np.linalg.norm(psi)
    amps = psi.reshape(8, 2)
    out = ck.kraus_apply(kraus, amps.T @ amps.conj())
    bound = math.sqrt(2 * 2 * np.vdot(out, out).real)
    vals = np.full(50, 0.2) + 0.01 * rng().standard_normal(50)
    assert ck.check_projected(psi, 8, kraus, 2, vals, float(vals.mean()), bound) is None
    assert ck.check_projected(psi, 8, kraus, 2, vals, float(vals.mean()), bound * 1.01)
    big = vals + bound
    assert ck.check_projected(psi, 8, kraus, 2, big, float(big.mean()), bound)


def test_ssa_check_uses_own_partial_trace():
    a, b, c = random_state(2, 2, 1), random_state(2, 2, 3), random_state(2, 2, 5)
    product = np.kron(np.kron(a, b), c)
    assert ck.cmi_bits(product, (2, 2, 2)) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(ck.ptrace(product, (2, 2, 2), [0, 2]), np.kron(a, c))
    assert ck.check_ssa(product, (2, 2, 2), 0.0) is None
    assert ck.check_ssa(product, (2, 2, 2), 0.25)


def test_monotonicity_check_rejects_wrong_output_and_values():
    rho, sigma = random_state(2, 2, 7), random_state(2, 2, 9)
    kraus = ck.random_kraus(2, 2, 3, rng(11))
    out_r, out_s = ck.kraus_apply(kraus, rho), ck.kraus_apply(kraus, sigma)
    before = ck.relative_entropy_bits(rho, sigma)
    after = ck.relative_entropy_bits(out_r, out_s)
    assert after <= before
    assert ck.check_monotonicity(rho, sigma, kraus, out_r, out_s, before, after) is None
    assert ck.check_monotonicity(rho, sigma, kraus, out_r, out_s, before, before + 0.1)
    assert ck.check_monotonicity(rho, sigma, kraus, out_r + 1e-6, out_s, before, after)


# ---------------------------------------------------------------------------
# mirror checks
# ---------------------------------------------------------------------------

def mirror_report(fid, c=2, emitted=4):
    return {"fidelity_estimate": fid, "mean_l1": 1 - fid, "target": 1 - 2.0 ** (-c),
            "emitted_qubits": emitted, "mc_stderr": 0.01}


def test_mirror_round_check_rejects_wrong_fields():
    assert ck.check_mirror_round(mirror_report(0.9), 10, 2, 2, "old") is None
    assert ck.check_mirror_round(mirror_report(0.9, emitted=5), 10, 2, 2, "old")
    bad = mirror_report(0.9) | {"mean_l1": 0.2}
    assert ck.check_mirror_round(bad, 10, 2, 2, "old")
    assert ck.check_mirror_round(mirror_report(0.9, c=3), 10, 2, 2, "old")


def test_mirror_pooled_check_rejects_low_fidelity_and_worse_margin():
    good = {("old", 2): [0.90, 0.91, 0.92], ("old", 3): [0.95, 0.96, 0.955]}
    assert ck.check_mirror_pooled(good) is None
    assert ck.check_mirror_pooled({("old", 2): [0.60, 0.61, 0.62]})
    worse = {("old", 2): [0.95, 0.96, 0.955], ("old", 3): [0.90, 0.901, 0.902]}
    assert ck.check_mirror_pooled(worse)


def test_mirror_reference_matches_program_and_rejects_shift():
    from qshannon import decoupling as dec
    rep = dec.black_hole_mirror(6, 2, 1, "young", 200, 5)
    own, own_se = ck.mirror_l1_reference("young", 6, 2, 1, 200)
    assert abs(rep.mean_l1 - own) <= 4 * math.hypot(rep.mc_stderr, own_se)
    rounds = [own + 0.001, own - 0.001, own + 0.0005, own - 0.0005]
    assert ck.check_mirror_reference("young", "young", 6, 2, 1, rounds, 200) is None
    shifted = [x + 0.05 for x in rounds]
    assert ck.check_mirror_reference("young", "young", 6, 2, 1, shifted, 200)


# ---------------------------------------------------------------------------
# optimize checks
# ---------------------------------------------------------------------------

def test_closed_forms_at_known_points():
    assert ck.depolarizing_closed(0.0) == {"C1": 1.0, "CE": 2.0, "Q1": 1.0}
    assert ck.erasure_closed(0.75)["Q1"] == 0.0
    ad = ck.amplitude_damping_closed(0.0)       # the identity channel
    assert ad["Q1"] == pytest.approx(1, abs=1e-12)
    assert ad["CE"] == pytest.approx(2, abs=1e-12)
    assert ad["C1"] == pytest.approx(1, abs=1e-12)
    ad = ck.amplitude_damping_closed(0.6)       # anti-degradable: Q1 = 0
    assert ad["Q1"] == 0.0


def test_closed_form_check_rejects_off_value():
    closed = ck.depolarizing_closed(0.1)
    assert ck.check_closed_forms("dep", dict(closed), closed) is None
    assert ck.check_closed_forms("dep", {"C1": closed["C1"] + 2e-6}, closed)


def test_random_channel_check_rejects_order_and_lower_bounds():
    kraus = ck.random_kraus(2, 2, 3, rng(5))
    ic, chi = ck.coherent_info_mm(kraus), ck.basis_chi(kraus)
    q1, c1, ce = max(ic, 0.0), chi + 0.01, chi + 0.5
    assert ck.check_random_channel("ch", kraus, q1, c1, ce) is None
    assert ck.check_random_channel("ch", kraus, q1, ce + 0.1, ce)
    assert ck.check_random_channel("ch", kraus, ic - 0.01, c1, ce)
    assert ck.check_random_channel("ch", kraus, q1, chi - 0.01, ce)


def test_blahut_arimoto_check_rejects_value_below_upper_bound():
    p = 0.11
    w = np.array([[1 - p, p], [p, 1 - p]])
    r = np.array([0.5, 0.5])
    cap = 1 - ck.h2(p)
    assert ck.ba_upper(w, r) == pytest.approx(cap, abs=1e-15)
    assert ck.check_blahut_arimoto(w, cap, r, 1e-9) is None
    assert ck.check_blahut_arimoto(w, cap - 1e-6, r, 1e-9)
    assert ck.check_blahut_arimoto(w, cap + 1e-6, r, 1e-9)


def test_trine_check():
    assert ck.check_trine(math.log2(1.5)) is None
    assert ck.check_trine(0.4591479169)


# ---------------------------------------------------------------------------
# coding checks
# ---------------------------------------------------------------------------

def test_census_sum_matches_brute_force_and_rejects_off_by_one():
    import itertools
    p, n, delta = [0.5, 0.3, 0.2], 6, 0.2
    h = ck.shannon_bits(p)
    count, prob = 0, 0.0
    for seq in itertools.product(range(3), repeat=n):
        lp = sum(math.log2(p[x]) for x in seq)
        if h - delta <= -lp / n <= h + delta:
            count += 1
            prob += 2.0 ** lp
    own = ck.typical_census(p, n, delta)
    assert own[0] == count and own[1] == pytest.approx(prob, abs=1e-12)
    assert ck.check_census(p, n, delta, count, own[1]) is None
    assert ck.check_census(p, n, delta, count + 1, own[1])
    assert ck.check_census(p, n, delta, count, own[1] + 1e-9)


def test_compression_checks_against_the_program():
    from qshannon import coding
    probs = [0.6, 0.4]
    states = [np.array([1.0, 0.0]), np.array([math.cos(0.5), math.sin(0.5)])]
    ens = list(zip(probs, states))
    rep = coding.schumacher_sim(ens, 6, spec=coding.TypicalitySpec(6, 0.3))
    out = {"fidelity": rep.fidelity, "weight": rep.weight, "dim": rep.dim, "ky_fan_bound": None}
    assert ck.check_compression(out, probs, states, 6, delta=0.3) is None
    assert ck.check_compression(out | {"dim": rep.dim + 1}, probs, states, 6, delta=0.3)
    assert ck.check_compression(out | {"fidelity": 1.01}, probs, states, 6, delta=0.3)
    assert ck.check_compression(out | {"fidelity": 2 * rep.weight - 1.1}, probs, states, 6,
                                delta=0.3)
    rep = coding.schumacher_sim(ens, 6, rate=0.5)
    out = {"fidelity": rep.fidelity, "weight": rep.weight, "dim": rep.dim,
           "ky_fan_bound": rep.ky_fan_bound}
    assert ck.check_compression(out, probs, states, 6, rate=0.5) is None
    assert ck.check_compression(out | {"weight": rep.ky_fan_bound + 1e-6,
                                       "fidelity": 1.0}, probs, states, 6, rate=0.5)
    assert ck.check_compression(out | {"dim": 9}, probs, states, 6, rate=0.5)


def test_schumacher3_check():
    assert ck.check_schumacher3(0.94186, 0.92338) is None
    assert ck.check_schumacher3(0.94186, 0.9236)


def test_concentration_check_rejects_shifted_mean():
    p, n, t = 0.2, 40, 2000
    outcomes = rng(8).binomial(n, p, size=t)
    ms, cs = np.unique(outcomes, return_counts=True)
    hist = {int(m): int(c) for m, c in zip(ms, cs)}
    mean = float(np.mean([math.log2(math.comb(n, int(m))) for m in outcomes]))
    assert ck.check_concentration(p, n, t, hist, mean) is None
    assert ck.check_concentration(p, n, t, hist, mean + 1e-6)
    shifted = {m + 3: c for m, c in hist.items()}
    smean = float(np.mean([math.log2(math.comb(n, int(m) + 3)) for m in outcomes]))
    assert ck.check_concentration(p, n, t, shifted, smean)


def test_bsc_and_slepian_wolf_checks():
    assert ck.check_bsc(0.05, 20, 0.25, 200, 0.99) is None
    assert ck.check_bsc(0.05, 20, 0.25, 200, 0.5)
    assert ck.check_slepian_wolf(20, 0.5, 0.9) is None
    assert ck.check_slepian_wolf(20, 0.95, 0.2)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == [n for n, _ in metrics.END_TO_END]
    assert all(e2e[n]["unit"] == u and e2e[n]["better"] == "lower"
               for n, u in metrics.END_TO_END)
    assert max(e2e, key=lambda n: e2e[n]["bound"]) == "setup_s"
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == [(n, metrics.unit(n), metrics.better(n)) for n, _ in metrics.PER_LAYER]


def test_identical_is_bitwise():
    a = {"x": np.array([0.1, 0.2]), "y": [(1.0, "s")]}
    b = {"x": np.array([0.1, np.nextafter(0.2, 1)]), "y": [(1.0, "s")]}
    assert bench_run.identical(a, a)
    assert not bench_run.identical(a, b)
    assert bench_run.identical(float("nan"), float("nan"))


def test_without_wall_time_drops_only_that_line():
    text = '{\n  "results": {"x": 1},\n  "wall_time": 0.123\n}\n'
    other = text.replace("0.123", "4.5")
    assert workloads.without_wall_time(text) == workloads.without_wall_time(other)
    assert "results" in workloads.without_wall_time(text)


def test_parse_importtime():
    err = ("import time: self [us] | cumulative | imported package\n"
           "import time:       120 |        120 |   _io\n"
           "import time:      5000 |      91000 | numpy\n")
    assert bench_run.parse_importtime(err) == {"_io": 120e-6, "numpy": 0.091}


def test_qr_gflop_counts_factor_and_q():
    n = 1024
    assert spans.qr_gflop(np.zeros((n, n), complex)) == pytest.approx(4 * 8 / 3 * n ** 3 / 1e9)
    assert spans.qr_gflop(np.zeros((2, 8, 8))) == pytest.approx(2 * 8 / 3 * 8 ** 3 / 1e9)


def test_tracer_counts_and_restores():
    import qshannon.decoupling as dec
    import qshannon.linalg as lin
    original = lin.haar_random_unitary
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dec.haar_random_unitary is not original
        rep = dec.decoupling_experiment(dec.DecouplingTrialSet(
            lin.maximally_mixed(lin.SubsystemLayout((4,), ("A",))), (2, 2), 5, 1))
    finally:
        tracer.uninstall()
    assert dec.haar_random_unitary is original and lin.haar_random_unitary is original
    assert rep.per_trial.size == 5
    assert tracer.stat("linalg.haar_random_unitary", "calls") == 5
    assert tracer.stat("lapack.qr", "calls") == 5
    assert tracer.stat("rng.stream", "calls") == 5
    assert tracer.counters["decoupling.trials"] == 5
    total = tracer.stat("decoupling.decoupling_experiment", "total_s")
    own = tracer.stat("decoupling.decoupling_experiment", "self_s")
    assert 0 < own < total
    values = metrics.per_layer(tracer, {})
    assert [n for n, _ in metrics.PER_LAYER] == list(values)
    assert values["decoupling.per_trial_s"] == pytest.approx(total / 5)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_setup_imports_everything_a_round_needs(name, tmp_path):
    """After set-up, one round of the workload imports no further module."""
    code = f"""
import sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]
import probe, workloads
w = workloads.WORKLOADS[{name!r}]
inputs = probe.setup(w, 3, 1, __import__('pathlib').Path({str(tmp_path)!r}))
before = set(sys.modules)
out = w.run(inputs[1])
new = sorted(set(sys.modules) - before)
assert not w.check(inputs[1], out), w.check(inputs[1], out)
print(new)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_inputs_repeat_for_a_seed(tmp_path):
    for w in workloads.WORKLOADS.values():
        a = w.make_inputs(5, 2, tmp_path)
        b = w.make_inputs(5, 2, tmp_path)
        assert bench_run.identical(a, b)
        assert not bench_run.identical(a, w.make_inputs(6, 2, tmp_path))


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mirror",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
