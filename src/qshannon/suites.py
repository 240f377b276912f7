"""Named verification checks shared by the CLI `suite` command and the
acceptance test battery.

Every check returns a CheckResult with a pass flag and the measured numbers,
so a failure message shows what was computed, not just that it differed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import stream
from . import capacity as cap
from . import channels as ch
from . import coding
from . import decoupling as dec
from . import entropy as ent
from . import measure as mea
from .linalg import (
    DensityOperator,
    SubsystemLayout,
    density_from_matrix,
    eig_hermitian,
    haar_isometry,
    haar_random_pure,
    haar_random_unitary,
    layout,
    partial_trace,
    random_mixed_state,
    trace_distance,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] {self.name}: {parts}"


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# golden-number checks
# ---------------------------------------------------------------------------

SOURCE_RHO = np.array([[0.75, 0.25], [0.25, 0.25]])

TRINE = [np.array([1.0, 0.0]),
         np.array([-0.5, math.sqrt(3) / 2]),
         np.array([-0.5, -math.sqrt(3) / 2])]


def check_compression_golden() -> CheckResult:
    """Three-letter block compression of the skewed qubit source."""
    rho = density_from_matrix(SOURCE_RHO)
    vals, _ = eig_hermitian(rho.matrix)
    c2, s2 = math.cos(math.pi / 8) ** 2, math.sin(math.pi / 8) ** 2
    h = ent.von_neumann_entropy(rho)

    ensemble = [(0.5, np.array([1.0, 0.0])),
                (0.5, np.array([1.0, 1.0]) / math.sqrt(2))]
    spec = coding.TypicalitySpec(3, 0.5)
    sub = coding.schumacher_projector(rho, spec)
    rep = coding.schumacher_sim(ensemble, 3, spec=spec)

    ok = (_close(vals[0], c2, 1e-4) and _close(vals[1], s2, 1e-4)
          and _close(sub.weight, 0.9419, 1e-4)
          and _close(1 - sub.weight, 0.0581, 1e-4)
          and _close(rep.fidelity, 0.9234, 1e-4)
          and _close(h, 0.60088, 1e-5))
    return CheckResult("compression_golden", ok, {
        "eigenvalues": tuple(round(x, 6) for x in vals.tolist()),
        "weight": round(sub.weight, 6),
        "fidelity": round(rep.fidelity, 6),
        "entropy": round(h, 6)})


def trine_ensemble():
    return [(1 / 3, density_from_matrix(np.outer(v, v))) for v in TRINE]


def trine_exclusion_povm() -> mea.POVM:
    els = [(2 / 3) * (np.eye(2) - np.outer(v, v)) for v in TRINE]
    return mea.POVM(tuple(els))


def check_trine() -> CheckResult:
    e = trine_ensemble()
    acc = mea.accessible_info(e, trine_exclusion_povm())
    chi = ent.holevo_chi(e)
    ok = _close(acc, math.log2(1.5), 1e-5) and _close(chi, 1.0, 1e-9)
    return CheckResult("trine", ok, {"accessible": round(acc, 6), "chi": round(chi, 9)})


def peres_wootters_ensemble():
    states = [np.kron(v, v) for v in TRINE]
    return [(1 / 3, density_from_matrix(np.outer(v, v))) for v in states], states


def peres_wootters_values() -> tuple[bool, dict]:
    """The Peres-Wootters ensemble's numbers at full precision, and whether
    they match the notes."""
    e, states = peres_wootters_ensemble()
    rho = density_from_matrix(sum(p * s.matrix for p, s in e))
    vals, _ = eig_hermitian(rho.matrix)
    h = ent.von_neumann_entropy(rho)
    pgm = mea.pretty_good_measurement([v / math.sqrt(3) for v in states])
    joint = mea.outcome_joint(e, pgm)
    p_corr = joint[0, 0] * 3       # p(a|a)
    p_err = joint[0, 1] * 3        # p(b|a)
    _, i_xy = ent.conditional_mutual_classical(joint)
    ok = (np.allclose(vals[:3], [0.5, 0.25, 0.25], atol=1e-9)
          and _close(h, 1.5, 1e-9)
          and _close(p_corr, 0.971405, 1e-5)
          and _close(p_err, 0.0142977, 1e-5)
          and _close(i_xy, 1.369068, 1e-5))
    return ok, {"eigenvalues": vals[:3].tolist(), "entropy": h,
                "p_correct": p_corr, "p_error": p_err, "mutual_info": i_xy}


def check_peres_wootters() -> CheckResult:
    ok, v = peres_wootters_values()
    return CheckResult("peres_wootters", ok, {
        "eigenvalues": tuple(round(x, 6) for x in v["eigenvalues"]),
        "entropy": round(v["entropy"], 9), "p_correct": round(v["p_correct"], 6),
        "p_error": round(v["p_error"], 7), "mutual_info": round(v["mutual_info"], 6)})


def check_blahut_arimoto() -> CheckResult:
    worst = 0.0
    values = {}
    for p in (0.05, 0.11, 0.25):
        res = cap.blahut_arimoto(ch.bsc(p), tol=1e-10)
        target = 1 - cap.binary_entropy(p)
        worst = max(worst, abs(res.value - target))
        values[p] = round(res.value, 8)
    return CheckResult("blahut_arimoto_bsc", worst <= 1e-6,
                       {"values": values, "worst_gap": worst})


def check_erasure_q1() -> CheckResult:
    worst = 0.0
    for d in (2, 3):
        for p in (0.0, 0.1, 0.25, 0.4):
            res = cap.one_shot_quantum_capacity(ch.erasure(p, d), restarts=6)
            worst = max(worst, abs(res.value - cap.erasure_q1(p, d)))
    res_half = cap.one_shot_quantum_capacity(ch.erasure(0.5, 2), restarts=6)
    ok = worst <= 1e-4 and res_half.value <= 1e-4
    return CheckResult("erasure_q1", ok,
                       {"worst_gap": worst, "value_at_half": res_half.value})


def _decay_probability(t: ch.KrausChannel) -> float:
    """q = <0|T(|1><1|)|0>, the decay probability of a degrading map that is
    a q-damping or a q-erasure."""
    return float(ch.apply(t, np.diag(np.eye(t.dim_in)[1])).matrix[0, 0].real)


def check_degradability() -> CheckResult:
    dists = {}
    for name, channel in (("amplitude_damping", ch.amplitude_damping(0.25)),
                          ("erasure", ch.erasure(0.25, 2))):
        t = ch.degrading_map(channel)
        d = trace_distance(ch.choi_matrix(ch.compose(t, channel)),
                           ch.choi_matrix(ch.complementary(channel)))
        dists[name] = (round(_decay_probability(t), 12), d)
    ok = all(_close(q, 2 / 3, 1e-10) and d <= 1e-8 for q, d in dists.values())
    return CheckResult("degradability", ok, {"q_and_choi_distance": dists})


def check_depolarizing_sweep() -> CheckResult:
    grid = np.linspace(0.0, 0.75, 11)
    rows = cap.capacity_sweep("depolarizing", grid, ("C1", "CE", "Q1"),
                              restarts=4, seed=101)
    by_p: dict[float, dict[str, float]] = {}
    for r in rows:
        by_p.setdefault(r.p, {})[r.quantity] = r.value
    order_ok = all(v["CE"] >= v["C1"] - 1e-6 and v["C1"] >= v["Q1"] - 1e-6
                   for v in by_p.values())

    # zero crossing of the optimized Q1 vs the closed-form maximally-mixed-
    # input root.  Pure inputs always give exactly zero coherent information,
    # so past the root the optimizer returns a numerical zero; detect the
    # crossing as the point where the optimum falls below 1e-6.
    def q1_positive(p: float) -> bool:
        return cap.one_shot_quantum_capacity(ch.depolarizing(p), restarts=3).value > 1e-6

    lo, hi = 0.15, 0.23
    for _ in range(18):
        mid = (lo + hi) / 2
        if q1_positive(mid):
            lo = mid
        else:
            hi = mid
    crossing = (lo + hi) / 2
    target = cap.depolarizing_q1_zero()
    ok = order_ok and abs(crossing - target) <= 1e-3
    return CheckResult("depolarizing_sweep", ok, {
        "ordering": order_ok, "crossing": round(crossing, 5),
        "closed_form_root": round(target, 5)})


def check_haar_gain() -> CheckResult:
    vals = {}
    ok = True
    for d in (2, 16):
        r = mea.haar_information_gain(d, trials=10_000, seed=71 + d)
        target = math.log(d) - sum(1 / k for k in range(2, d + 1))
        ok &= _close(r.exact_nats, target, 1e-12)
        ok &= abs(r.estimate_nats - r.exact_nats) <= 4 * r.mc_stderr_nats
        vals[d] = (round(r.exact_nats, 6), round(r.estimate_nats, 6))
    exact64_bits = (math.log(64) - sum(1 / k for k in range(2, 65))) / math.log(2)
    ok &= abs(exact64_bits - 0.60995) <= 0.02
    vals["d64_bits"] = round(exact64_bits, 5)
    return CheckResult("haar_information_gain", ok, vals)


def check_thermodynamics() -> CheckResult:
    landauer_ok = all(abs(ent.landauer_work(b) - math.log(2) / b) <= 1e-8
                      for b in (1, 2, 10))
    worst_gibbs = 0.0
    for i in range(50):
        rng = stream(311, i)
        lay = SubsystemLayout((2,), ("A",))
        rho = random_mixed_state(lay, rng)
        hmat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        hmat = (hmat + hmat.conj().T) / 2
        beta = float(rng.uniform(0.2, 3.0))
        rep = ent.gibbs_free_energy(hmat, beta, rho)
        worst_gibbs = max(worst_gibbs, rep.identity_residual)

    rho = density_from_matrix(np.diag([0.7, 0.3]))
    delta = np.array([[0.3, 0.4 + 0.2j], [0.4 - 0.2j, -0.3]])
    r1 = ent.first_law_check(rho, delta, 1e-3)
    r2 = ent.first_law_check(rho, delta, 5e-4)
    ratio = r1.residual / max(r2.residual, 1e-300)
    ok = landauer_ok and worst_gibbs <= 1e-9 and ratio >= 3.5
    return CheckResult("thermodynamics", ok, {
        "landauer": landauer_ok, "gibbs_residual": worst_gibbs,
        "first_law_ratio": round(ratio, 3)})


def check_concentration() -> CheckResult:
    """Outcome histogram vs the exact binomial, plus the rate accounting.

    At n = 40 the mean concentrated rate sits exactly H(M)/n = .08447 below
    the source entropy (the classical outcome record carries the rest), so the
    rate check uses tolerance .085 together with the exact bookkeeping
    identity rate + H(M)/n = H(p)."""
    n, p = 40, 0.2
    r = coding.concentration_sim(p, n, trials=10_000, seed=41)
    h = ent.shannon_entropy([p, 1 - p])
    pmf = np.array([math.comb(n, m) * p ** m * (1 - p) ** (n - m)
                    for m in range(n + 1)])
    h_outcome = ent.shannon_entropy(pmf)
    exact_rate = r.exact_mean_log2_d / n
    identity_gap = abs(exact_rate + h_outcome / n - h)
    ok = (r.chi2_pvalue > 0.001 and abs(r.rate - h) <= 0.085
          and identity_gap <= 1e-9)
    return CheckResult("concentration", ok, {
        "pvalue": round(r.chi2_pvalue, 4), "rate": round(r.rate, 4),
        "target": round(h, 4), "outcome_entropy_per_copy": round(h_outcome / n, 5),
        "identity_gap": identity_gap})


# ---------------------------------------------------------------------------
# inequality corpus
# ---------------------------------------------------------------------------

def _random_two_party(rng, dims=(2, 2)) -> DensityOperator:
    return random_mixed_state(layout({"A": dims[0], "B": dims[1]}), rng)


def check_ssa_corpus(instances: int = 500) -> CheckResult:
    worst = math.inf
    for i in range(instances):
        rng = stream(401, i)
        lay = layout({"A": 2, "B": 2, "C": 2})
        rho = random_mixed_state(lay, rng, env_dim=3)  # rank-3 states
        worst = min(worst, ent.conditional_mutual_quantum(rho, "A", "B", "C"))
    return CheckResult("strong_subadditivity", worst >= -1e-9,
                       {"min_cmi": worst, "instances": instances})


def check_entropy_inequalities(instances: int = 500) -> CheckResult:
    sub_ok = al_ok = conc_ok = True
    for i in range(instances):
        rng = stream(403, i)
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        rho = _random_two_party(rng, dims)
        b = ent.bipartite_entropies(rho, ["A"])
        sub_ok &= b.h_ab <= b.h_a + b.h_b + 1e-9
        al_ok &= b.h_ab >= abs(b.h_a - b.h_b) - 1e-9
        # concavity on a random two-state mixture
        rho2 = _random_two_party(stream(405, i), dims)
        lam = float(stream(407, i).uniform(0, 1))
        mix = density_from_matrix(lam * rho.matrix + (1 - lam) * rho2.matrix)
        conc_ok &= (ent.von_neumann_entropy(mix)
                    >= lam * ent.von_neumann_entropy(rho)
                    + (1 - lam) * ent.von_neumann_entropy(rho2) - 1e-9)
    ok = sub_ok and al_ok and conc_ok
    return CheckResult("entropy_inequalities", ok, {
        "subadditivity": sub_ok, "araki_lieb": al_ok, "concavity": conc_ok})


def _random_channel(rng, d: int, n_kraus: int) -> ch.KrausChannel:
    """Random CPTP map from a Haar isometry d -> d * n_kraus."""
    q = haar_isometry(d * n_kraus, d, rng)
    return ch.KrausChannel(q.reshape(d, n_kraus, d).transpose(1, 0, 2), d, d)


def check_relative_entropy_monotonicity(instances: int = 200) -> CheckResult:
    worst = -math.inf
    for i in range(instances):
        rng = stream(409, i)
        lay = SubsystemLayout((2,), ("A",))
        rho = random_mixed_state(lay, rng)
        sigma = random_mixed_state(lay, rng)
        channel = _random_channel(rng, 2, int(rng.integers(2, 5)))
        d_before = ent.relative_entropy_quantum(rho, sigma)
        d_after = ent.relative_entropy_quantum(ch.apply(channel, rho),
                                               ch.apply(channel, sigma))
        worst = max(worst, d_after - d_before)
    return CheckResult("relative_entropy_monotonicity", worst <= 1e-8,
                       {"max_increase": worst})


def check_entropic_uncertainty(instances: int = 500) -> CheckResult:
    worst = math.inf
    for i in range(instances):
        rng = stream(411, i)
        d = 2 if i % 2 == 0 else 3
        rho = random_mixed_state(SubsystemLayout((d,), ("A",)), rng)
        bx = haar_random_unitary(d, rng)
        bz = haar_random_unitary(d, rng)
        rep = mea.entropic_uncertainty(rho, bx, bz)
        worst = min(worst, rep.lhs - rep.rhs)
    return CheckResult("entropic_uncertainty", worst >= -1e-9, {"min_slack": worst})


def random_separable(rng, da: int = 2, db: int = 2, max_terms: int = 8) -> DensityOperator:
    """Explicit convex combination of Haar product states."""
    terms = int(rng.integers(1, max_terms + 1))
    w = rng.dirichlet(np.ones(terms))
    lay = layout({"A": da, "B": db})
    m = np.zeros((da * db, da * db), dtype=complex)
    for t in range(terms):
        va = haar_random_pure(SubsystemLayout((da,), ("A",)), rng).amplitudes
        vb = haar_random_pure(SubsystemLayout((db,), ("B",)), rng).amplitudes
        v = np.kron(va, vb)
        m += w[t] * np.outer(v, v.conj())
    return DensityOperator(m, lay)


def check_separable_majorization(instances: int = 200) -> CheckResult:
    ok = True
    for i in range(instances):
        rng = stream(413, i)
        rho = random_separable(rng)
        spec_ab = np.linalg.eigvalsh(rho.matrix)
        spec_a = np.linalg.eigvalsh(partial_trace(rho, ["A"]).matrix)
        spec_b = np.linalg.eigvalsh(partial_trace(rho, ["B"]).matrix)
        ok &= ent.majorizes(spec_a, spec_ab) and ent.majorizes(spec_b, spec_ab)
    return CheckResult("separable_majorization", ok, {"instances": instances})


def check_fano(instances: int = 200) -> CheckResult:
    ok = True
    worst = -math.inf
    for i in range(instances):
        rng = stream(415, i)
        dx, dy = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        joint = rng.dirichlet(np.ones(dx * dy)).reshape(dx, dy)
        h_xgy, _ = ent.conditional_mutual_classical(joint)
        # maximum a posteriori estimate of x from y
        pe = 1.0 - joint.max(axis=0).sum()
        bound = ent.fano_bound(pe, dx)
        worst = max(worst, h_xgy - bound)
        ok &= h_xgy <= bound + 1e-9
    return CheckResult("fano", ok, {"max_violation": worst})


def check_holevo_bound(instances: int = 200) -> CheckResult:
    worst = -math.inf
    for i in range(instances):
        rng = stream(417, i)
        d = 2 if i % 2 == 0 else 3
        m = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(m))
        lay = SubsystemLayout((d,), ("A",))
        ensemble = [(float(p), random_mixed_state(lay, rng)) for p in probs]
        n_out = int(rng.integers(2, 5))
        raw = [np.abs(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
               for _ in range(n_out)]
        raw = [r @ r.T.conj() for r in raw]
        total = sum(raw)
        vals, vecs = np.linalg.eigh(total)
        inv_sqrt = (vecs * (1 / np.sqrt(vals))) @ vecs.conj().T
        povm = mea.POVM(tuple((inv_sqrt @ r @ inv_sqrt + (inv_sqrt @ r @ inv_sqrt).conj().T) / 2
                              for r in raw))
        gap = mea.accessible_info(ensemble, povm) - ent.holevo_chi(ensemble)
        worst = max(worst, gap)
    return CheckResult("holevo_bound", worst <= 1e-9, {"max_gap": worst})


# ---------------------------------------------------------------------------
# decoupling and black holes
# ---------------------------------------------------------------------------

def check_decoupling(instances: int = 200, trials: int = 30) -> CheckResult:
    failures = 0
    for i in range(instances):
        rng = stream(419, i)
        d_a = int(rng.choice([4, 8, 16]))
        d_e = int(rng.choice([1, 2, 4]))
        if d_e == 1:
            lay = SubsystemLayout((d_a,), ("A",))
            sigma = random_mixed_state(lay, rng, env_dim=int(rng.choice([1, 2, 4])))
        else:
            sigma = dec.random_sigma_ae(d_a, d_e, rng)
        splits = [(s, d_a // s) for s in (2, 4, 8, 16) if s < d_a and d_a % s == 0]
        d1, d2 = splits[int(rng.integers(len(splits)))]
        rep = dec.decoupling_experiment(
            dec.DecouplingTrialSet(sigma, (d1, d2), trials, int(rng.integers(2 ** 31))))
        if not rep.satisfied():
            failures += 1
    # the squared residual over its exact mean: 0.63 to 1.50 over 80 seeds,
    # and 3.8 to 6.1 for a QR without fixed phases
    mom = dec.expected_M_check(2, 2, trials=40_000, seed=421)
    ratio = mom.frobenius_residual ** 2 / mom.residual_mean_square
    return CheckResult("decoupling", failures == 0 and ratio <= 3.0, {
        "instance_failures": failures, "moment_residual": round(mom.frobenius_residual, 6),
        "residual_ratio": round(ratio, 4)})


def check_black_hole(trials: int = 300) -> CheckResult:
    old = dec.black_hole_mirror_batch(10, 2, [2, 3], "old", trials, seed=423)
    young = dec.black_hole_mirror(8, 2, 2, "young", trials, seed=425)
    ok = all(r.meets_target() for r in old) and young.meets_target()
    return CheckResult("black_hole_mirror", ok, {
        "old_fidelities": [round(r.fidelity_estimate, 4) for r in old],
        "old_targets": [r.target for r in old],
        "young_fidelity": round(young.fidelity_estimate, 4),
        "young_target": young.target})


def check_asymptotic_trends() -> CheckResult:
    """Finite-size stand-ins for the asymptotic claims: monotone trends only."""
    probs = np.array([0.75, 0.25])
    weights = [coding.typical_set_census(probs, coding.TypicalitySpec(n, 0.2)).total_prob
               for n in (8, 16, 24)]
    census_ok = weights[0] <= weights[1] <= weights[2]

    ensemble = [(0.5, np.array([1.0, 0.0])),
                (0.5, np.array([1.0, 1.0]) / math.sqrt(2))]
    rep = coding.schumacher_sim(ensemble, 4, spec=coding.TypicalitySpec(4, 0.4))
    fid_ok = rep.fidelity >= rep.lower_bound

    # discarding more never hurts decoupling (beyond Monte Carlo noise)
    sigma = dec.random_sigma_ae(16, 2, stream(427, 0))
    reps = [dec.decoupling_experiment(dec.DecouplingTrialSet(sigma, split, 60, 429))
            for split in ((2, 8), (4, 4), (8, 2))]
    mono_ok = all(reps[i + 1].mean_l1 <= reps[i].mean_l1
                  + 4 * (reps[i].mc_stderr + reps[i + 1].mc_stderr)
                  for i in range(2))
    ok = census_ok and fid_ok and mono_ok
    return CheckResult("asymptotic_trends", ok, {
        "census_weights": [round(w, 4) for w in weights],
        "fidelity_vs_bound": (round(rep.fidelity, 4), round(rep.lower_bound, 4)),
        "decoupling_means": [round(r.mean_l1, 4) for r in reps]})


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

GOLDEN = [check_compression_golden, check_trine, check_peres_wootters,
          check_blahut_arimoto, check_degradability, check_haar_gain,
          check_thermodynamics]

INEQUALITIES = [check_ssa_corpus, check_entropy_inequalities,
                check_relative_entropy_monotonicity, check_entropic_uncertainty,
                check_separable_majorization, check_fano, check_holevo_bound]

HEAVY = [check_erasure_q1, check_depolarizing_sweep, check_decoupling,
         check_black_hole, check_concentration, check_asymptotic_trends]

SUITES = {
    "golden": GOLDEN,
    "inequalities": INEQUALITIES,
    "all": GOLDEN + INEQUALITIES + HEAVY,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    return [check() for check in SUITES[name]]
