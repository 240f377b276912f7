"""The four benchmark workloads.

A workload is a series of rounds.  A round is one fixed sequence of public
qshannon calls; its inputs come from the benchmark's own RNG, seeded by
`round_seed(seed, r)`, and are made in set-up, before any round runs.  Each
workload gives:

    LAZY_IMPORTS          modules its calls import lazily (imported in set-up)
    ROUNDS_PER_SECOND     rounds per second of --seconds (a fixed work budget)
    make_inputs(seed, r, outdir)  -> dict of numpy-only inputs for round r
    run(inp)              -> dict of outputs (the timed part)
    check(inp, out)       -> list of failure messages for one round
    check_run(outs)       -> list of failure messages over the whole run
    repeatable(out)       -> the outputs that must repeat bit for bit

The calls go through module attributes (`dec.decoupling_experiment`, not a
name imported from the module) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re

import numpy as np

import checks as ck

# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def round_seed(seed: int, r: int) -> int:
    """Seed of round r of a run keyed by the benchmark's --seed."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0] & 0x7FFFFFFF)


def qs():
    """The qshannon modules the rounds call, imported once set-up has run."""
    import qshannon
    import qshannon._rng
    import qshannon.capacity
    import qshannon.channels
    import qshannon.cli
    import qshannon.coding
    import qshannon.decoupling
    import qshannon.entropy
    import qshannon.linalg
    import qshannon.measure
    return qshannon


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One `qshannon ...` invocation in process; returns (exit code, stdout)."""
    import qshannon.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qshannon.cli.main(argv)
    return code, buf.getvalue()


_WALL_TIME = re.compile(r'^\s*"wall_time": .*$\n?', re.M)


def without_wall_time(report: str) -> str:
    return _WALL_TIME.sub("", report)


def cli_results(text: str) -> dict:
    return json.loads(text)["results"]


def write_config(outdir, name: str, cfg: dict) -> str:
    path = outdir / name
    path.write_text(json.dumps(cfg, sort_keys=True))
    return str(path)


# ---------------------------------------------------------------------------
# haar_small: many small Haar trials, |A| <= 16
# ---------------------------------------------------------------------------


class HaarSmall:
    name = "haar_small"
    LAZY_IMPORTS = ("qshannon.cli", "qshannon.suites", "jsonschema")
    ROUNDS_PER_SECOND = 2.2

    N_DECOUPLING = 6          # instances drawn as in check_decoupling
    DEC_TRIALS = 30
    MOMENT_TRIALS = 600
    PROJ_TRIALS = 200
    RSE_DIMS = ((8, 2), (4, 4))
    RSE_TRIALS = 400
    GAIN_DIMS = (2, 16)
    GAIN_TRIALS = 800
    N_SSA = 8
    N_MONO = 8
    CLI_TRIALS = 800

    @staticmethod
    def make_inputs(seed, r, outdir):
        s = round_seed(seed, r)
        rng = np.random.default_rng(s)
        mono = [ck.random_kraus(2, 2, int(rng.integers(2, 5)), rng)
                for _ in range(HaarSmall.N_MONO)]
        return {"seed": s, "gamma": float(rng.uniform(0.05, 0.45)), "mono_kraus": mono}

    @staticmethod
    def run(inp):
        q = qs()
        dec, ent, lin, ch, mea, rng_mod = (q.decoupling, q.entropy, q.linalg, q.channels,
                                           q.measure, q._rng)
        s = inp["seed"]
        out = {"decoupling": [], "ssa": [], "mono": []}
        for i in range(HaarSmall.N_DECOUPLING):
            rng = rng_mod.stream(s, i)
            d_a = int(rng.choice([4, 8, 16]))
            d_e = int(rng.choice([1, 2, 4]))
            if d_e == 1:
                sigma = lin.random_mixed_state(lin.SubsystemLayout((d_a,), ("A",)), rng,
                                               env_dim=int(rng.choice([1, 2, 4])))
            else:
                sigma = dec.random_sigma_ae(d_a, d_e, rng)
            splits = [(x, d_a // x) for x in (2, 4, 8, 16) if x < d_a and d_a % x == 0]
            d1, d2 = splits[int(rng.integers(len(splits)))]
            rep = dec.decoupling_experiment(dec.DecouplingTrialSet(
                sigma, (d1, d2), HaarSmall.DEC_TRIALS, int(rng.integers(2 ** 31))))
            out["decoupling"].append({"sigma": sigma.matrix, "split": (d1, d2), "de": d_e,
                                      "per_trial": rep.per_trial, "mean_l1": rep.mean_l1})

        mom = dec.expected_M_check(2, 2, HaarSmall.MOMENT_TRIALS, s + 1)
        out["moments"] = mom.empirical_mean

        psi = lin.haar_random_pure(lin.layout({"R": 8, "A": 2}), rng_mod.stream(s, 100))
        chan = ch.amplitude_damping(inp["gamma"])
        prep = dec.projected_decoupling_experiment(psi, chan, 2, HaarSmall.PROJ_TRIALS, s + 2)
        out["projected"] = {"psi": psi.amplitudes, "kraus": chan.kraus_ops,
                            "per_trial": prep.per_trial, "mean_l1": prep.mean_l1,
                            "bound": prep.bound}

        out["rse"] = [(d1, d2, dec.random_subsystem_entropy(d1, d2, HaarSmall.RSE_TRIALS, s + 3))
                      for d1, d2 in HaarSmall.RSE_DIMS]
        out["gain"] = [(d, mea.haar_information_gain(d, HaarSmall.GAIN_TRIALS, s + 4))
                       for d in HaarSmall.GAIN_DIMS]

        lay3 = lin.layout({"A": 2, "B": 2, "C": 2})
        for i in range(HaarSmall.N_SSA):
            rho = lin.random_mixed_state(lay3, rng_mod.stream(s, 200 + i), env_dim=3)
            out["ssa"].append((rho.matrix, ent.conditional_mutual_quantum(rho, "A", "B", "C")))

        lay1 = lin.SubsystemLayout((2,), ("A",))
        for i, kraus in enumerate(inp["mono_kraus"]):
            rng = rng_mod.stream(s, 300 + i)
            rho = lin.random_mixed_state(lay1, rng)
            sigma = lin.random_mixed_state(lay1, rng)
            channel = ch.KrausChannel(tuple(kraus), 2, 2)
            n_rho, n_sigma = ch.apply(channel, rho), ch.apply(channel, sigma)
            out["mono"].append({
                "rho": rho.matrix, "sigma": sigma.matrix, "kraus": kraus,
                "out_rho": n_rho.matrix, "out_sigma": n_sigma.matrix,
                "before": ent.relative_entropy_quantum(rho, sigma),
                "after": ent.relative_entropy_quantum(n_rho, n_sigma)})

        out["cli"] = run_cli(["measure", "--example", "haar_gain", "--trials",
                              str(HaarSmall.CLI_TRIALS), "--seed", str(s + 5)])
        return out

    @staticmethod
    def check(inp, out):
        msgs = []
        for d in out["decoupling"]:
            d1, d2 = d["split"]
            msgs.append(ck.check_decoupling(d["sigma"], d1, d2, d["de"], d["per_trial"],
                                            d["mean_l1"]))
        msgs.append(ck.check_moments(2, 2, HaarSmall.MOMENT_TRIALS, out["moments"]))
        p = out["projected"]
        msgs.append(ck.check_projected(p["psi"], 8, p["kraus"], 2, p["per_trial"],
                                       p["mean_l1"], p["bound"]))
        for d1, d2, rep in out["rse"]:
            msgs.append(ck.check_page(d1, d2, HaarSmall.RSE_TRIALS, rep.mean_entropy,
                                      rep.mc_stderr))
        for d, rep in out["gain"]:
            msgs.append(ck.check_info_gain(d, HaarSmall.GAIN_TRIALS, rep.estimate_nats,
                                           rep.exact_nats, rep.mc_stderr_nats))
        for rho, cmi in out["ssa"]:
            msgs.append(ck.check_ssa(rho, (2, 2, 2), cmi))
        for m in out["mono"]:
            msgs.append(ck.check_monotonicity(m["rho"], m["sigma"], m["kraus"], m["out_rho"],
                                              m["out_sigma"], m["before"], m["after"]))
        code, text = out["cli"]
        msgs.append(ck.fail(code == 0, f"qshannon measure exited {code}"))
        if code == 0:
            res = cli_results(text)
            msgs.append(ck.check_info_gain(2, HaarSmall.CLI_TRIALS, res["estimate_nats"],
                                           res["exact_nats"], res["mc_stderr_nats"]))
        return [m for m in msgs if m]

    @staticmethod
    def check_run(outs):
        return []

    @staticmethod
    def repeatable(out):
        return {"decoupling": [d["per_trial"] for d in out["decoupling"]],
                "moments": out["moments"],
                "projected": out["projected"]["per_trial"],
                "rse": [rep.mean_entropy for _, _, rep in out["rse"]],
                "gain": [rep.estimate_nats for _, rep in out["gain"]],
                "ssa": [cmi for _, cmi in out["ssa"]],
                "mono": [(m["before"], m["after"]) for m in out["mono"]],
                "cli": without_wall_time(out["cli"][1])}


# ---------------------------------------------------------------------------
# mirror: the black hole as a mirror, one 1024 x 1024 Haar unitary per trial
# ---------------------------------------------------------------------------


class Mirror:
    name = "mirror"
    LAZY_IMPORTS = ("qshannon.cli", "jsonschema")
    ROUNDS_PER_SECOND = 0.75

    N, K = 10, 2
    TRIALS = 2
    CLI = {"n": 8, "k": 2, "c": 2, "age": "old"}
    # the benchmark's own draws for the L1 references: 1024 x 1024 draws
    # cost too much to check the old n = 10 series this way; the CLI's old
    # n = 8 series runs the same code
    REF_TRIALS = {"young": 300, "cli": 40}

    @staticmethod
    def make_inputs(seed, r, outdir):
        return {"seed": round_seed(seed, r),
                "cli_config": write_config(outdir, "blackhole.json", Mirror.CLI)}

    @staticmethod
    def run(inp):
        dec = qs().decoupling
        s = inp["seed"]
        old = dec.black_hole_mirror_batch(Mirror.N, Mirror.K, [2, 3], "old", Mirror.TRIALS, s)
        young = dec.black_hole_mirror(Mirror.N, Mirror.K, 2, "young", Mirror.TRIALS, s + 1)
        cli = run_cli(["blackhole", "--config", inp["cli_config"], "--trials",
                       str(Mirror.TRIALS), "--seed", str(s + 2)])
        as_dict = lambda rep: {"fidelity_estimate": rep.fidelity_estimate, "target": rep.target,
                               "mean_l1": rep.mean_l1, "mc_stderr": rep.mc_stderr,
                               "emitted_qubits": rep.emitted_qubits}
        return {"old": [as_dict(r) for r in old], "young": as_dict(young), "cli": cli}

    @staticmethod
    def check(inp, out):
        n, k = Mirror.N, Mirror.K
        msgs = [ck.check_mirror_round(out["old"][0], n, k, 2, "old"),
                ck.check_mirror_round(out["old"][1], n, k, 3, "old"),
                ck.check_mirror_round(out["young"], n, k, 2, "young")]
        code, text = out["cli"]
        msgs.append(ck.fail(code in (0, 1), f"qshannon blackhole exited {code}"))
        if code in (0, 1):
            res = cli_results(text)
            c = Mirror.CLI
            msgs.append(ck.check_mirror_round(res, c["n"], c["k"], c["c"], c["age"]))
            msgs.append(ck.fail(res["meets_target"] == (code == 0),
                                "qshannon blackhole: exit code disagrees with meets_target"))
        return [m for m in msgs if m]

    @staticmethod
    def check_run(outs):
        pooled = {("old", 2): [], ("old", 3): [], ("young", 2): [], ("cli", 2): []}
        for out in outs:
            pooled[("old", 2)].append(out["old"][0]["fidelity_estimate"])
            pooled[("old", 3)].append(out["old"][1]["fidelity_estimate"])
            pooled[("young", 2)].append(out["young"]["fidelity_estimate"])
            code, text = out["cli"]
            if code in (0, 1):
                pooled[("cli", 2)].append(cli_results(text)["fidelity_estimate"])
        l1 = {"young": [out["young"]["mean_l1"] for out in outs],
              "cli": [cli_results(out["cli"][1])["mean_l1"] for out in outs
                      if out["cli"][0] in (0, 1)]}
        c = Mirror.CLI
        msgs = [ck.check_mirror_pooled(pooled),
                ck.check_mirror_reference("young", "young", Mirror.N, Mirror.K, 2, l1["young"],
                                          Mirror.REF_TRIALS["young"]),
                ck.check_mirror_reference("cli", c["age"], c["n"], c["k"], c["c"], l1["cli"],
                                          Mirror.REF_TRIALS["cli"])]
        return [m for m in msgs if m]

    @staticmethod
    def repeatable(out):
        return {"old": [(r["mean_l1"], r["mc_stderr"]) for r in out["old"]],
                "young": (out["young"]["mean_l1"], out["young"]["mc_stderr"]),
                "cli": without_wall_time(out["cli"][1])}


# ---------------------------------------------------------------------------
# optimize: capacity optimizers and accessible information
# ---------------------------------------------------------------------------


class Optimize:
    name = "optimize"
    LAZY_IMPORTS = ("qshannon.cli", "jsonschema", "scipy.optimize")
    ROUNDS_PER_SECOND = 1.2

    RESTARTS = 2
    BA_SHAPES = ((4, 3), (3, 5))
    BA_TOL = 1e-9

    @staticmethod
    def make_inputs(seed, r, outdir):
        s = round_seed(seed, r)
        rng = np.random.default_rng(s)
        ba = [rng.dirichlet(np.ones(dy), size=dx).T for dy, dx in Optimize.BA_SHAPES]
        cli_p = float(rng.uniform(0.02, 0.4))
        cfg = {"command": "capacity", "family": "depolarizing", "grid": [cli_p],
               "which": ["C1", "CE", "Q1"], "restarts": Optimize.RESTARTS}
        return {"seed": s,
                "dep_grid": sorted(float(x) for x in rng.uniform(0.02, 0.4, size=2)),
                "era_grid": sorted(float(x) for x in rng.uniform(0.05, 0.7, size=2)),
                "gamma": float(rng.uniform(0.05, 0.45)),
                "qubit": ck.random_kraus(2, 2, 3, rng),
                "qutrit": ck.random_kraus(3, 3, 2, rng),
                "ba": ba,
                "cli_p": cli_p,
                "cli_config": write_config(outdir, f"capacity-{r}.json", cfg)}

    @staticmethod
    def _three(cap, channel, seed, ensemble_size=None):
        r = Optimize.RESTARTS
        return {"Q1": cap.one_shot_quantum_capacity(channel, restarts=r, seed=seed).value,
                "CE": cap.entanglement_assisted_capacity(channel, restarts=r, seed=seed + 1).value,
                "C1": cap.holevo_chi_channel(channel, ensemble_size, restarts=r,
                                             seed=seed + 2).value}

    @staticmethod
    def run(inp):
        q = qs()
        cap, ch, mea = q.capacity, q.channels, q.measure
        s = inp["seed"]
        out = {"sweep": {}}
        for family in ("depolarizing", "erasure"):
            grid = inp["dep_grid"] if family == "depolarizing" else inp["era_grid"]
            rows = cap.capacity_sweep(family, grid, ("C1", "CE", "Q1"),
                                      restarts=Optimize.RESTARTS, seed=s)
            out["sweep"][family] = [(r.p, r.quantity, r.value) for r in rows]
        out["ad"] = Optimize._three(cap, ch.amplitude_damping(inp["gamma"]), s + 10)
        out["qubit"] = Optimize._three(cap, ch.KrausChannel(tuple(inp["qubit"]), 2, 2), s + 20)
        # ensemble size d, not the default d^2: with nine members the ascent
        # on a random qutrit channel takes 0.1 to 6 s, a tail no run-to-run
        # bound could hold
        out["qutrit"] = Optimize._three(cap, ch.KrausChannel(tuple(inp["qutrit"]), 3, 3), s + 30,
                                        ensemble_size=3)
        out["ba"] = []
        for w in inp["ba"]:
            res = cap.blahut_arimoto(w, tol=Optimize.BA_TOL)
            out["ba"].append((res.value, res.argmax))
        # the program's default seed, the same in every round and run: from
        # about one start in ten a single restart stops at a local optimum
        # (0.4591 bits, the default seed's first start among them)
        trine = [(1 / 3, q.linalg.density_from_matrix(np.outer(v, v))) for v in TRINE]
        out["trine"] = mea.optimize_accessible_info(trine, 3, restarts=Optimize.RESTARTS).value
        out["cli"] = run_cli(["--config", inp["cli_config"], "--seed", str(s + 50)])
        return out

    @staticmethod
    def check(inp, out):
        msgs = []
        for family, rows in out["sweep"].items():
            closed = ck.depolarizing_closed if family == "depolarizing" else ck.erasure_closed
            for p, qty, value in rows:
                msgs.append(ck.check_closed_forms(f"{family}({p:.4f})", {qty: value}, closed(p)))
        msgs.append(ck.check_closed_forms(f"amplitude_damping({inp['gamma']:.4f})", out["ad"],
                                          ck.amplitude_damping_closed(inp["gamma"])))
        for label in ("qubit", "qutrit"):
            v = out[label]
            msgs.append(ck.check_random_channel(f"random {label}", inp[label],
                                                v["Q1"], v["C1"], v["CE"]))
        for w, (value, r) in zip(inp["ba"], out["ba"]):
            msgs.append(ck.check_blahut_arimoto(w, value, r, Optimize.BA_TOL))
        msgs.append(ck.check_trine(out["trine"]))
        code, text = out["cli"]
        msgs.append(ck.fail(code == 0, f"qshannon capacity exited {code}"))
        if code == 0:
            closed = ck.depolarizing_closed(inp["cli_p"])
            for row in cli_results(text)["rows"]:
                msgs.append(ck.check_closed_forms("qshannon capacity",
                                                  {row["quantity"]: row["value"]}, closed))
        return [m for m in msgs if m]

    @staticmethod
    def check_run(outs):
        return []

    @staticmethod
    def repeatable(out):
        return {"sweep": out["sweep"], "ad": out["ad"], "qubit": out["qubit"],
                "qutrit": out["qutrit"], "ba": out["ba"], "trine": out["trine"],
                "cli": without_wall_time(out["cli"][1])}


TRINE = [np.array([1.0, 0.0]),
         np.array([-0.5, math.sqrt(3) / 2]),
         np.array([-0.5, -math.sqrt(3) / 2])]


# ---------------------------------------------------------------------------
# coding: type-class enumeration and coding simulators
# ---------------------------------------------------------------------------


def _qubit_state(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi))])


class Coding:
    name = "coding"
    LAZY_IMPORTS = ("qshannon.cli", "jsonschema", "scipy.stats")
    ROUNDS_PER_SECOND = 1.5

    SPEC_N = 14               # 2^14 message sequences: the QUANTUM_CAP
    RATE_N = 12
    TRI_N = 8                 # 3^8 message sequences
    CENSUS = ((2, 24), (3, 15))
    SW_N, SW_RATES, SW_TRIALS = 8, (0.4, 0.9), 20
    BSC_N, BSC_RATE, BSC_TRIALS = 20, 0.25, 200
    CONC_N, CONC_TRIALS = 40, 2000

    @staticmethod
    def make_inputs(seed, r, outdir):
        s = round_seed(seed, r)
        rng = np.random.default_rng(s)

        def source(m):
            probs = rng.dirichlet(np.full(m, 4.0))
            states = [_qubit_state(float(rng.uniform(0, math.pi / 2)),
                                   float(rng.uniform(0, 2 * math.pi))) for _ in range(m)]
            return [float(p) for p in probs], states

        a = float(rng.uniform(0.3, 0.45))
        return {"seed": s,
                "spec_source": source(2), "spec_delta": float(rng.uniform(0.2, 0.4)),
                "rate_source": source(2), "rate": float(rng.uniform(0.4, 0.8)),
                "tri_source": source(3), "tri_delta": float(rng.uniform(0.2, 0.4)),
                "census": [(list(rng.dirichlet(np.full(d, 3.0))), n, float(rng.uniform(0.1, 0.3)))
                           for d, n in Coding.CENSUS],
                "pxy": np.array([[a, 0.5 - a], [0.5 - a, a]]),
                "bsc_p": float(rng.uniform(0.02, 0.08)),
                "conc_p": float(rng.uniform(0.1, 0.3))}

    @staticmethod
    def run(inp):
        coding = qs().coding
        s = inp["seed"]

        def compress(src, n, **kw):
            probs, states = src
            rep = coding.schumacher_sim(list(zip(probs, states)), n, **kw)
            return {"fidelity": rep.fidelity, "weight": rep.weight, "dim": rep.dim,
                    "ky_fan_bound": rep.ky_fan_bound}

        out = {
            "spec": compress(inp["spec_source"], Coding.SPEC_N,
                             spec=coding.TypicalitySpec(Coding.SPEC_N, inp["spec_delta"])),
            "rate": compress(inp["rate_source"], Coding.RATE_N, rate=inp["rate"]),
            "tri": compress(inp["tri_source"], Coding.TRI_N,
                            spec=coding.TypicalitySpec(Coding.TRI_N, inp["tri_delta"])),
        }
        out["census"] = []
        for p, n, delta in inp["census"]:
            rep = coding.typical_set_census(p, coding.TypicalitySpec(n, delta))
            out["census"].append((rep.count, rep.total_prob))
        out["sw"] = [coding.slepian_wolf_sim(inp["pxy"], Coding.SW_N, rate, Coding.SW_TRIALS,
                                             s + 1).success_prob for rate in Coding.SW_RATES]
        out["bsc"] = coding.bsc_random_code_sim(inp["bsc_p"], Coding.BSC_N, Coding.BSC_RATE,
                                                Coding.BSC_TRIALS, s + 2).success_prob
        conc = coding.concentration_sim(inp["conc_p"], Coding.CONC_N, Coding.CONC_TRIALS, s + 3)
        out["conc"] = (conc.histogram, conc.mean_log2_d)
        out["cli"] = run_cli(["compress", "--example", "schumacher3qubit"])
        return out

    @staticmethod
    def check(inp, out):
        msgs = [
            ck.check_compression(out["spec"], *inp["spec_source"], Coding.SPEC_N,
                                 delta=inp["spec_delta"]),
            ck.check_compression(out["rate"], *inp["rate_source"], Coding.RATE_N,
                                 rate=inp["rate"]),
            ck.check_compression(out["tri"], *inp["tri_source"], Coding.TRI_N,
                                 delta=inp["tri_delta"]),
        ]
        for (p, n, delta), (count, prob) in zip(inp["census"], out["census"]):
            msgs.append(ck.check_census(p, n, delta, count, prob))
        msgs.append(ck.check_slepian_wolf(Coding.SW_TRIALS, *out["sw"]))
        msgs.append(ck.check_bsc(inp["bsc_p"], Coding.BSC_N, Coding.BSC_RATE, Coding.BSC_TRIALS,
                                 out["bsc"]))
        msgs.append(ck.check_concentration(inp["conc_p"], Coding.CONC_N, Coding.CONC_TRIALS,
                                           *out["conc"]))
        code, text = out["cli"]
        msgs.append(ck.fail(code == 0, f"qshannon compress exited {code}"))
        if code == 0:
            res = cli_results(text)
            msgs.append(ck.check_schumacher3(res["weight"], res["fidelity"]))
        return [m for m in msgs if m]

    @staticmethod
    def check_run(outs):
        return []

    @staticmethod
    def repeatable(out):
        return {k: out[k] for k in ("spec", "rate", "tri", "census", "sw", "bsc", "conc")} | {
            "cli": without_wall_time(out["cli"][1])}


WORKLOADS = {w.name: w for w in (HaarSmall, Mirror, Optimize, Coding)}
