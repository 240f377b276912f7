"""Names, units and directions of the benchmark's metrics, and the reduction
of a traced run to the per-layer metrics.  BENCHMARK.json lists the same
names; tests/test_perfbench.py keeps the two in step."""

from __future__ import annotations

from spans import MONTE_CARLO

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

IMPORTS = {"cli.import.qshannon_s": "qshannon", "cli.import.numpy_s": "numpy",
           "cli.import.scipy_optimize_s": "scipy.optimize",
           "cli.import.scipy_integrate_s": "scipy.integrate",
           "cli.import.scipy_linalg_s": "scipy.linalg"}

# (metric, source) where source is ("calls" | "self_s", span name),
# ("counter", name), ("import", module) or ("derived", None)
PER_LAYER = (
    *((name, ("import", mod)) for name, mod in IMPORTS.items()),
    ("cli.main.calls", ("calls", "cli.main")),
    ("cli.main.self_s", ("self_s", "cli.main")),
    ("rng.stream.calls", ("calls", "rng.stream")),
    ("rng.stream.self_s", ("self_s", "rng.stream")),
    ("linalg.haar_random_unitary.calls", ("calls", "linalg.haar_random_unitary")),
    ("linalg.haar_random_unitary.self_s", ("self_s", "linalg.haar_random_unitary")),
    ("linalg.haar_random_pure.calls", ("calls", "linalg.haar_random_pure")),
    ("linalg.haar_random_pure.self_s", ("self_s", "linalg.haar_random_pure")),
    ("linalg.random_mixed_state.self_s", ("self_s", "linalg.random_mixed_state")),
    ("linalg.partial_trace.calls", ("calls", "linalg.partial_trace")),
    ("linalg.partial_trace.self_s", ("self_s", "linalg.partial_trace")),
    ("linalg.density_operator.constructed", ("calls", "linalg.density_operator")),
    ("linalg.density_operator.self_s", ("self_s", "linalg.density_operator")),
    ("lapack.qr.calls", ("calls", "lapack.qr")),
    ("lapack.qr.self_s", ("self_s", "lapack.qr")),
    ("lapack.qr.gflop", ("counter", "lapack.qr.gflop")),
    ("lapack.qr.gflop_per_s", ("derived", None)),
    ("lapack.eigvalsh.calls", ("calls", "lapack.eigvalsh")),
    ("lapack.eigvalsh.self_s", ("self_s", "lapack.eigvalsh")),
    ("lapack.eigh.calls", ("calls", "lapack.eigh")),
    ("lapack.eigh.self_s", ("self_s", "lapack.eigh")),
    ("entropy.von_neumann_entropy.calls", ("calls", "entropy.von_neumann_entropy")),
    ("entropy.von_neumann_entropy.self_s", ("self_s", "entropy.von_neumann_entropy")),
    ("entropy.relative_entropy_quantum.self_s", ("self_s", "entropy.relative_entropy_quantum")),
    ("entropy.conditional_mutual_quantum.self_s",
     ("self_s", "entropy.conditional_mutual_quantum")),
    ("entropy.holevo_chi.self_s", ("self_s", "entropy.holevo_chi")),
    ("channels.kraus_channel.constructed", ("calls", "channels.kraus_channel")),
    ("channels.kraus_channel.self_s", ("self_s", "channels.kraus_channel")),
    ("channels.apply.calls", ("calls", "channels.apply")),
    ("channels.apply.self_s", ("self_s", "channels.apply")),
    ("channels.complementary.calls", ("calls", "channels.complementary")),
    ("channels.dilate.calls", ("calls", "channels.dilate")),
    ("capacity.objective.evals", ("calls", "capacity.objective")),
    ("capacity.objective.self_s", ("self_s", "capacity.objective")),
    ("capacity.lbfgs.iterations", ("counter", "capacity.lbfgs.iterations")),
    ("capacity.lbfgs.self_s", ("self_s", "capacity.lbfgs")),
    ("capacity.restarts", ("counter", "capacity.restarts")),
    ("capacity.restarts.wasted", ("counter", "capacity.restarts.wasted")),
    ("capacity.blahut_arimoto.iterations", ("counter", "capacity.blahut_arimoto.iterations")),
    ("capacity.blahut_arimoto.self_s", ("self_s", "capacity.blahut_arimoto")),
    ("capacity.one_shot_quantum_capacity.self_s",
     ("self_s", "capacity.one_shot_quantum_capacity")),
    ("capacity.entanglement_assisted_capacity.self_s",
     ("self_s", "capacity.entanglement_assisted_capacity")),
    ("capacity.holevo_chi_channel.self_s", ("self_s", "capacity.holevo_chi_channel")),
    ("measure.haar_information_gain.self_s", ("self_s", "measure.haar_information_gain")),
    ("measure.optimize_accessible_info.self_s", ("self_s", "measure.optimize_accessible_info")),
    ("measure.accessible_info.calls", ("calls", "measure.accessible_info")),
    ("measure.povm.constructed", ("calls", "measure.povm")),
    ("coding.schumacher_sim.self_s", ("self_s", "coding.schumacher_sim")),
    ("coding.slepian_wolf_sim.self_s", ("self_s", "coding.slepian_wolf_sim")),
    ("coding.typical_set_census.self_s", ("self_s", "coding.typical_set_census")),
    ("coding.bsc_random_code_sim.self_s", ("self_s", "coding.bsc_random_code_sim")),
    ("coding.concentration_sim.self_s", ("self_s", "coding.concentration_sim")),
    ("decoupling.decoupling_experiment.self_s", ("self_s", "decoupling.decoupling_experiment")),
    ("decoupling.expected_M_check.self_s", ("self_s", "decoupling.expected_M_check")),
    ("decoupling.projected_decoupling_experiment.self_s",
     ("self_s", "decoupling.projected_decoupling_experiment")),
    ("decoupling.random_subsystem_entropy.self_s",
     ("self_s", "decoupling.random_subsystem_entropy")),
    ("decoupling.black_hole_mirror_batch.self_s", ("self_s", "decoupling.black_hole_mirror_batch")),
    ("decoupling.trials", ("counter", "decoupling.trials")),
    ("decoupling.per_trial_s", ("derived", None)),
)


def unit(name: str) -> str:
    if name in dict(END_TO_END):
        return dict(END_TO_END)[name]
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("gflop"):
        return "GFLOP"
    return "s" if name.endswith("_s") else "count"


def better(name: str) -> str:
    return "higher" if name.endswith("gflop_per_s") else "lower"


def per_layer(tracer, imports: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from a traced run and the import-time probes."""
    out = {}
    for name, (kind, src) in PER_LAYER:
        if kind == "import":
            out[name] = imports.get(src, 0.0)
        elif kind == "counter":
            out[name] = tracer.counters.get(src, 0)
        elif kind in ("calls", "self_s"):
            out[name] = tracer.stat(src, kind)
    qr_s = out["lapack.qr.self_s"]
    out["lapack.qr.gflop_per_s"] = out["lapack.qr.gflop"] / qr_s if qr_s > 0 else 0.0
    trials = out["decoupling.trials"]
    mc_s = sum(tracer.stat(n, "total_s") for n in MONTE_CARLO)
    out["decoupling.per_trial_s"] = mc_s / trials if trials else 0.0
    return {name: out[name] for name, _ in PER_LAYER}
