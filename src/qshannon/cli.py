"""Command-line front end: one experiment per invocation, reproducible from a
JSON config plus flag overrides, with CSV or schema-validated JSON reports.

Exit codes: 0 success, 1 a verification check failed, 2 usage error or no memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from importlib import resources

RESERVED_KEYS = {"command", "seed", "trials", "out", "format", "params"}
COMMANDS = ("entropy", "capacity", "compress", "concentrate", "measure",
            "decouple", "blackhole", "suite")
FORMATS = ("csv", "json")

SCHUMACHER3 = {
    "probs": [0.5, 0.5],
    "states": [[[1.0, 0.0], [0.0, 0.0]],
               [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]],
    "n": 3,
    "delta": 0.5,
}

# Every default of every command, keyed by "command example" where an example
# changes them and by command otherwise.  A command without a "seed" or
# "trials" entry uses none and refuses one, and a command refuses any param
# its entry does not name.  A given param must have the type of its default;
# a type in place of a default types a param that has none.  blackhole's c
# alone also takes a non-empty list of ints, so one run gives a curve over
# margins.
DEFAULTS = {
    "entropy": {"params": {"probs": list, "ref_probs": list, "state": list}},
    "capacity": {"seed": 19, "params": {"family": str, "grid": [0.0, 0.1, 0.25, 0.4],
                                        "which": ["C1", "CE", "Q1"], "restarts": 6}},
    "compress": {"params": {"probs": list, "states": list, "n": 3, "delta": 0.5,
                            "rate": float}},
    "compress schumacher3qubit": {"params": {"example": "schumacher3qubit", **SCHUMACHER3,
                                             "rate": float}},
    "concentrate": {"seed": 41, "trials": 10_000, "params": {"p": 0.2, "n": 40}},
    "measure trine": {"params": {"example": "trine"}},
    "measure peres_wootters": {"params": {"example": "peres_wootters"}},
    "measure haar_gain": {"seed": 71, "trials": 10_000,
                          "params": {"example": "haar_gain", "d": 2}},
    "decouple": {"seed": 7, "trials": 500,
                 "params": {"dims": {"A1": int, "A2": int}, "e_dim": 1}},
    "blackhole": {"seed": 423, "trials": 300,
                  "params": {"n": 10, "k": 2, "c": 2, "age": "old"}},
    "suite": {"params": {"name": "golden"}},
}


class UsageError(Exception):
    pass


def _named(owner: str, given: dict, names) -> dict:
    """given, after refusing any key that names does not hold."""
    unknown = sorted(k for k in given if k not in names)
    if unknown:
        raise UsageError(f"{owner} takes no {', '.join(unknown)}")
    return given


def _typed(name: str, value, spec):
    """value, checked against the type of spec (a default or a type): ints
    are JSON integers and floats any number, neither a bool.  A dict takes
    only the keys its spec names, and c a non-empty list of its type too."""
    kind = spec if isinstance(spec, type) else type(spec)
    if name == "c" and type(value) is list:
        if not value:
            raise UsageError(f"{name} must be {kind.__name__} or a non-empty list, got []")
        return [_typed(f"{name}[{i}]", v, spec) for i, v in enumerate(value)]
    if kind is float and type(value) in (int, float):
        return float(value)
    if type(value) is kind:
        if kind is dict:
            return {k: _typed(f"{name}.{k}", v, spec[k])
                    for k, v in _named(name, value, spec).items()}
        return value
    raise UsageError(f"{name} must be {kind.__name__}, got {value!r}")


def resolve(command: str, given: dict, seed, trials, fmt) -> dict:
    """The report's config: the effective seed, trials and params of a run,
    the given values type-checked over the command's defaults, and the
    report format."""
    if trials is not None and (type(trials) is not int or trials < 1):
        raise UsageError(f"trials must be a positive integer, got {trials!r}")
    if seed is not None and type(seed) is not int:
        raise UsageError(f"seed must be an integer, got {seed!r}")
    fmt = "json" if fmt is None else fmt
    if fmt not in FORMATS:
        raise UsageError(f"format must be csv or json, got {fmt!r}")
    example = given.get("example")
    if command == "measure" and example is None and "d" in given:
        example = "haar_gain"
    key = f"{command} {example}"
    if key not in DEFAULTS:
        key = command
    if key not in DEFAULTS:  # only measure has no example-free entry
        raise UsageError("measure needs example in {trine, peres_wootters, haar_gain}")
    table = DEFAULTS[key]
    sampling = {"seed": seed, "trials": trials}
    for name, value in sampling.items():
        if value is None:
            sampling[name] = table.get(name)
        elif name not in table:
            raise UsageError(f"{key} takes no {name}")
    defaults = table.get("params", {})
    params = {k: v for k, v in defaults.items() if not isinstance(v, (type, dict))}
    params.update({k: _typed(k, v, defaults[k])
                   for k, v in _named(key, given, defaults).items()})
    return {"command": command, "params": params, **sampling, "format": fmt}


def parse_matrix(entries):
    """Nested lists with innermost [re, im] pairs -> complex ndarray."""
    import numpy as np

    a = np.asarray(entries, dtype=float)
    if a.ndim < 2 or a.shape[-1] != 2:
        raise UsageError("matrices are nested arrays with innermost [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


def _sig12(x) -> str:
    return f"{float(x):.12g}"


def _flatten(results: dict, prefix: str = ""):
    for key, val in results.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from _flatten(val, f"{name}.")
        elif isinstance(val, (list, tuple)):
            for i, v in enumerate(val):
                if isinstance(v, (int, float)):
                    yield f"{name}[{i}]", v
        elif isinstance(val, bool):
            yield name, int(val)
        elif isinstance(val, (int, float)):
            yield name, val


def default_csv_rows(results: dict) -> list[str]:
    rows = ["name,value"]
    for name, val in _flatten(results):
        rows.append(f"{name},{_sig12(val)}")
    return rows


# ---------------------------------------------------------------------------
# command handlers: resolved config -> (results dict, csv rows or None,
# check_failed)
# ---------------------------------------------------------------------------

def run_entropy(config):
    from . import entropy as ent
    from .linalg import density_from_matrix

    params = config["params"]
    if "probs" in params:
        p = params["probs"]
        results = {"shannon_entropy": ent.shannon_entropy(p)}
        if "ref_probs" in params:
            results["relative_entropy"] = ent.relative_entropy_classical(
                p, params["ref_probs"])
        return results, None, False
    if "state" in params:
        rho = density_from_matrix(parse_matrix(params["state"]))
        results = {
            "von_neumann_entropy": ent.von_neumann_entropy(rho),
            "purity": rho.purity(),
            "eigenvalues": [float(v) for v in rho.eigenvalues()],
        }
        return results, None, False
    raise UsageError("entropy needs 'probs' or 'state' in params")


def run_capacity(config):
    from . import capacity as cap

    params = config["params"]
    if "family" not in params:
        raise UsageError("capacity needs 'family' in params")
    rows = cap.capacity_sweep(params["family"], params["grid"], params["which"],
                              restarts=params["restarts"], seed=config["seed"])
    results = {"rows": [{"family": r.family, "p": r.p, "quantity": r.quantity,
                         "value": r.value, "err": r.err, "converged": r.converged}
                        for r in rows]}
    return results, cap.sweep_to_csv_rows(rows), False


def run_compress(config):
    from . import coding

    params = config["params"]
    if "probs" not in params or "states" not in params:
        raise UsageError("compress needs 'example' or 'probs'+'states' in params")
    states = [parse_matrix(s).reshape(-1) for s in params["states"]]
    ensemble = list(zip(params["probs"], states))
    n = params["n"]
    if "rate" in params:
        rep = coding.schumacher_sim(ensemble, n, rate=params["rate"])
    else:
        spec = coding.TypicalitySpec(n, params["delta"])
        rep = coding.schumacher_sim(ensemble, n, spec=spec)
    results = {"fidelity": rep.fidelity, "weight": rep.weight, "dim": rep.dim,
               "rate": rep.rate, "lower_bound": rep.lower_bound}
    if rep.ky_fan_bound is not None:
        results["ky_fan_bound"] = rep.ky_fan_bound
    return results, None, False


def run_concentrate(config):
    from . import coding

    params = config["params"]
    rep = coding.concentration_sim(params["p"], params["n"], config["trials"], config["seed"])
    results = {"mean_log2_schmidt_rank": rep.mean_log2_d, "rate": rep.rate,
               "exact_mean_log2_schmidt_rank": rep.exact_mean_log2_d,
               "chi2_pvalue": rep.chi2_pvalue,
               "histogram": {str(k): v for k, v in sorted(rep.histogram.items())}}
    return results, None, False


def run_measure(config):
    from . import measure as mea
    from . import suites

    example = config["params"]["example"]
    if example == "trine":
        ensemble = suites.trine_ensemble()
        povm = suites.trine_exclusion_povm()
        from .entropy import holevo_chi
        results = {"accessible_info": mea.accessible_info(ensemble, povm),
                   "holevo_chi": holevo_chi(ensemble)}
        return results, None, False
    if example == "peres_wootters":
        ok, results = suites.peres_wootters_values()
        return results, None, not ok
    rep = mea.haar_information_gain(config["params"]["d"], config["trials"], config["seed"])
    results = {"exact_nats": rep.exact_nats, "exact_bits": rep.exact_bits,
               "estimate_nats": rep.estimate_nats,
               "estimate_bits": rep.estimate_bits,
               "mc_stderr_nats": rep.mc_stderr_nats, "trials": rep.trials}
    return results, None, False


def run_decouple(config):
    import numpy as np

    from . import decoupling as dec
    from .linalg import density_from_matrix

    params = config["params"]
    dims = params.get("dims")
    if not dims or "A1" not in dims or "A2" not in dims:
        raise UsageError("decouple needs params.dims with A1 and A2")
    d1, d2, de = dims["A1"], dims["A2"], params["e_dim"]
    if min(d1, d2, de) < 1:
        raise UsageError(f"decouple needs A1, A2 and e_dim >= 1, got {d1}, {d2}, {de}")
    da = d1 * d2
    from ._rng import check_entries, stream
    check_entries((da * de) ** 2)   # sigma_AE, before it is built
    if de > 1:
        # sigma_AE's own stream index: trial t draws from stream(seed, t), and
        # no trial reaches it, so sigma is independent of every trial's U
        sigma = dec.random_sigma_ae(da, de, stream(config["seed"], 2 ** 64 - 1))
    else:
        sigma = density_from_matrix(np.diag(np.eye(da)[0]))
    rep = dec.decoupling_experiment(dec.DecouplingTrialSet(
        sigma, (d1, d2), config["trials"], config["seed"]))
    results = {"mean_l1": rep.mean_l1, "bound": rep.bound,
               "mc_stderr": rep.mc_stderr, "satisfied": rep.satisfied()}
    return results, None, not rep.satisfied()


def run_blackhole(config):
    from . import decoupling as dec

    params = config["params"]
    c = params["c"]
    curve = type(c) is list
    reps = dec.black_hole_mirror_batch(params["n"], params["k"], c if curve else [c],
                                       params["age"], config["trials"], config["seed"])
    rows = [{"fidelity_estimate": rep.fidelity_estimate, "target": rep.target,
             "mean_l1": rep.mean_l1, "mc_stderr": rep.mc_stderr,
             "emitted_qubits": rep.emitted_qubits, "meets_target": rep.meets_target()}
            for rep in reps]
    results = {key: [r[key] for r in rows] for key in rows[0]} if curve else rows[0]
    return results, None, not all(r["meets_target"] for r in rows)


def run_suite(config):
    from . import suites

    name = config["params"]["name"]
    checks = suites.run_suite(name)
    for res in checks:
        print(res.line())
    failed = not all(r.passed for r in checks)
    results = {"suite": name,
               "checks": {r.name: bool(r.passed) for r in checks},
               "passed": not failed}
    csv_rows = ["check,passed"] + [f"{r.name},{int(r.passed)}" for r in checks]
    return results, csv_rows, failed


HANDLERS = {
    "entropy": run_entropy,
    "capacity": run_capacity,
    "compress": run_compress,
    "concentrate": run_concentrate,
    "measure": run_measure,
    "decouple": run_decouple,
    "blackhole": run_blackhole,
    "suite": run_suite,
}


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def load_schema() -> dict:
    with resources.files("qshannon").joinpath("report_schema.json").open() as f:
        return json.load(f)


@functools.cache
def _report_validator():
    """The report schema's validator, with the schema checked against its
    metaschema once per process rather than on every report."""
    from jsonschema.validators import validator_for

    schema = load_schema()
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _sanitize(obj):
    """Make results JSON-serializable (numpy scalars, inf -> string)."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def emit_report(config: dict, results: dict, csv_rows, out, fmt: str,
                wall_time: float) -> None:
    if fmt == "csv":
        rows = csv_rows if csv_rows is not None else default_csv_rows(results)
        text = "\n".join(rows) + "\n"
    else:
        report = {"config": config, "results": _sanitize(results),
                  "wall_time": wall_time}
        _report_validator().validate(report)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qshannon",
        description="Numerical experiments in quantum Shannon theory.")
    p.add_argument("command", nargs="?", choices=COMMANDS,
                   help="experiment to run (may also come from --config)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--trials", type=int, help="Monte Carlo trial count")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=FORMATS, dest="fmt",
                   help="report format (default json)")
    # convenience shorthands for the common param-free invocations
    p.add_argument("--name", help="suite name (suite command)")
    p.add_argument("--example", help="named example (compress/measure commands)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    cfg = {}
    if args.config:
        try:
            with open(args.config) as f:
                cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(cfg, dict):
            print(f"error: config must be a JSON object, got {type(cfg).__name__}",
                  file=sys.stderr)
            return 2
        if not isinstance(cfg.get("params", {}), dict):
            print("error: config params must be a JSON object", file=sys.stderr)
            return 2

    command = args.command or cfg.get("command")
    if command not in COMMANDS:
        print(f"error: no command given (choose from {', '.join(COMMANDS)})",
              file=sys.stderr)
        return 2

    params = dict(cfg.get("params", {}))
    params.update({k: v for k, v in cfg.items() if k not in RESERVED_KEYS})
    if args.name is not None:
        params["name"] = args.name
    if args.example is not None:
        params["example"] = args.example

    seed = args.seed if args.seed is not None else cfg.get("seed")
    trials = args.trials if args.trials is not None else cfg.get("trials")
    fmt = args.fmt or cfg.get("format")
    out = args.out or cfg.get("out")
    if out is not None and type(out) is not str:
        print(f"error: out must be a path string, got {out!r}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        config = resolve(command, params, seed, trials, fmt)
        results, csv_rows, failed = HANDLERS[command](config)
    except (UsageError, ValueError, KeyError, TypeError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start

    try:
        emit_report({**config, "params": _sanitize(config["params"])}, results, csv_rows, out,
                    config["format"], wall)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
