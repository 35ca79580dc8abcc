"""Command-line driver.

Subcommands: solve, dist, fiber-dist, converge, residual, check,
particles. Every run is deterministic: the same config and seed produce
byte-identical output. Failures exit 2 (validation) or 3 (numerical)
with a machine-readable JSON error object on stderr. All JSON documents
carry a "schema": 1 field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import dataclass

from . import analysis, particles, selfcheck
from .errors import MdeLabError, NumericalError, ValidationError
from .fiber_metric import FiberCostKind, constrained_fiber_cost
from .las import las_solve
from .measure import _number, lifted_from_dict, load_json, measure_from_dict
from .kernels import kernel_from_dict
from .pvf import _fiber_rows, field_from_dict, pvf_from_dict
from .transport import wasserstein

_KIND_BY_FLAG = {
    "fiber": FiberCostKind.FIBER,
    "combined": FiberCostKind.COMBINED,
    "one-sided": FiberCostKind.ONE_SIDED,
}


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    inputs: tuple[str, ...] = ()
    pvf: str | None = None
    init: str | None = None
    kernel: str | None = None
    oracle: str | None = None
    n: int | None = None
    n_grid: tuple[int, ...] = ()
    horizon: float | None = None
    times: tuple[float, ...] = ()
    kind: str = "fiber"
    plan: bool = False
    stationary: bool = False
    out: str | None = None
    format: str = "csv"
    seed: int = selfcheck.DEFAULT_SEED
    instances: int = selfcheck.DEFAULT_INSTANCES

    def __post_init__(self):
        if self.n is not None and self.n < 1:
            raise ValidationError("N must be >= 1", field="n")
        for n in self.n_grid:
            if n < 1:
                raise ValidationError("N must be >= 1", field="n_grid")
        if self.horizon is not None and not self.horizon > 0:
            raise ValidationError("horizon must be positive",
                                  field="horizon")
        if self.horizon is not None:
            for t in self.times:
                if t < 0 or t > self.horizon:
                    raise ValidationError(
                        "sample times must lie in [0, horizon]",
                        field="times")
        if self.format not in ("csv", "json"):
            raise ValidationError("format must be csv or json",
                                  field="format")


_FIELD_TYPES = typing.get_type_hints(RunConfig)  # recipes are checked by them


def f17(x: float) -> str:
    return format(float(x), ".17g")


def _emit(config: RunConfig, columns: list[str], rows: list[list]) -> str:
    if config.format == "json":
        doc = {"schema": 1, "columns": columns,
               "rows": [[c if isinstance(c, (int, str)) else float(c)
                         for c in row] for row in rows]}
        return json.dumps(doc, indent=2) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for c in row:
            if isinstance(c, bool):
                cells.append("true" if c else "false")
            elif isinstance(c, (int, str)):
                cells.append(str(c))
            else:
                cells.append(f17(c))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write(config: RunConfig, text: str) -> None:
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if not getattr(config, name):
            raise ValidationError(f"--{name.replace('_', '-')} is required "
                                  f"for {config.subcommand}", field=name)


# per-subcommand drivers

def _cmd_solve(config: RunConfig) -> None:
    _require(config, "pvf", "init", "n", "horizon")
    spec = pvf_from_dict(load_json(config.pvf))
    mu0 = measure_from_dict(load_json(config.init))
    traj = las_solve(mu0, spec, config.n, config.horizon)
    dt = traj.config.dt
    columns = (["t", "atom_id"]
               + [f"x_{i + 1}" for i in range(traj.dim)] + ["mass"])
    rows: list[list] = []
    for ell, step in enumerate(traj.steps):
        atoms = zip(step.position_rows().tolist(), step.masses.tolist())
        for atom_id, (pos, mass) in enumerate(atoms):
            rows.append([ell * dt, atom_id, *pos, mass])
    _write(config, _emit(config, columns, rows))


def _cmd_dist(config: RunConfig) -> None:
    if len(config.inputs) != 2:
        raise ValidationError("dist needs exactly two measure files",
                              field="inputs")
    mu = measure_from_dict(load_json(config.inputs[0]))
    nu = measure_from_dict(load_json(config.inputs[1]))
    result = wasserstein(mu, nu)
    lines = [f17(result.distance)]
    if config.plan:
        lines.append("i,k,weight")
        i, k, w = (column.tolist() for column in result.plan.entries.columns)
        lines.extend(f"{a},{b},{f17(x)}" for a, b, x in zip(i, k, w))
    _write(config, "\n".join(lines) + "\n")


def _cmd_fiber_dist(config: RunConfig) -> None:
    if len(config.inputs) not in (2, 3):
        raise ValidationError("fiber-dist needs two or three lifted files",
                              field="inputs")
    kind = _KIND_BY_FLAG[config.kind]
    lifted = [lifted_from_dict(load_json(p)) for p in config.inputs]
    if len(lifted) == 2:
        pairs = [(0, 1)]
    else:
        pairs = [(0, 1), (1, 2), (0, 2)]
    values = [constrained_fiber_cost(lifted[a], lifted[b], kind)[0]
              for a, b in pairs]
    _write(config, "\n".join(f17(v) for v in values) + "\n")


def _oracle_params_from_dict(doc: dict) -> dict:
    params = {}
    for key, value in doc.items():
        if key in ("mu0",):
            params[key] = measure_from_dict(value)
        elif key in ("field", "phi"):
            params[key] = field_from_dict(value)
        elif key == "fiber":
            params[key] = _fiber_rows(value)
        else:
            params[key] = value
    return params


def _cmd_converge(config: RunConfig) -> None:
    _require(config, "pvf", "init", "oracle", "n_grid", "horizon")
    spec = pvf_from_dict(load_json(config.pvf))
    mu0 = measure_from_dict(load_json(config.init))
    oracle_doc = load_json(config.oracle)
    if "name" not in oracle_doc:
        raise ValidationError("oracle file needs a 'name'", field="oracle")
    oracle_ref = (oracle_doc["name"],
                  _oracle_params_from_dict(oracle_doc.get("params", {})))
    report = analysis.convergence_study(spec, mu0, oracle_ref,
                                        config.horizon, config.n_grid)
    slope = report.slope if report.slope is not None else math.nan
    rows = [[n, err, slope] for n, err, _ in report.entries]
    _write(config, _emit(config, ["N", "error", "slope"], rows))


def _cmd_residual(config: RunConfig) -> None:
    _require(config, "pvf", "init")
    spec = pvf_from_dict(load_json(config.pvf))
    mu0 = measure_from_dict(load_json(config.init))
    if config.stationary:
        flow = analysis.StationaryFlow(mu0, spec)
        horizon = config.horizon if config.horizon is not None else 1.0
    else:
        _require(config, "n", "horizon")
        flow = las_solve(mu0, spec, config.n, config.horizon)
        horizon = flow.end_time
    times = config.times or tuple(fr * horizon
                                  for fr in analysis.SAMPLE_FRACTIONS)
    rows = [[t, analysis.max_family_residual(flow, t)]
            for t in sorted(set(times))]
    _write(config, _emit(config, ["t", "residual"], rows))


def _cmd_check(config: RunConfig) -> None:
    results = selfcheck.run_all_checks(seed=config.seed,
                                       instances=config.instances)
    rows = [[r.name, r.passed, r.margin] for r in results]
    _write(config, _emit(config, ["check_name", "pass", "margin"], rows))
    if not all(r.passed for r in results):
        raise NumericalError("self-check failed; see report")


def _cmd_particles(config: RunConfig) -> None:
    _require(config, "kernel", "init", "n", "horizon")
    kernel = kernel_from_dict(load_json(config.kernel))
    state0 = particles.state_from_dict(load_json(config.init))
    gaps = particles.meanfield_compare(state0, kernel, config.n,
                                       config.horizon)
    rows = [[t, gap] for t, gap in gaps]
    _write(config, _emit(config, ["t", "gap"], rows))


_DRIVERS = {
    "solve": _cmd_solve,
    "dist": _cmd_dist,
    "fiber-dist": _cmd_fiber_dist,
    "converge": _cmd_converge,
    "residual": _cmd_residual,
    "check": _cmd_check,
    "particles": _cmd_particles,
}


def run(config: RunConfig) -> int:
    if config.subcommand not in _DRIVERS:
        raise ValidationError(f"unknown subcommand {config.subcommand!r}",
                              field="subcommand")
    _DRIVERS[config.subcommand](config)
    return 0


def _option(key: str, value, kind: type):
    """A recipe option's value, checked against the type RunConfig
    declares: a JSON number for int and float (_number), true or false
    for bool, a string for str, and a list of these for a tuple."""
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ValidationError(f"recipe option {key!r} must be a list, "
                                  f"got {value!r}", field=key)
        return tuple(_option(key, v, typing.get_args(kind)[0]) for v in value)
    kind = next(k for k in typing.get_args(kind) or (kind,)
                if k is not type(None))
    if kind in (int, float):
        return _number(value, key, integer=kind is int)
    if not isinstance(value, kind):
        raise ValidationError(f"recipe option {key!r} must be a "
                              f"{kind.__name__}, got {value!r}", field=key)
    return value


def recipe_to_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a recipe document ({"subcommand", "options"})."""
    if not isinstance(doc, dict) or "subcommand" not in doc:
        raise ValidationError("recipe needs a 'subcommand'",
                              field="subcommand")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("recipe options must be a JSON object",
                              field="options")
    for key in options:
        if key == "subcommand" or key not in _FIELD_TYPES:
            raise ValidationError(f"unknown recipe option {key!r}", field=key)
    return RunConfig(**{key: _option(key, value, _FIELD_TYPES[key])
                        for key, value in [("subcommand", doc["subcommand"]),
                                           *options.items()]})


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdelab",
        description="Lattice solver and transport toolkit for "
                    "measure-valued dynamics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("solve", help="run the lattice scheme")
    p.add_argument("--pvf", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--horizon", type=float, required=True)
    common(p)

    p = sub.add_parser("dist", help="Wasserstein distance of two measures")
    p.add_argument("inputs", nargs=2)
    p.add_argument("--plan", action="store_true",
                   help="also print the optimal plan as CSV")
    p.add_argument("--out")

    p = sub.add_parser("fiber-dist",
                       help="constrained fiber cost of lifted measures")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--kind", choices=tuple(_KIND_BY_FLAG),
                   default="fiber")
    p.add_argument("--out")

    p = sub.add_parser("converge", help="error-vs-N study against an oracle")
    p.add_argument("--pvf", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--n-grid", dest="n_grid", type=_int_list, required=True)
    p.add_argument("--horizon", type=float, required=True)
    common(p)

    p = sub.add_parser("residual", help="weak-form residual report")
    p.add_argument("--pvf", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--horizon", type=float)
    p.add_argument("--times", type=_float_list, default=())
    p.add_argument("--stationary", action="store_true",
                   help="treat the initial measure as a fixed point")
    common(p)

    p = sub.add_parser("check", help="seeded transport self-checks")
    p.add_argument("--seed", type=int, default=selfcheck.DEFAULT_SEED)
    p.add_argument("--instances", type=int,
                   default=selfcheck.DEFAULT_INSTANCES)
    common(p)

    p = sub.add_parser("particles",
                       help="mean-field gap of a particle system")
    p.add_argument("--kernel", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--horizon", type=float, required=True)
    common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(args).items()
              if k in fields and v is not None}
    if "inputs" in kwargs:
        kwargs["inputs"] = tuple(kwargs["inputs"])
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(_config_from_args(args))
    except MdeLabError as exc:
        kind = "validation" if isinstance(exc, ValidationError) else "numerical"
        payload = {"schema": 1,
                   "error": {"type": kind, "message": str(exc)}}
        field = getattr(exc, "field", None)
        if field is not None:
            payload["error"]["field"] = field
        sys.stderr.write(json.dumps(payload) + "\n")
        return 2 if kind == "validation" else 3


if __name__ == "__main__":
    sys.exit(main())
