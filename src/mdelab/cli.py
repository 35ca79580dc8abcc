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
_CHOICES = {"kind": tuple(_KIND_BY_FLAG), "format": ("csv", "json")}


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
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValidationError(
                    f"{name} must be {' or '.join(allowed)}", field=name)


# RunConfig's field types without "| None": recipes are checked by them
# and the parser's flags are made from them
_FIELD_TYPES = {name: typing.get_args(kind)[0]
                if type(None) in typing.get_args(kind) else kind
                for name, kind in typing.get_type_hints(RunConfig).items()}


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
    mu, nu = (measure_from_dict(load_json(p)) for p in config.inputs)
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
    pairs = [(0, 1)] if len(lifted) == 2 else [(0, 1), (1, 2), (0, 2)]
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
    kernel = kernel_from_dict(load_json(config.kernel))
    state0 = particles.state_from_dict(load_json(config.init))
    gaps = particles.meanfield_compare(state0, kernel, config.n,
                                       config.horizon)
    rows = [[t, gap] for t, gap in gaps]
    _write(config, _emit(config, ["t", "gap"], rows))


class _Subcommand(typing.NamedTuple):
    """One row of _SUBCOMMANDS, the one place an option is declared: with
    RunConfig's type hints it builds the parser and run()'s checks."""
    driver: typing.Callable[[RunConfig], None]
    help: str
    required: tuple[str, ...]
    optional: tuple[str, ...] = ("out", "format")
    nargs: int | str | None = None  # of the positional "inputs"


_SUBCOMMANDS = {
    "solve": _Subcommand(_cmd_solve, "run the lattice scheme",
                         ("pvf", "init", "n", "horizon")),
    "dist": _Subcommand(_cmd_dist, "Wasserstein distance of two measures",
                        ("inputs",), ("plan", "out"), nargs=2),
    "fiber-dist": _Subcommand(_cmd_fiber_dist,
                              "constrained fiber cost of lifted measures",
                              ("inputs",), ("kind", "out"), nargs="+"),
    "converge": _Subcommand(_cmd_converge,
                            "error-vs-N study against an oracle",
                            ("pvf", "init", "oracle", "n_grid", "horizon")),
    "residual": _Subcommand(_cmd_residual, "weak-form residual report",
                            ("pvf", "init"), ("n", "horizon", "times",
                                              "stationary", "out", "format")),
    "check": _Subcommand(_cmd_check, "seeded transport self-checks", (),
                         ("seed", "instances", "out", "format")),
    "particles": _Subcommand(_cmd_particles,
                             "mean-field gap of a particle system",
                             ("kernel", "init", "n", "horizon")),
}
_HELP = {"plan": "also print the optimal plan as CSV",
         "stationary": "treat the initial measure as a fixed point",
         "out": "output path (default: stdout)"}


def run(config: RunConfig) -> int:
    command = _SUBCOMMANDS.get(config.subcommand)
    if command is None:
        raise ValidationError(f"unknown subcommand {config.subcommand!r}",
                              field="subcommand")
    _require(config, *command.required)
    command.driver(config)
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


def _list_of(kind: type):
    """argparse type of a comma-separated list of ints or floats."""
    noun = "integer" if kind is int else "number"

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in text.split(",") if tok)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"bad {noun} list {text!r}") from exc
    return parse


def _add_option(parser: argparse.ArgumentParser, name: str,
                required: bool) -> None:
    flag, kind = "--" + name.replace("_", "-"), _FIELD_TYPES[name]
    if kind is bool:
        parser.add_argument(flag, action="store_true", help=_HELP.get(name))
        return
    kind = (_list_of(typing.get_args(kind)[0])
            if typing.get_origin(kind) is tuple else kind)
    parser.add_argument(flag, type=kind, required=required,
                        choices=_CHOICES.get(name), help=_HELP.get(name))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mdelab", description=(
        "Lattice solver and transport toolkit for measure-valued dynamics."))
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option in command.required + command.optional:
            if option == "inputs":
                p.add_argument(option, nargs=command.nargs)
            else:
                _add_option(p, option, option in command.required)
    return parser


def main(argv=None) -> int:
    args = {k: v for k, v in vars(_build_parser().parse_args(argv)).items()
            if v is not None}
    if "inputs" in args:
        args["inputs"] = tuple(args["inputs"])
    try:
        return run(RunConfig(**args))
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
