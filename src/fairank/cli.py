"""Command-line interface.

Subcommands: ``generate`` (raw replica graphs), ``rank`` (one ranking as
CSV), ``curve`` (replica-averaged fairness curves), ``real`` (single-pass
dataset analysis), ``meanfield`` (closed-form table), ``verify`` (analytic
check sweep), ``sweep`` (curves across rho or subspace dimension).

Every option is declared once, in ``_OPTIONS``, with the subcommands that
take it; a subcommand rejects options it would not use. A flat
``key = value`` config file (``--config``) can hold the default of any
option the subcommand takes; explicit flags override it. Exit codes:
0 success, 1 usage error, 2 data/computation error, 3 non-convergence
under ``--strict``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .experiments import (
    ALGORITHMS,
    ExperimentConfig,
    ranking_csv,
    run_curves,
    run_generate,
    run_rank,
    sweep,
    sweep_configs,
)
from .graph import GraphError
from .io import table, write_text

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NONCONVERGED = 3

_WEIGHT_BY_FLAG = {"unit": "unit", "lambda2": "lambda_sq"}

# default (r, rho) grid for meanfield/verify sweeps
_GRID_R = np.linspace(0.05, 0.5, 10)
_GRID_RHO = np.linspace(0.05, 0.95, 19)


class CliParser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# -- the option table ---------------------------------------------------------

@dataclass(frozen=True)
class _Option:
    """One command-line option, declared once.

    ``type`` is ``str``, ``int`` or ``float`` for a single value, ``bool``
    for a switch, and ``list`` for one or more words. ``field`` names the
    ExperimentConfig field the option sets, through ``to_field`` when the
    flag's spelling differs. An absent option parses to ``default``, which
    is None on every option but ``--algo``, and a None sets no field: the
    field default of ExperimentConfig is the only default. Options without
    a field are read by the subcommand itself. The table drives the parser,
    the building of ExperimentConfig, and the keys (the flag with ``_`` for
    ``-``) and value types of ``--config`` files.
    """

    flag: str
    commands: str  # space-separated subcommands that take the option
    help: str
    type: type = str
    field: Optional[str] = None
    to_field: Optional[Callable] = None
    default: object = None
    choices: Optional[Sequence] = None
    required: str = ""  # subcommands where the option must be given
    metavar: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def add_to(self, parser, command: str, require: bool = True) -> None:
        kwargs = dict(default=self.default, help=self.help,
                      required=require and command in self.required.split())
        if self.type is bool:
            kwargs["action"] = "store_true"
        elif self.type is list:
            kwargs.update(nargs="+", choices=self.choices, metavar=self.metavar)
        else:
            kwargs.update(type=self.type, choices=self.choices, metavar=self.metavar)
        parser.add_argument(self.flag, **kwargs)


_GRAPHS = "generate rank curve real sweep"
_BPAM = "generate rank curve sweep"
_RANKING = "rank curve real sweep"
_CURVES = "curve real sweep"
_ANALYTIC = "meanfield verify"

_OPTIONS = (
    _Option("--config", _GRAPHS + " " + _ANALYTIC,
            "flat key = value file with option defaults"),
    _Option("--out-dir", "generate curve real sweep", "directory for output files",
            field="out_dir"),
    _Option("--out", "rank " + _ANALYTIC, "output file (default stdout)"),
    _Option("--threads", _GRAPHS,
            "worker processes for replicas; rank and real have one graph "
            "and accept only 1",
            type=int, field="threads"),
    _Option("--strict", _RANKING,
            "exit with status 3 when any iterative ranker fails to converge",
            type=bool),
    _Option("--nodes", _BPAM, "node count N", type=int, field="n_nodes"),
    _Option("--outdeg", _BPAM, "edges per arriving node", type=int, field="outdeg"),
    _Option("--minority-ratio", _BPAM, "red arrival probability", type=float,
            field="minority_ratio"),
    _Option("--homophily", _BPAM, "cross-color acceptance probability", type=float,
            field="homophily"),
    _Option("--seed", _BPAM, "base seed; replica i uses seed + i", type=int,
            field="base_seed"),
    _Option("--reps", "generate curve sweep", "replica count", type=int, field="reps"),
    _Option("--edges", "rank real sweep", "edge list file (src<TAB>dst)",
            field="edge_file", required="real"),
    _Option("--colors", "rank real sweep", "color file (node<TAB>R|B)",
            field="color_file", required="real"),
    _Option("--algos", _CURVES, "algorithms to compare", type=list, field="algos",
            to_field=tuple, choices=ALGORITHMS),
    _Option("--algo", "rank", "algorithm to rank with", field="algos",
            to_field=lambda algo: (algo,), default="hits", choices=ALGORITHMS),
    _Option("--eta", _RANKING, "random-surfer damping", type=float, field="eta"),
    _Option("--eps", _RANKING, "restart weight", type=float, field="eps"),
    _Option("--k", _RANKING, "eigenspace dimension", type=int, field="k"),
    _Option("--weight", _RANKING, "eigenvalue weighting for the eigenspace ranker",
            field="weight", to_field=_WEIGHT_BY_FLAG.__getitem__,
            choices=sorted(_WEIGHT_BY_FLAG)),
    _Option("--tol", _RANKING, "convergence tolerance: L1 change of the iterates, or "
            "relative Ritz residual and subspace angle sine for hits and subspace",
            type=float, field="tol"),
    _Option("--max-iter", _RANKING, "iteration cap", type=int, field="max_iter"),
    _Option("--degree-which", _RANKING, "degree kind for the degree ranker",
            field="degree_which", choices=("in", "total")),
    _Option("--tie-shuffle", _RANKING,
            "break score ties with a seeded shuffle instead of node id",
            type=int, field="tie_shuffle_seed", metavar="SEED"),
    _Option("--grid-points", _CURVES, "points on the top-fraction grid", type=int,
            field="grid_points"),
    _Option("--svg", "curve real", "also write an SVG chart", type=bool, field="svg"),
    _Option("--r", _ANALYTIC, "minority arrival rate", type=float),
    _Option("--rho", _ANALYTIC, "cross-color acceptance probability", type=float),
    _Option("--grid", _ANALYTIC, "sweep the default (r, rho) grid", type=bool),
    _Option("--axis", "sweep", "swept parameter", choices=("rho", "k"),
            required="sweep"),
    _Option("--values", "sweep", "comma-separated axis values, e.g. 0.1,0.3,0.5",
            required="sweep"),
)


# options that only shape generated graphs: a graph read from --edges and
# --colors has none of them to set, so they are rejected there
_GENERATED_ONLY = ("--nodes", "--outdeg", "--minority-ratio", "--homophily", "--reps")


def _options_of(command: str) -> list[_Option]:
    return [opt for opt in _OPTIONS if command in opt.commands.split()]


def _build_parser(command: str, require: bool = True) -> CliParser:
    """The parser of one subcommand, built from the option table;
    ``require=False`` leaves out the check for required options."""
    parser = CliParser(prog=f"fairank {command}", description=_COMMANDS[command][1])
    parser.set_defaults(command=command)
    for opt in _options_of(command):
        opt.add_to(parser, command, require)
    return parser


# -- config file ------------------------------------------------------------

def _read_config_file(path) -> list[tuple[str, str]]:
    """The ``key = value`` pairs of a config file. As in the data files, a
    UTF-8 byte-order mark at its start is dropped, ``\n``, ``\r\n`` and a
    lone ``\r`` end lines, and a byte that is not UTF-8 names its line."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().removeprefix(b"\xef\xbb\xbf").splitlines()
    except OSError as exc:
        raise GraphError(f"cannot read config file: {exc}") from None
    pairs = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            body = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            raise GraphError(f"{path}:{lineno}: not UTF-8") from None
        if not body:
            continue
        key, eq, value = body.partition("=")
        if not eq or not key.strip():
            raise GraphError(f"{path}:{lineno}: expected 'key = value'")
        pairs.append((key.strip(), value.strip()))
    return pairs


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _config_argv(command: str, path: str) -> list[str]:
    """Turn a config file into argv tokens injected before user flags."""
    options = {opt.dest: opt for opt in _options_of(command) if opt.flag != "--config"}
    tokens: list[str] = []
    for key, value in _read_config_file(path):
        opt = options.get(key)
        if opt is None:
            raise GraphError(f"config key {key!r} is not an option of '{command}'")
        if opt.type is bool:
            low = value.lower()
            if low in _TRUE_WORDS:
                tokens.append(opt.flag)
            elif low not in _FALSE_WORDS:
                raise GraphError(f"config key {key!r}: boolean value expected")
        elif opt.type is list:
            tokens.append(opt.flag)
            tokens.extend(value.split())
        else:
            tokens.extend([opt.flag, value])
    return tokens


# -- subcommand implementations ---------------------------------------------

def _config(args) -> ExperimentConfig:
    """ExperimentConfig from the options the subcommand took; a field whose
    option it does not take, or that parsed to None, keeps its default.
    Raises ValueError, from ExperimentConfig, on an invalid setting."""
    values = vars(args)
    fields = {}
    for opt in _options_of(args.command):
        value = values[opt.dest]
        if opt.field is not None and value is not None:
            fields[opt.field] = value if opt.to_field is None else opt.to_field(value)
    return ExperimentConfig(**fields)


def _strict_exit(args, converged: bool, message: str) -> int:
    if args.strict and not converged:
        sys.stderr.write(f"fairank {args.command}: {message}\n")
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_generate(args, config) -> int:
    run_generate(config)
    return EXIT_OK


def _cmd_rank(args, config) -> int:
    (result,), labels = run_rank(config)
    write_text(args.out, ranking_csv(result, labels))
    return _strict_exit(args, result.converged, "did not converge within --max-iter")


def _cmd_curves(args, config) -> int:
    _, _, all_converged = run_curves(config)
    return _strict_exit(args, all_converged, "some rankers did not converge")


def _points(args) -> list[tuple[float, float]]:
    if args.grid:
        return [(float(r), float(rho)) for r in _GRID_R for rho in _GRID_RHO]
    return [(args.r, args.rho)]


# the analytic commands import fairank.meanfield when they run, so a graph
# command never loads it
def _cmd_meanfield(args, config) -> int:
    from .meanfield import mean_field_report

    rows = []
    for r, rho in _points(args):
        rep = mean_field_report(r, rho)
        q = rep.q
        rows.append(tuple(map(float, (
            r, rho, rep.alpha, rep.k_blue, rep.k_red, rep.beta_blue, rep.beta_red,
            q[0, 0], q[1, 0], q[0, 1], q[1, 1], rep.f_ratio,
        ))))
    write_text(args.out, table(tuple(zip(*rows)),
                               header="r,rho,alpha,K_B,K_R,beta_B,beta_R,"
                                      "q_BB,q_RB,q_BR,q_RR,F"))
    return EXIT_OK


def _cmd_verify(args, config) -> int:
    from .meanfield import verify_propositions

    rows = [(r, rho, check.name, check.mode, "true" if check.passed else "false",
             check.margin)
            for r, rho in _points(args)
            for check in verify_propositions(r, rho).values()]
    write_text(args.out, table(tuple(zip(*rows)), header="r,rho,check,mode,passed,margin"))
    passed = sum(row[4] == "true" for row in rows)
    sys.stderr.write(f"fairank verify: {passed}/{len(rows)} checks passed\n")
    return EXIT_OK


def _cmd_sweep(args, config) -> int:
    _, _, all_converged = sweep(config, args.axis, args.values)
    return _strict_exit(args, all_converged, "some runs did not converge")


# subcommand -> (implementation(args, ExperimentConfig or None), help line)
_COMMANDS = {
    "generate": (_cmd_generate, "emit raw replica graphs with stats"),
    "rank": (_cmd_rank, "rank one graph, CSV node,score,rank"),
    "curve": (_cmd_curves, "replica-averaged minority share curves"),
    "real": (_cmd_curves, "analyze a dataset from files"),
    "meanfield": (_cmd_meanfield, "closed-form analytics as CSV"),
    "verify": (_cmd_verify, "run analytic checks, CSV r,rho,check,mode,passed,margin"),
    "sweep": (_cmd_sweep, "curve sets across rho or eigenspace dimension"),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        top = CliParser(prog="fairank", usage="fairank {%s} [options]" % ",".join(_COMMANDS))
        if command is None or command.startswith("-"):
            top.error("a subcommand is required, and it comes before every option")
        top.error(f"unknown subcommand {command!r}")
    parser = _build_parser(command)
    # --config is read first, so that the file's defaults can go before the
    # flags that override them. This first parse is the full one less the
    # check for required options, which the file may supply, so it reads
    # abbreviations and reports errors as the full parse does
    config_path = _build_parser(command, require=False).parse_args(argv[1:]).config
    try:
        injected = _config_argv(command, config_path) if config_path else []
    except GraphError as exc:
        parser.error(str(exc))
    args = parser.parse_args(injected + argv[1:])
    values = vars(args)
    if command in ("rank", "real") and values["threads"] not in (None, 1):
        parser.error(f"--threads: {command} ranks one graph, so only 1 is accepted")
    if values.get("edges") is not None or values.get("colors") is not None:
        unused = [opt.flag for opt in _options_of(command)
                  if opt.flag in _GENERATED_ONLY and values[opt.dest] is not None]
        if unused:
            parser.error(f"not used with --edges/--colors: {' '.join(unused)}")
    if command in ("meanfield", "verify"):
        point = (args.r, args.rho)
        if args.grid and point != (None, None):
            parser.error("--grid sweeps its own points, so --r and --rho are not used")
        if not args.grid and None in point:
            parser.error("give both --r and --rho, or use --grid")
    if command == "sweep":
        if args.axis == "k" and args.algos is not None and set(args.algos) != {"subspace"}:
            parser.error("--axis k ranks only subspace; drop --algos or give "
                         "--algos subspace")
        cast = int if args.axis == "k" else float
        try:
            args.values = [cast(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            parser.error(f"--values {args.values!r}: --axis {args.axis} takes "
                         f"comma-separated {cast.__name__} values")
    try:  # the run's settings are checked before any work starts
        config = _config(args) if command in _GRAPHS.split() else None
        if command == "sweep":
            sweep_configs(config, args.axis, args.values)
        if command in _ANALYTIC.split() and not args.grid:
            from .meanfield import _validate_params

            _validate_params(args.r, args.rho)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return _COMMANDS[command][0](args, config)
    except (GraphError, ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"fairank {command}: error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
