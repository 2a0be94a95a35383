"""Command-line front end.

Commands: analyze, dilation, access, rank, validate, lie-rank, gen.  Input
comes from a file argument or stdin.  Exit code 0 means the analysis ran
(the verdict is in the report), 2 an input problem, 3 a capacity guard.
Reports are emitted as JSON with --json; identical inputs and flags produce
byte-identical reports, so timing data only appears on request.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .formats import parse_input, serialize
from .generate import pattern_of_shape, random_pattern
from .hypergraph import DirectedHypergraph, build_hypergraph
from .numeric import check_tolerance, strong_controllability
from .oracle import lie_algebra_rank_at_origin
from .structural import (
    accessible_set,
    analyze_hypergraph,
    detect_dilation,
    structural_verdict,
    verdict_against_rank,
    verdict_cells,
)
from .system import Polysystem, check_shape, sample_realization, sparsity_pattern
from .tensor import DEFAULT_CAP, CapacityError

import numpy as np

__all__ = ["main", "run"]

FORMAT_VERSION = "1"
# validate ranks its queued trials as one stack once their cells reach this
# many, about 40 desk-size trials: few numpy calls per trial, little memory
_STACK_CELLS = 1 << 15


def _timed(phases: dict[str, float], name: str, fn, *args, **kwargs):
    """Call ``fn`` and add its wall time in milliseconds to ``name``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    phases[name] = phases.get(name, 0.0) + (time.perf_counter() - start) * 1000.0
    return result


def _load(args):
    """Parse the input named by ``args.path``, or stdin for '-'."""
    if args.path == "-":
        return parse_input(sys.stdin.read())
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.path}: {exc.strerror}") from None
    return parse_input(text)


def _input_section(obj) -> dict:
    if isinstance(obj, DirectedHypergraph):
        return {
            "kind": "hypergraph",
            "n": obj.n,
            "m": obj.m,
            "edges": len(obj.edges),
        }
    if isinstance(obj, Polysystem):
        kind = "system"
        tensor_nnz = len(obj.tensor.index)
        control_nnz = int(np.count_nonzero(obj.control))
    else:
        kind = "pattern"
        tensor_nnz = len(obj.tensor_index)
        control_nnz = len(obj.control_index)
    return {
        "kind": kind,
        "k": obj.order,
        "n": obj.dim,
        "m": obj.inputs,
        "tensor_nnz": tensor_nnz,
        "control_nnz": control_nnz,
    }


def _structural_section(verdict) -> dict:
    return {
        "controllable": verdict.controllable,
        "dilated": verdict.dilated,
        "dilation_witness": sorted(verdict.dilation_witness)
        if verdict.dilation_witness is not None
        else None,
        "inaccessible": sorted(verdict.inaccessible),
        "matching": [list(pair) for pair in verdict.matching],
    }


def _emit(report: dict, args) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for line in _human_lines(report):
        print(line)


def _human_lines(report: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in report.items():
        if key == "format_version":
            continue
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_human_lines(value, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _emit_error(args, kind: str, message: str) -> None:
    if getattr(args, "json", False):
        print(
            json.dumps({"error": {"kind": kind, "message": message}}, sort_keys=True),
            file=sys.stderr,
        )
    else:
        print(f"error: {message}", file=sys.stderr)


def _graph(obj) -> DirectedHypergraph:
    """The input as a hypergraph; a system is projected first."""
    if isinstance(obj, DirectedHypergraph):
        return obj
    if isinstance(obj, Polysystem):
        obj = sparsity_pattern(obj)
    return build_hypergraph(obj)


def _system(obj, args) -> tuple[Polysystem, int | None]:
    """The input as a system and the seed it was drawn with (None if given)."""
    if isinstance(obj, DirectedHypergraph):
        raise ValueError("this command needs tensor/matrix input, not a hypergraph")
    if isinstance(obj, Polysystem):
        return obj, None
    return sample_realization(obj, args.seed), args.seed


def _rank_section(rank, seed: int | None) -> dict:
    return {
        "rank": rank.rank,
        "n": rank.n,
        "strongly_controllable": rank.strongly_controllable,
        "iterations": rank.iterations,
        "tolerance": rank.tolerance,
        "seed": seed,
    }


def _report(args, **fields) -> int:
    """Emit a command's report: the common header, then ``fields``."""
    _emit({"format_version": FORMAT_VERSION, "command": args.command, **fields}, args)
    return 0


def _cmd_analyze(args) -> int:
    phases: dict[str, float] = {}
    obj = _timed(phases, "parse", _load, args)
    verdict = _timed(phases, "structural", lambda: analyze_hypergraph(_graph(obj)))
    fields = {"structural": _structural_section(verdict)}
    if args.numeric:
        system, seed = _system(obj, args)
        rank = _timed(
            phases, "numeric", strong_controllability, system, tol=args.tol, cap=args.cap
        )
        fields["numeric"] = _rank_section(rank, seed)
    if args.timings:
        fields["timings_ms"] = phases
    return _report(args, input=_input_section(obj), **fields)


def _cmd_dilation(args) -> int:
    obj = _load(args)
    result = detect_dilation(_graph(obj))
    return _report(
        args,
        input=_input_section(obj),
        dilated=result.dilated,
        witness=sorted(result.witness) if result.witness is not None else None,
        matching=[list(pair) for pair in result.matching],
    )


def _cmd_access(args) -> int:
    obj = _load(args)
    graph = _graph(obj)
    accessible = accessible_set(graph)
    return _report(
        args,
        input=_input_section(obj),
        accessible=sorted(accessible),
        inaccessible=sorted(graph.state_vertices - accessible),
    )


def _cmd_rank(args) -> int:
    obj = _load(args)
    system, seed = _system(obj, args)
    rank = strong_controllability(system, tol=args.tol, cap=args.cap)
    return _report(args, input=_input_section(obj), **_rank_section(rank, seed))


def _cmd_lie_rank(args) -> int:
    obj = _load(args)
    system, seed = _system(obj, args)
    rank, saturated, _ = lie_algebra_rank_at_origin(system, depth_cap=args.depth_cap)
    return _report(
        args,
        input=_input_section(obj),
        rank=rank,
        n=system.dim,
        full_rank=rank == system.dim,
        saturated=saturated,
        seed=seed,
    )


def _rank_trials(queue: list, args, trials: list) -> None:
    """Rank the queued (index, pattern, controllable) trials as one stack
    and append their details to ``trials``."""
    indices, patterns, verdicts = zip(*queue)
    seeds = [args.seed * 1000 + index * 10 for index in indices]
    results = verdict_against_rank(patterns, seeds, args.tol, verdicts)
    for index, pattern, (controllable, ranks, agree) in zip(indices, patterns, results):
        trial = {
            "index": index,
            "controllable": controllable,
            "ranks": ranks,
            "n": pattern.dim,
            "agree": agree,
        }
        if not agree:
            # the pattern text replays the trial with ``analyze -``
            trial["pattern"] = serialize(pattern)
        trials.append(trial)


def _cmd_validate(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    check_shape(args.n, args.k, args.m)
    check_tolerance(args.tol)
    rng = np.random.default_rng(args.seed)
    phases = dict.fromkeys(("patterns", "structural", "realizations"), 0.0)
    trials: list = []
    queue: list = []
    cells = 0
    for index in range(args.trials):
        pattern = _timed(phases, "patterns", pattern_of_shape, rng, args.n, args.k, args.m)
        verdict = _timed(phases, "structural", structural_verdict, pattern)
        # each trial's own stack is refused before the next pattern is drawn
        cells += verdict_cells(pattern, verdict.controllable)
        queue.append((index, pattern, verdict.controllable))
        if cells >= _STACK_CELLS or index == args.trials - 1:
            _timed(phases, "realizations", _rank_trials, queue, args, trials)
            queue, cells = [], 0
    disagreements = [trial["index"] for trial in trials if not trial["agree"]]
    fields = {
        "trials": args.trials,
        "n": args.n,
        "k": args.k,
        "m": args.m,
        "seed": args.seed,
        "tolerance": args.tol,
        "agreements": args.trials - len(disagreements),
        "disagreements": disagreements,
        "all_agree": not disagreements,
        "detail": trials,
    }
    if args.timings:
        fields["timings_ms"] = phases
    return _report(args, **fields)


def _cmd_gen(args) -> int:
    tensor_nnz = args.tensor_nnz if args.tensor_nnz is not None else args.n
    control_nnz = args.control_nnz if args.control_nnz is not None else args.m
    pattern = random_pattern(args.n, args.k, args.m, tensor_nnz, control_nnz, args.seed)
    sys.stdout.write(serialize(pattern))
    return 0


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", nargs="?", default="-", help="input file, '-' for stdin")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")


def _add_numeric_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=0.0, help="relative SVD cutoff, 0 = automatic")
    parser.add_argument("--seed", type=int, default=0, help="realization seed for pattern input")
    parser.add_argument(
        "--cap", type=int, default=DEFAULT_CAP, help="cap in cells on the rank reduction"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyctrl",
        description="Structural controllability of odd homogeneous polynomial control systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural verdict, optionally with the numeric rank test")
    _add_io_flags(p)
    _add_numeric_flags(p)
    p.add_argument("--numeric", action="store_true", help="also run the rank test")
    p.add_argument("--timings", action="store_true", help="include timing data in the report")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("dilation", help="matching-based dilation test")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_dilation)

    p = sub.add_parser("access", help="accessible vertex set")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_access)

    p = sub.add_parser("rank", help="reduced controllability matrix rank")
    _add_io_flags(p)
    _add_numeric_flags(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("lie-rank", help="Lie algebra rank at the origin (desk scale)")
    _add_io_flags(p)
    p.add_argument("--seed", type=int, default=0, help="realization seed for pattern input")
    p.add_argument("--depth-cap", type=int, default=None, help="bracket rounds, default 2n")
    p.set_defaults(func=_cmd_lie_rank)

    p = sub.add_parser("validate", help="cross-validate structural verdicts against sampled ranks")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--timings", action="store_true", help="include timing data in the report")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen", help="emit a seeded random pattern")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tensor-nnz", type=int, default=None)
    p.add_argument("--control-nnz", type=int, default=None)
    p.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_gen)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every command that takes --seed refuses a negative one, valued
        # input included
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ValueError as exc:  # ParseError included
        _emit_error(args, "input", str(exc))
        return 2
    except (CapacityError, MemoryError) as exc:
        _emit_error(args, "capacity", str(exc) or "out of memory")
        return 3


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``polyctrl ... | head``).  Point
        # stdout at devnull so the flush at interpreter exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
