"""Command-line interface.

Exit codes: 0 success, 1 domain error (for example an instance with no
halving matching), 2 verification mismatch, 3 input/output or parse
error.  Usage errors from the argument parser also exit with 3.

Drawings print to stdout in the same text formats the parsers accept,
so subcommands compose through files or pipes; progress and receipts go
to stderr.
"""

import argparse
import json
import sys
from math import inf

from .doubling import (
    VerificationError,
    double_points,
    double_signature,
    normalize_kind,
)
from .geometry import DegenerateError, PointSet, count_crossings
from .halving import halving_matching, halving_matching_sig
from .heuristics import (
    SearchBudget,
    cell_walk,
    random_relocation,
    shrink,
    sig_flip_search,
)
from .io import (
    ParseError,
    format_drawing,
    format_signature_text,
    load_drawing,
    load_points,
)
from .pipeline import PipelineConfig, orchestrate
from .registry import Registry, bound_for, count_drawing_brute, verify
from .signatures import Signature, is_realizable, signature_of
from .svg import export_svg


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the parse-error code."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _dump(drawing):
    sys.stdout.write(format_drawing(drawing))


def _progress_printer():
    """Progress callback: report improvements and every 1000th step."""
    last = {"best": None, "step": 0}

    def progress(step, count, best):
        if best != last["best"] or step - last["step"] >= 1000:
            last["best"], last["step"] = best, step
            print(f"step {step} count {count} best {best}", file=sys.stderr)

    return progress


def _count(drawing):
    """The crossings of a drawing.  A signature must be realizable, as the
    registry requires, since the counter means nothing otherwise."""
    if drawing.kind == "pseudo" and not is_realizable(drawing):
        raise VerificationError("signature is not realizable")
    return count_crossings(drawing)


def cmd_count(args):
    drawing = load_drawing(args.file)
    fast = _count(drawing)
    if args.brute:
        brute = count_drawing_brute(drawing)
        if brute != fast:
            raise VerificationError(f"fast count {fast} != brute count {brute}")
    print(fast)
    return 0


def cmd_bound(args):
    drawing = load_drawing(args.file)
    kind = normalize_kind(args.kind)
    if kind == "rect" and drawing.kind == "pseudo":
        raise ValueError("a signature only certifies the pseudolinear bound")
    n = drawing.n
    crossings = _count(drawing)
    bound = bound_for(kind, n, crossings)
    print(f"n = {n}")
    print(f"crossings = {crossings}")
    print(f"bound = {bound} ({float(bound.value):.9f})")
    return 0


def cmd_signature(args):
    S = load_points(args.from_points)
    sys.stdout.write(format_signature_text(signature_of(S)))
    return 0


def cmd_double(args):
    drawing = load_drawing(args.file)
    if args.kind is not None:
        kind = normalize_kind(args.kind)
        if kind == "rect" and isinstance(drawing, Signature):
            raise ValueError("cannot double a signature as a point drawing")
        if kind == "pseudo" and isinstance(drawing, PointSet):
            drawing = signature_of(drawing)
    if drawing.kind == "pseudo":
        match, double = halving_matching_sig, double_signature
    else:
        match, double = halving_matching, double_points
    matching = match(drawing)
    if not matching:
        raise ValueError("instance has no halving matching")
    doubled, report = double(drawing, matching)
    print(
        f"doubled n={report.input_n} ({report.input_crossings} crossings) -> "
        f"n={report.output_n}: {report.output_crossings} crossings "
        f"(predicted {report.predicted_crossings})",
        file=sys.stderr,
    )
    _dump(doubled)
    return 0


def cmd_shrink(args):
    drawing = load_drawing(args.file)

    def emit(step_drawing):
        print(f"n = {step_drawing.n}, crossings = {count_crossings(step_drawing)}", file=sys.stderr)

    out = shrink(drawing, args.to, tuple_size=args.tuple, emit=emit)
    _dump(out)
    return 0


def cmd_optimize(args):
    drawing = load_drawing(args.file)
    wall = args.time if args.time is not None else (inf if args.steps else 10.0)
    budget = SearchBudget(
        wall_time=wall, max_steps=args.steps, rng_seed=args.seed
    )
    progress = _progress_printer()
    if args.heuristic == "flip":
        if not isinstance(drawing, Signature):
            raise ValueError("flip search operates on signatures")
        out = sig_flip_search(drawing, budget, progress=progress)
    elif isinstance(drawing, Signature):
        raise ValueError(f"{args.heuristic} operates on point drawings")
    elif args.heuristic == "relocate":
        out = random_relocation(drawing, budget, progress=progress)
    else:
        out = cell_walk(
            drawing, args.vertex, budget, mode=args.mode, progress=progress
        )
    print(f"final count {count_crossings(out)}", file=sys.stderr)
    _dump(out)
    return 0


def cmd_verify(args):
    try:
        report = verify(args.file, args.kind, brute_limit=args.brute_limit)
    except ParseError:
        # ParseError subclasses ValueError: keep it a parse error (exit 3)
        raise
    except (DegenerateError, ValueError) as exc:
        # a payload that parses but fails certification is a mismatch
        raise VerificationError(str(exc)) from exc
    for key, value in report.items():
        print(f"{key}: {value}")
    return 0


def cmd_export_svg(args):
    drawing = load_drawing(args.file)
    export_svg(drawing, args.output)
    return 0


def cmd_pipeline(args):
    try:
        cfg = PipelineConfig.from_json(args.config)
    except json.JSONDecodeError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"config: {exc}") from exc
    report = orchestrate(cfg)
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


def cmd_registry_fsck(args):
    problems = Registry(args.registry).fsck()
    for line in problems:
        print(line)
    if problems:
        return 2
    print("registry clean")
    return 0


def cmd_registry_best(args):
    reg = Registry(args.registry)
    shown = 0
    for kind in ("rect", "pseudo"):
        if not reg.records(kind):
            continue
        n, bound = reg.best_bound(kind)
        rec = reg.get(kind, n)
        print(
            f"{kind}: n={n} crossings={rec.crossings} "
            f"bound={bound} ({float(bound.value):.9f})"
        )
        shown += 1
    if not shown:
        raise LookupError("registry is empty")
    return 0


def cmd_registry_import(args):
    reg = Registry(args.registry)
    for kind, n, result in reg.import_dir(args.directory):
        print(f"{kind} n={n}: {result}")
    return 0


def _build_parser():
    parser = _Parser(prog="crossnum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count crossings of a drawing")
    p.add_argument("file")
    p.add_argument("--brute", action="store_true", help="cross-check with the brute counter")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bound", help="crossing-constant bound certified by a drawing")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=("rect", "pseudo"))
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("signature", help="signature of a point drawing")
    p.add_argument("--from-points", required=True, metavar="FILE")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("double", help="double a drawing along a halving matching")
    p.add_argument("file")
    p.add_argument("--kind", choices=("rect", "pseudo"))
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("shrink", help="remove vertices greedily down to a target size")
    p.add_argument("file")
    p.add_argument("--to", required=True, type=int, metavar="N")
    p.add_argument("--tuple", type=int, default=1, choices=(1, 2, 3))
    p.set_defaults(func=cmd_shrink)

    p = sub.add_parser("optimize", help="run one local-search heuristic")
    p.add_argument("file")
    p.add_argument(
        "--heuristic", required=True, choices=("relocate", "cellwalk", "flip")
    )
    p.add_argument("--time", type=float, metavar="SECS")
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertex", type=int, default=0, help="moving vertex for cellwalk")
    p.add_argument("--mode", choices=("random", "greedy"), default="random")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="certify a payload file")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=("rect", "pseudo"))
    p.add_argument("--brute-limit", type=int, default=12)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-svg", help="render a drawing to SVG")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export_svg)

    p = sub.add_parser("pipeline", help="run the search pipeline")
    p.add_argument("--config", required=True, metavar="CFG.json")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("registry", help="inspect or merge a registry")
    rsub = p.add_subparsers(dest="registry_command", required=True)
    for name, func in (("fsck", cmd_registry_fsck), ("best", cmd_registry_best)):
        rp = rsub.add_parser(name)
        rp.add_argument("--registry", default="registry", metavar="DIR")
        rp.set_defaults(func=func)
    rp = rsub.add_parser("import")
    rp.add_argument("directory")
    rp.add_argument("--registry", default="registry", metavar="DIR")
    rp.set_defaults(func=cmd_registry_import)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 2
    except (ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
