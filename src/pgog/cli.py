"""Command-line front end.

Subcommands parse DSL documents, run the divergence detector and the
edge-count bound, build and verify tower levels, separate tagged words,
and execute registered examples.  Every subcommand renders a report as
text or, with --json, as stable JSON; the exit code is 0 exactly when no
check failed, and 2 without a report for unusable input.

Each command imports the layers it runs inside its handler, so a fresh
process pays to load (and, without bytecode caches, to compile) only
those: `tower verify-all` never loads the registry, the DSL, amalgams,
the coset enumerator or the collapse detector.

main(argv) runs one command and returns its exit code; the tests call it
in process.  run() is the process entry (`python -m pgog.cli` and the
`pgog` script): after main() it freezes the garbage collector, so the
interpreter's collections at exit skip the objects still alive instead
of walking every one of them.
"""

import argparse
import gc
import sys

from . import reports
from .models import PrimeLevel


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(str(exc)) from None


# -- subcommands ----------------------------------------------------------------


def cmd_parse(args):
    from .dsl import parse_dsl
    from .gog import check_reduced, verify_specialisation
    doc = parse_dsl(_read(args.file))
    report = reports.Report("parse", {"file": args.file})
    for name, pres in doc.presentations.items():
        report.add(f"presentation {name}", reports.PASS,
                   generators=list(pres.generators),
                   relators=len(pres.relators))
    for name, gog in doc.graphs.items():
        report.add(f"graph {name}", reports.PASS,
                   vertices=list(gog.graph.vertices),
                   edges=dict(gog.graph.edges),
                   reduced=check_reduced(gog))
    for name, spec in doc.witnesses.items():
        report.checks.append(
            {**verify_specialisation(spec), "name": f"witness {name}"})
    for name, letters in doc.words.items():
        report.add(f"word {name}", reports.PASS, letters=len(letters))
    return report


def _collapse_targets(doc, name):
    from .gog import fundamental_presentation
    targets = {n: p for n, p in doc.presentations.items()}
    for n, gog in doc.graphs.items():
        targets[n] = fundamental_presentation(gog)
    if name is not None:
        if name not in targets:
            raise ValueError(f"no presentation or graph named {name!r}; "
                             f"document defines: {', '.join(sorted(targets))}")
        targets = {name: targets[name]}
    if not targets:
        raise ValueError("document defines no presentations or graphs")
    return targets


def cmd_collapse(args):
    from .analysis import detect_collapse
    from .dsl import parse_dsl
    doc = parse_dsl(_read(args.file))
    p = args.p or doc.prime or 2
    report = reports.Report("collapse", {"file": args.file, "p": p})
    for name, pres in sorted(_collapse_targets(doc, args.name).items()):
        report.checks.append(
            reports.collapse_check(f"collapse {name}", detect_collapse(pres, p)))
    return report


def cmd_bound(args):
    from .dsl import parse_dsl
    from .gog import verify_properness_witness
    doc = parse_dsl(_read(args.file))
    names = ([args.witness] if args.witness
             else sorted(doc.witnesses))
    report = reports.Report("bound", {"file": args.file})
    if not names:
        raise ValueError("document defines no witnesses; the edge bound "
                         "requires a certified properness witness")
    for name in names:
        spec = doc.witnesses.get(name)
        if spec is None:
            raise ValueError(f"no witness named {name!r}; document defines: "
                             f"{', '.join(sorted(doc.witnesses)) or 'none'}")
        report.extend(reports.witness_checks(
            verify_properness_witness(spec), name))
    return report


def cmd_tower_build(args):
    from .tower import build_graphs, check_budget
    check_budget(args.p, args.n + args.m, witnesses=False)
    graphs = build_graphs(args.p, args.n, args.m)
    report = reports.Report(
        "tower build", {"p": args.p, "n": args.n, "m": args.m})
    for label, gog in (("path", graphs.path), ("tail", graphs.tail),
                       ("joined", graphs.joined)):
        report.add(label, reports.PASS,
                   vertices=list(gog.graph.vertices),
                   edges=dict(gog.graph.edges),
                   vertex_orders={v: gog.vertices[v].model.order
                                  for v in gog.graph.vertices},
                   edge_orders={e: gog.edges[e].order
                                for e in gog.graph.edges})
    return report


def _tower_verify_checks(p, max_level):
    from .tower import (build_level, build_witnesses, check_retraction_square,
                        check_transition_maps, check_two_generation)
    checks = []
    for n in range(2, max_level + 1):
        checks += reports.guarded(f"retraction-square-n{n}", lambda n=n: [
            check_retraction_square(build_level(p, n))])
    for n in range(0, max_level):
        for m in range(0, max_level - n):
            if n == 0 and m == 0:
                continue
            checks += reports.guarded(
                f"transition-n{n}-m{m}",
                lambda n=n, m=m: [check_transition_maps(p, n, m)])
    for n in range(1, max_level + 1):
        checks += reports.guarded(f"witnesses-n{n}", lambda n=n: [
            check for witness in build_witnesses(p, n)
            for check in reports.witness_checks(
                witness, witness.specialisation.name)])
        checks += reports.guarded(f"two-generation-n{n}", lambda n=n: [
            check_two_generation(p, n)])
    return checks


def cmd_tower_verify_all(args):
    from .tower import check_budget
    check_budget(args.p, args.max_level, witnesses=True)
    report = reports.Report(
        "tower verify-all", {"p": args.p, "max_level": args.max_level})
    report.extend(_tower_verify_checks(args.p, args.max_level))
    return report


def cmd_separate(args):
    from .amalgam import check_search
    from .dsl import parse_word
    letters = parse_word(args.word)
    levels = check_search(letters, args.p, args.start_level, args.max_level)
    report = reports.Report(
        "separate", {"word": args.word, "p": args.p,
                     "start_level": args.start_level,
                     "max_level": args.max_level})
    report.extend(reports.guarded(
        "separate", lambda: [_separation_check(letters, args, levels)]))
    return report


def _separation_check(letters, args, levels):
    from .amalgam import Verdict, separate
    verdict, cert = separate(letters, args.p, start_level=args.start_level,
                             max_level=args.max_level)
    if verdict is Verdict.TRIVIAL:
        return reports.make_check("separate", reports.PASS,
                                  verdict="trivial element")
    if verdict is Verdict.INCONCLUSIVE:
        return reports.make_check(
            "separate", reports.UNKNOWN,
            verdict=f"inconclusive: no level in [{levels[0]}, "
                    f"{levels[-1]}] certifies the word")
    reverified = cert.reevaluate() == cert.image
    return reports.make_check(
        "separate", reports.status(reverified),
        level=cert.level,
        target=cert.specialisation.target.name,
        image=list(cert.image.coords),
        reduced_letters=len(cert.reduced.letters()),
        reverified=reverified)


def _params(args):
    out = {}
    for key in ("p", "n", "max_level"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def cmd_run(args):
    from . import registry
    return registry.run_example(args.id, **_params(args))


def cmd_run_all(args):
    from . import registry
    return registry.run_all(args.examples, **_params(args))


# -- wiring ----------------------------------------------------------------------


def _add_json(sp):
    sp.add_argument("--json", action="store_true",
                    help="emit the report as stable JSON")


def _add_params(sp):
    for flag in ("--p", "--n", "--max-level"):
        sp.add_argument(flag, type=int, default=None)


class _Parser(argparse.ArgumentParser):
    """Full option names only: --m must not stand for --max-level."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser():
    parser = _Parser(
        prog="pgog",
        description="Verification tools for finite graphs of finite p-groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a DSL document and list it")
    sp.add_argument("file", help="document path, or - for stdin")
    _add_json(sp)
    sp.set_defaults(handler=cmd_parse)

    sp = sub.add_parser("collapse",
                        help="divergence analysis of presentations and graphs")
    sp.add_argument("file")
    sp.add_argument("--name", help="restrict to one presentation or graph")
    sp.add_argument("--p", dest="p", type=int, default=None)
    _add_json(sp)
    sp.set_defaults(handler=cmd_collapse)

    sp = sub.add_parser("bound",
                        help="verify witnesses and the edge-count bound")
    sp.add_argument("file")
    sp.add_argument("--witness", help="restrict to one witness")
    _add_json(sp)
    sp.set_defaults(handler=cmd_bound)

    tower = sub.add_parser("tower", help="build and verify tower levels")
    tsub = tower.add_subparsers(dest="tower_command", required=True)
    sp = tsub.add_parser("build", help="build the three splittings")
    sp.add_argument("--p", dest="p", type=int, default=2)
    sp.add_argument("--n", dest="n", type=int, default=2)
    sp.add_argument("--m", dest="m", type=int, default=0)
    _add_json(sp)
    sp.set_defaults(handler=cmd_tower_build)
    sp = tsub.add_parser("verify-all",
                         help="retraction squares, transitions, witnesses, "
                              "bounds, and two-generation up to a level")
    sp.add_argument("--p", dest="p", type=int, default=2)
    sp.add_argument("--max-level", dest="max_level", type=int, default=3)
    _add_json(sp)
    sp.set_defaults(handler=cmd_tower_verify_all)

    sp = sub.add_parser("separate",
                        help="certify a tagged word nontrivial in a finite "
                             "quotient")
    sp.add_argument("--word", required=True,
                    help="letters like 'G1:k1 L1:t' (L<n> = lamplighter level)")
    sp.add_argument("--p", dest="p", type=int, default=2)
    sp.add_argument("--start-level", dest="start_level", type=int, default=1)
    sp.add_argument("--max-level", dest="max_level", type=int, default=4)
    _add_json(sp)
    sp.set_defaults(handler=cmd_separate)

    sp = sub.add_parser("run", help="run one registered example")
    sp.add_argument("id", help="example id; see run-all output for the list")
    _add_params(sp)
    _add_json(sp)
    sp.set_defaults(handler=cmd_run)

    sp = sub.add_parser("run-all", help="run registered examples")
    sp.add_argument("--examples", default="*",
                    help="glob over example ids (default: all)")
    _add_params(sp)
    _add_json(sp)
    sp.set_defaults(handler=cmd_run_all)

    return parser


_LOWER_BOUNDS = (("n", "--n", 1), ("m", "--m", 0),
                 ("max_level", "--max-level", 1),
                 ("start_level", "--start-level", 1))


def _check_params(args):
    """Refuse an out-of-range --p, --n, --m, --max-level or --start-level
    before any work."""
    if getattr(args, "p", None) is not None:
        PrimeLevel(args.p)
    for key, flag, low in _LOWER_BOUNDS:
        value = getattr(args, key, None)
        if value is not None and value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_params(args)
        report = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = report.to_json() if args.json else report.to_text()
    sys.stdout.write(out)
    return report.exit_code


def run():
    """main(), then gc.freeze(): a process about to exit need not have
    its collector walk every object still alive."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
