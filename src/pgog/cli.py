"""Command-line front end.

Subcommands parse DSL documents, run the divergence detector and the
edge-count bound, build and verify tower levels, separate tagged words,
and execute registered examples.  Every subcommand renders a report as
text or, with --json, as stable JSON; the exit code is 0 exactly when no
check failed, and 2 without a report for unusable input.

COMMANDS holds each command's help, handler, arguments, defaults and
bounds, and a process builds the arguments of only the command it runs.
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
import collections
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
    report = reports.Report("tower build", _params(args))
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
    report = reports.Report("tower verify-all", _params(args))
    report.extend(_tower_verify_checks(args.p, args.max_level))
    return report


def cmd_separate(args):
    from .amalgam import check_search
    from .dsl import parse_word
    letters = parse_word(args.word)
    params = _params(args)
    levels = check_search(letters, **params)
    report = reports.Report("separate", {"word": args.word, **params})
    report.extend(reports.guarded(
        "separate", lambda: [_separation_check(letters, params, levels)]))
    return report


def _separation_check(letters, params, levels):
    from .amalgam import Verdict, separate
    verdict, cert = separate(letters, **params)
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


def cmd_run(args):
    from . import registry
    return registry.run_example(args.id, **_params(args))


def cmd_run_all(args):
    from . import registry
    return registry.run_all(args.examples, **_params(args))


# -- the command table ----------------------------------------------------------


# A command's help, then its handler, or for a group its subcommands' table.
# An argument is (name or flag, add_argument keywords); an int option is
# (flag, default, least value), where --p has no least value: it must be a
# prime that PrimeLevel accepts.  Every leaf command also takes --json.
Command = collections.namedtuple("Command", "help handler arguments ints",
                                 defaults=((), ()))

COMMANDS = {
    "parse": Command("parse a DSL document and list it", cmd_parse,
                     [("file", {"help": "document path, or - for stdin"})]),
    "collapse": Command(
        "divergence analysis of presentations and graphs", cmd_collapse,
        [("file", {}),
         ("--name", {"help": "restrict to one presentation or graph"})],
        [("--p", None, None)]),
    "bound": Command(
        "verify witnesses and the edge-count bound", cmd_bound,
        [("file", {}), ("--witness", {"help": "restrict to one witness"})]),
    "tower": Command("build and verify tower levels", {
        "build": Command("build the three splittings", cmd_tower_build, (),
                         [("--p", 2, None), ("--n", 2, 1), ("--m", 0, 0)]),
        "verify-all": Command(
            "retraction squares, transitions, witnesses, bounds, and "
            "two-generation up to a level", cmd_tower_verify_all, (),
            [("--p", 2, None), ("--max-level", 3, 1)])}),
    "separate": Command(
        "certify a tagged word nontrivial in a finite quotient", cmd_separate,
        [("--word", {"required": True, "help": "letters like 'G1:k1 L1:t' "
                                               "(L<n> = lamplighter level)"})],
        [("--p", 2, None), ("--start-level", 1, 1), ("--max-level", 4, 1)]),
    "run": Command(
        "run one registered example", cmd_run,
        [("id", {"help": "example id; see run-all output for the list"})],
        [("--p", None, None), ("--n", None, 1), ("--max-level", None, 1)]),
    "run-all": Command(
        "run registered examples", cmd_run_all,
        [("--examples", {"default": "*",
                         "help": "glob over example ids (default: all)"})],
        [("--p", None, None), ("--n", None, 1), ("--max-level", None, 1)]),
}


def build_parser(argv):
    """A parser that knows every command's name and help, and the
    arguments only of the command and subcommand that argv's first words
    other than options name: no parser above a leaf takes an option with
    a value.  Full option names only: --m must not stand for --max-level."""
    parser = argparse.ArgumentParser(
        prog="pgog", allow_abbrev=False,
        description="Verification tools for finite graphs of finite p-groups.")
    words = (word for word in argv if not word.startswith("-"))
    groups = [(parser, "command", COMMANDS)]
    for group, dest, commands in groups:
        sub = group.add_subparsers(dest=dest, required=True)
        named = next(words, None)
        for name, command in commands.items():
            sp = sub.add_parser(name, help=command.help, allow_abbrev=False)
            if name == named and isinstance(command.handler, dict):
                groups.append((sp, f"{name}_command", command.handler))
            elif name == named:
                for flag, kwargs in command.arguments:
                    sp.add_argument(flag, **kwargs)
                for flag, default, _ in command.ints:
                    sp.add_argument(flag, type=int, default=default)
                sp.add_argument("--json", action="store_true",
                                help="emit the report as stable JSON")
                sp.set_defaults(handler=command.handler)
    return parser


def _params(args):
    """By name, each int option that the command args ran declares and
    was given.  ValueError for the first, in the command's order, below
    its least value, or for a --p that PrimeLevel refuses: main calls
    this before any work."""
    command = COMMANDS[args.command]
    if isinstance(command.handler, dict):
        command = command.handler[getattr(args, f"{args.command}_command")]
    params = {}
    for flag, _, low in command.ints:
        name = flag[2:].replace("-", "_")
        value = getattr(args, name)
        if value is None:
            continue
        if low is None:
            PrimeLevel(value)
        elif value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
        params[name] = value
    return params


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        _params(args)
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
