"""Command-line front end.

Subcommands: check-if, check-recognizable, apply, occ, mus, netocc, gen,
verify.  ``check-if --every-word`` reports the shortest, then smallest word
on which a morphism is not interference-free.  Word and morphism arguments
are literals unless they start with ``@``, in which case the rest is a file
path; a file of more than ``morphisms.LENGTH_BUDGET`` bytes is refused.
``--format machine`` emits one ``key=value`` record per line (no nesting) so
tests in any language can parse the output.

Exit codes: 0 success / positive decision, 1 negative decision or failed
verification, 2 argument or parse errors and exceeded budgets.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import classic, repeats
from .enumeration import is_recognizable_on
from .errors import BudgetExceededError, MorphlabError
from .interference import interference_free_on_every_word, is_interference_free_on
from .morphisms import LENGTH_BUDGET, Morphism
from .words import Word, occurrences, word


def _slurp(arg: str) -> str:
    """``arg``, or the stripped text of the file it names after an ``@``.  A
    file of more than ``LENGTH_BUDGET`` bytes is refused before it is read."""
    if arg.startswith("@"):
        path = Path(arg[1:])
        size = path.stat().st_size
        if size > LENGTH_BUDGET:
            raise BudgetExceededError(
                f"{path} holds {size} bytes, more than the budget of {LENGTH_BUDGET}"
            )
        return path.read_text().strip()
    return arg


def _word_arg(arg: str) -> Word:
    return word(_slurp(arg))


def _morphism_arg(arg: str) -> Morphism:
    return Morphism.parse(_slurp(arg))


def machine_line(**fields) -> str:
    return " ".join(f"{k}={v}" for k, v in fields.items())


def _emit(args, human: str, **fields) -> None:
    print(machine_line(**fields) if args.format == "machine" else human)


# -- subcommand handlers ------------------------------------------------------

def _cmd_check_if(args) -> int:
    phi = _morphism_arg(args.morphism)
    if args.every_word:
        u = interference_free_on_every_word(phi)
        if u is None:
            _emit(args, "IF", command="check-if", result="IF")
            return 0
        _emit(args, f"NOT-IF\nword {u.text}", command="check-if", result="NOT-IF", word=u.text)
        return 1
    u = _word_arg(args.word)
    decision = is_interference_free_on(phi, u)
    if decision:
        _emit(args, "IF", command="check-if", word=u.text, result="IF")
        return 0
    w = decision.witness
    _emit(
        args,
        f"NOT-IF\n{w.describe()}",
        command="check-if",
        word=u.text,
        result="NOT-IF",
        witness=w.describe().replace(" ", ","),
    )
    return 1


def _cmd_check_recognizable(args) -> int:
    phi = _morphism_arg(args.morphism)
    u = _word_arg(args.word)
    decision = is_recognizable_on(phi, u)
    if decision:
        _emit(args, "RECOGNIZABLE", command="check-recognizable", result="RECOGNIZABLE")
        return 0
    _emit(
        args,
        "NOT-RECOGNIZABLE\n"
        f"rotation {decision.offending_rotation.text} has "
        f"{decision.factorization_count} circular factorizations",
        command="check-recognizable",
        result="NOT-RECOGNIZABLE",
        rotation=decision.offending_rotation.text,
        count=decision.factorization_count,
    )
    return 1


def _cmd_apply(args) -> int:
    phi = _morphism_arg(args.morphism)
    u = _word_arg(args.word)
    result = phi.iterate(u, args.iterations)
    _emit(args, result.text, command="apply", result=result.text)
    return 0


def _cmd_occ(args) -> int:
    pattern, text = _slurp(args.pattern), _slurp(args.text)
    alphabet = word(pattern + text).alphabet
    occ = occurrences(Word._trusted(pattern, alphabet), Word._trusted(text, alphabet))
    _emit(
        args,
        f"{len(occ)} occurrences at {occ.serialize() or '-'}",
        command="occ",
        count=len(occ),
        positions=occ.serialize() or "-",
    )
    return 0


def _cmd_mus(args) -> int:
    w = _word_arg(args.text)
    for m in repeats.compute_mus(w):
        if args.format == "machine":
            print(machine_line(command="mus", start=m.start, end=m.end, content=m.content.text))
        else:
            print(f"[{m.start},{m.end}] {m.content.text}")
    return 0


def _cmd_netocc(args) -> int:
    w = _word_arg(args.text)
    for o in repeats.compute_net_occurrences(w):
        content = w.text[o.start - 1 : o.end]
        if args.format == "machine":
            print(machine_line(command="netocc", start=o.start, end=o.end, content=content))
        else:
            print(f"[{o.start},{o.end}] {content}")
    return 0


def _cmd_gen(args) -> int:
    if args.list_morphisms:
        for nm in classic.NAMED_MORPHISMS.values():
            print(f"{nm.name}: {nm.morphism.format()}")
        return 0
    if args.family is None or args.order is None:
        raise ValueError("gen requires --family and --order (or --list-morphisms)")
    if args.family == "fibonacci":
        w = classic.fibonacci_word(args.order)
    else:
        w = classic.thue_morse_word(args.order)
    _emit(args, w.text, command="gen", family=args.family, order=args.order, word=w.text)
    return 0


def _verify_report(args, report: repeats.VerificationReport) -> int:
    for inst in report.instances:
        status = "PASS" if inst.ok else "FAIL"
        if args.format == "machine":
            print(machine_line(command="verify", suite=report.name,
                               instance=inst.label.replace(" ", "_"), status=status))
        else:
            detail = f"  ({inst.detail})" if inst.detail and not inst.ok else ""
            print(f"{status} {inst.label}{detail}")
    for note in report.notes:
        print(f"# {note}")
    return 0 if report.passed else 1


#: (morphism spec, u, v) fixtures for the occ-preserve suite; the middle two
#: deliberately violate the interference-freeness precondition and document
#: the observed count inflation.
_PRESERVE_FIXTURES = (
    ("a->ab;b->ba", "ab", "abaab"),
    ("a->ab;b->a", "ab", "abaab"),
    ("a->ab;b->ba", "aa", "aabbb"),
    ("a->ab;b->a", "aa", "aabbb"),
)


#: The (first, default last, largest) order of each suite that takes
#: ``--max-order``; the largest is the cap of the word family it generates.
_SUITE_ORDERS = {
    "fibonacci-mus": (6, 18, classic.MAX_FIBONACCI_ORDER),
    "tm-mus": (5, 14, classic.MAX_THUE_MORSE_ORDER),
    "no-closed-form": (7, 14, classic.MAX_FIBONACCI_ORDER),
}


def _cmd_verify(args) -> int:
    suite = args.suite
    if suite in _SUITE_ORDERS:
        first, default, cap = _SUITE_ORDERS[suite]
        n = default if args.max_order is None else args.max_order
        if n < first:
            raise ValueError(f"--max-order of {suite} must be at least {first}, got {n}")
        if n > cap:
            raise ValueError(f"--max-order of {suite} must be at most the cap {cap}, got {n}")
        orders = range(first, n + 1)
        if suite == "fibonacci-mus":
            return _verify_report(args, repeats.verify_fibonacci_mus(orders))
        if suite == "tm-mus":
            return _verify_report(args, repeats.verify_tm_mus(orders))
        return _verify_report(
            args, repeats.verify_net_closed_forms(orders, range(5, min(n, 14) + 1))
        )
    # occ-preserve: fixture checks plus report of observed counts
    if args.max_order is not None:
        raise ValueError(f"--max-order does not apply to {suite}")
    failures = 0
    for spec, u_text, v_text in _PRESERVE_FIXTURES:
        phi = Morphism.parse(spec)
        report = repeats.verify_occurrence_preservation(phi, word(u_text), word(v_text), 1)
        ok = report.preserved or (not report.preconditions_hold)
        failures += not ok
        status = "PASS" if ok else "FAIL"
        if args.format == "machine":
            print(machine_line(
                command="verify", suite="occ-preserve", morphism=spec, u=u_text,
                v=v_text, preconditions=report.preconditions_hold,
                before=report.count_before, after=report.count_after, status=status,
            ))
        else:
            pre = "hold" if report.preconditions_hold else "FAIL"
            print(f"{status} ({spec}, {u_text}, {v_text}): preconditions {pre}, "
                  f"occ {report.count_before} vs {report.count_after}")
    return 1 if failures else 0


# -- parser -------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphlab",
        description="Word morphisms: interference-freeness, recognizability, "
        "occurrence preservation and repeat structure.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("human", "machine"), default="human")
        return p

    p = add("check-if", _cmd_check_if,
            help="decide interference-freeness on a word, or on every word")
    p.add_argument("--morphism", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--word")
    which.add_argument("--every-word", action="store_true",
                       help="report the shortest, then smallest word that is not IF")

    p = add("check-recognizable", _cmd_check_recognizable,
            help="decide recognizability via circular factorizations")
    p.add_argument("--morphism", required=True)
    p.add_argument("--word", required=True)

    p = add("apply", _cmd_apply, help="apply (or iterate) a morphism to a word")
    p.add_argument("--morphism", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--iterations", type=int, default=1)

    p = add("occ", _cmd_occ, help="list occurrences of a pattern in a text")
    p.add_argument("--pattern", required=True)
    p.add_argument("--text", required=True)

    p = add("mus", _cmd_mus, help="minimal unique substrings of a word")
    p.add_argument("--text", required=True)

    p = add("netocc", _cmd_netocc, help="net occurrences of a word")
    p.add_argument("--text", required=True)

    p = add("gen", _cmd_gen, help="generate classic words / list named morphisms")
    p.add_argument("--family", choices=("fibonacci", "thue-morse"))
    p.add_argument("--order", type=int)
    p.add_argument("--list-morphisms", action="store_true")

    p = add("verify", _cmd_verify, help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=("fibonacci-mus", "tm-mus", "occ-preserve", "no-closed-form"))
    p.add_argument("--max-order", type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (MorphlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
