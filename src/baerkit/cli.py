"""Command line front end.

Four commands: analyze a presentation file, compute the defect of one
cyclic subgroup, verify the worked example families, and run the full
theorem suite over a corpus.  Reports go to stdout as text or JSON;
diagnostics go to stderr.  Exit codes: 0 success, 1 input error,
2 enumeration resource limit, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import GroupError
from .coset import DEFAULT_MAX_COSETS, EnumerationLimitError
from .presentation import PresentationError, WordLimitError, parse_word
from .subnormal import classify, cyclic_defect
from .verify import (
    DEFAULT_EXHAUSTIVE_THRESHOLD,
    build_group,
    parse_corpus_text,
    run_example_checks,
    run_full_suite,
    suite_config,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_LIMIT = 2
EXIT_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code
    instead of argparse's default of 2, which is reserved for resource
    limits here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _primes_arg(text: str) -> tuple[int, ...]:
    parts = [t.strip() for t in text.split(",") if t.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    try:
        return tuple(int(t) for t in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of integers")


def _make_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    common.add_argument("--max-cosets", type=_positive,
                        default=DEFAULT_MAX_COSETS, metavar="N",
                        help="coset enumeration ceiling")
    common.add_argument("--max-steps", type=_positive, default=None,
                        metavar="N",
                        help="steps (letters scanned and cosets defined) "
                             "one enumeration may take (default: unbounded)")
    common.add_argument("--exhaustive-threshold", type=_positive,
                        default=DEFAULT_EXHAUSTIVE_THRESHOLD, metavar="N",
                        help="largest group order checked element by element "
                             "by cyclic-closure-class, and most generator "
                             "tuples per d checked by generated-subgroup-class; "
                             "larger inputs are sampled")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks (default: 0)")

    parser = _Parser(prog="baerkit",
                     description="Finite group engine for 2-subnormality "
                                 "analysis and theorem verification.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("analyze", parents=[common],
                       help="classify the group presented in a file")
    p.add_argument("path", help="presentation file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("defect", parents=[common],
                       help="defect of the cyclic subgroup one word generates")
    p.add_argument("path", help="presentation file")
    p.add_argument("word", help="word in the presentation's generators")
    p.add_argument("--n", type=_positive, default=2, metavar="N",
                   help="subnormality degree to test (default: 2)")
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("verify-examples", parents=[common],
                       help="check the worked example families")
    p.add_argument("--primes", type=_primes_arg, default=(2, 3, 5),
                   metavar="P,P,...",
                   help="primes for the class-3 family (default: 2,3,5)")
    p.set_defaults(func=cmd_verify_examples)

    p = sub.add_parser("check-theorems", parents=[common],
                       help="run every structural check over a corpus")
    p.add_argument("--corpus", metavar="PATH",
                   help="corpus file of 'name | presentation' lines "
                        "(default: built-in corpus)")
    p.set_defaults(func=cmd_check_theorems)

    return parser


def _config_dict(args) -> dict:
    return suite_config(args.seed, args.max_cosets, args.exhaustive_threshold)


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _build_from_file(path: str, args):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return build_group(text, os.path.basename(path), args.max_cosets,
                       args.max_steps)


def cmd_analyze(args) -> int:
    group = _build_from_file(args.path, args)
    report = classify(group)
    d = report.to_json_dict()
    if args.format == "json":
        _print_json({"config": _config_dict(args),
                     "group": {"name": group.meta["name"], **d}})
    else:
        print(f"order={d['order']} class={d['class']} "
              f"derived_length={d['derived_length']} |T2|={d['t2_order']} "
              f"classification={d['classification']}")
    return EXIT_OK


def cmd_defect(args) -> int:
    group = _build_from_file(args.path, args)
    w = parse_word(args.word, group.gen_names, args.max_cosets)
    e = group.word_to_element(w)
    res = cyclic_defect(group, e)
    ok = res.within(args.n)
    if args.format == "json":
        _print_json({
            "config": _config_dict(args),
            "defect": {
                "word": args.word,
                "defect": res.defect,
                "n": args.n,
                "n_subnormal": ok,
            },
        })
    else:
        verdict = f"{args.n}-subnormal" if ok else f"not {args.n}-subnormal"
        print(f"{res}; {args.word} is {verdict}")
    return EXIT_OK


def _render_suite_text(report: dict) -> str:
    cfg = report["config"]
    limits = cfg["limits"]
    lines = [
        f"seed={cfg['seed']} max_cosets={limits['max_cosets']} "
        f"exhaustive_threshold={limits['exhaustive_threshold']}"
    ]
    npass = nfail = nskip = 0
    for rep in report["reports"]:
        g = rep["group"]
        lines.append("")
        lines.append(f"{g['name']}: order={g['order']} class={g['class']} "
                     f"derived_length={g['derived_length']} "
                     f"|T2|={g['t2_order']} "
                     f"classification={g['classification']}")
        width = max((len(c["id"]) for c in rep["checks"]), default=0) + 2
        for c in rep["checks"]:
            status = c["status"]
            if status == "pass":
                npass += 1
            elif status == "fail":
                nfail += 1
            else:
                nskip += 1
            if status == "skipped":
                note = c["details"].get("reason", "")
            elif status == "fail":
                note = c.get("witness") or "; ".join(
                    c["details"].get("failures", ()))
            else:
                note = ""
            lines.append(f"  {c['id']:<{width}}{status:<9}{note}".rstrip())
    lines.append("")
    lines.append(f"checks: {npass} passed, {nfail} failed, {nskip} skipped")
    return "\n".join(lines) + "\n"


def _print_suite(report: dict, args) -> int:
    """Write a suite report in args.format; exit 3 if any check failed."""
    if args.format == "json":
        _print_json(report)
    else:
        sys.stdout.write(_render_suite_text(report))
    failed = any(check["status"] == "fail"
                 for rep in report["reports"] for check in rep["checks"])
    return EXIT_FAILED if failed else EXIT_OK


def cmd_verify_examples(args) -> int:
    report = run_example_checks(
        args.primes, seed=args.seed, max_cosets=args.max_cosets,
        exhaustive_threshold=args.exhaustive_threshold,
        max_steps=args.max_steps)
    return _print_suite(report, args)


def cmd_check_theorems(args) -> int:
    corpus = None
    if args.corpus is not None:
        with open(args.corpus, encoding="utf-8") as fh:
            corpus = parse_corpus_text(fh.read(), source=args.corpus,
                                       max_cosets=args.max_cosets)
    report = run_full_suite(
        corpus, seed=args.seed, max_cosets=args.max_cosets,
        exhaustive_threshold=args.exhaustive_threshold,
        max_steps=args.max_steps)
    return _print_suite(report, args)


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EnumerationLimitError, WordLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (PresentationError, GroupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
