"""Command line interface: grpinv <ic|sigma|sigmac|lattice|embeds|verify>.

Results go to stdout (text or one JSON document per invocation), errors to
stderr.  Exit codes: 0 success, 1 parse/usage error or failed internal
re-check, 2 budget or order-limit exhaustion, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter

from . import __version__
from .corpus import SUITE_NAMES, run_suites
from .cover import DEFAULT_NODE_BUDGET
from .errors import BudgetExceeded, GrpinvError, InvalidSpec, OrderLimitExceeded, ParseError
from .groups import (
    DEFAULT_MAX_ORDER,
    HARD_MAX_ORDER,
    Cyclic,
    Dihedral,
    GeneralizedQuaternion,
    GroupSpec,
    PermGroup,
    Product,
    SemidirectPQ,
    build,
    spec_text,
    validate_spec,
)
from .invariants import InvariantReport, ic, sigma, sigma_c
from .iso import embeds
from .lattice import all_subgroups, cyclic_subgroups, maximal_cyclic_subgroups


# ---------------------------------------------------------------------------
# Spec grammar
#   atom := "C"int | "D"int | "Q"int | "SD("int","int")" | "Perm["cycles(";"cycles)*"]"
#   expr := atom (("x"|"*") atom)*      atom"^"int repeats the atom
# ---------------------------------------------------------------------------

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # a digit int() rejects, such as '²', or too many digits
            raise ParseError("malformed integer", start) from None


def _parse_cycles(raw: str, base: int) -> tuple[tuple[int, ...], ...]:
    cycles = []
    pos = 0
    while pos < len(raw):
        ch = raw[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise ParseError("expected '(' in cycle notation", base + pos)
        end = raw.find(")", pos)
        if end < 0:
            raise ParseError("unclosed cycle", base + pos)
        body = raw[pos + 1 : end].replace(",", " ").split()
        if not body:
            cycles.append(())
        else:
            try:
                cycles.append(tuple(int(p) for p in body))
            except ValueError:
                raise ParseError("cycle points must be integers", base + pos) from None
        pos = end + 1
    return tuple(c for c in cycles if len(c) > 1)


def _parse_atom(s: _Scanner) -> GroupSpec:
    s.skip_ws()
    start = s.pos
    if s.take("SD"):
        if not s.take("("):
            raise ParseError("expected '(' after SD", s.pos)
        q = s.integer()
        if not s.take(","):
            raise ParseError("expected ',' in SD(q,p)", s.pos)
        p = s.integer()
        if not s.take(")"):
            raise ParseError("expected ')' in SD(q,p)", s.pos)
        return SemidirectPQ(q, p)
    if s.take("Perm["):
        end = s.text.find("]", s.pos)
        if end < 0:
            raise ParseError("unclosed Perm[...]", start)
        gens = []
        base = s.pos  # each ';'-separated part reports offsets from its own start
        for part in s.text[base:end].split(";"):
            if part.strip():
                gens.append(_parse_cycles(part, base))
            base += len(part) + 1
        s.pos = end + 1
        return PermGroup(tuple(gens))
    if s.take("C"):
        return Cyclic(s.integer())
    if s.take("D"):
        return Dihedral(s.integer())
    if s.take("Q"):
        return GeneralizedQuaternion(s.integer())
    raise ParseError("expected a group atom (C, D, Q, SD, Perm)", start)


def _parse_repeated(s: _Scanner) -> tuple[GroupSpec, int]:
    atom = _parse_atom(s)
    s.skip_ws()
    if not s.take("^"):
        return atom, 1
    s.skip_ws()
    start = s.pos
    e = s.integer()
    if e < 1:
        raise ParseError("power exponent must be >= 1", start)
    return atom, e


def parse_spec(text: str) -> GroupSpec:
    """Parse a spec string.  A product comes out as one flat Product of its
    factors (the ^ sugar expands to repeated factors), and a single factor as
    the atom itself, matching normalize_spec's canonical form.  A product of
    more than HARD_MAX_ORDER factors is refused before it expands."""
    s = _Scanner(text)
    factors: list[GroupSpec] = []
    while True:
        atom, count = _parse_repeated(s)
        if len(factors) + count > HARD_MAX_ORDER:
            raise OrderLimitExceeded(f"more than {HARD_MAX_ORDER} factors in one product (the max order)")
        factors.extend([atom] * count)
        s.skip_ws()
        if not (s.take("x") or s.take("*")):
            break
    s.skip_ws()
    if s.pos != len(s.text):
        raise ParseError("trailing input", s.pos)
    spec = factors[0] if len(factors) == 1 else Product(tuple(factors))
    validate_spec(spec)
    return spec


# ---------------------------------------------------------------------------
# Output documents
# ---------------------------------------------------------------------------

def _value_json(report: InvariantReport) -> dict:
    if report.value.is_finite:
        return {"finite": report.value.value}
    doc: dict = {"infinite": True}
    if report.infiniteness_reason:
        doc["reason"] = report.infiniteness_reason
    if report.missing_order is not None:
        doc["missing_order"] = report.missing_order
    return doc


def _value_text(report: InvariantReport) -> str:
    if report.value.is_finite:
        return str(report.value.value)
    if report.infiniteness_reason == "G_cyclic":
        return "infinite (cyclic group)"
    return f"infinite (spectrum gap: order {report.missing_order})"


def _certificate_json(report: InvariantReport) -> list[dict]:
    out = []
    for e in report.certificate:
        entry = {"order": e.subgroup.order, "elements": list(e.subgroup.members)}
        if e.embedding is not None:
            entry["image"] = list(e.embedding)
        out.append(entry)
    return out


def _emit(doc: dict) -> None:
    print(json.dumps(doc))


def _base_doc(kind: str, operands: list[str], started: float, max_order: int) -> dict:
    return {
        "kind": kind,
        "operands": operands,
        "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        "engine": f"grpinv {__version__}",
        "max_order": max_order,
    }


def _cmd_invariant(args) -> int:
    started = time.perf_counter()
    specs = [parse_spec(t) for t in args.spec]
    groups = [build(s, max_order=args.max_order) for s in specs]
    if args.command == "ic":
        report = ic(groups[0], groups[1], node_budget=args.budget)
    elif args.command == "sigma":
        report = sigma(groups[0], node_budget=args.budget)
    else:
        report = sigma_c(groups[0], node_budget=args.budget)
    if args.json:
        doc = _base_doc(args.command, [spec_text(s) for s in specs], started, args.max_order)
        doc["value"] = _value_json(report)
        if args.certificate and report.certificate is not None:
            doc["certificate"] = _certificate_json(report)
        _emit(doc)
    else:
        print(_value_text(report))
        if args.certificate and report.certificate is not None:
            print("certificate:")
            for e in report.certificate:
                line = f"  order {e.subgroup.order}: {' '.join(map(str, e.subgroup.members))}"
                if e.embedding is not None:
                    line += f" -> {' '.join(map(str, e.embedding))}"
                print(line)
    return 0


def _cmd_lattice(args) -> int:
    started = time.perf_counter()
    spec = parse_spec(args.spec)
    g = build(spec, max_order=args.max_order)
    if args.cyclic and args.maximal:
        subs = maximal_cyclic_subgroups(g)
    elif args.cyclic:
        subs = cyclic_subgroups(g)
    elif args.maximal:
        subs = list(all_subgroups(g).maximal_subgroups)
    else:
        subs = list(all_subgroups(g).all)
    if args.json:
        doc = _base_doc("lattice", [spec_text(spec)], started, args.max_order)
        doc["subgroups"] = [
            {"order": s.order, "elements": list(s.members)} for s in subs
        ]
        _emit(doc)
    else:
        for s in subs:
            print(f"{s.order}: {' '.join(map(str, s.members))}")
    return 0


def _cmd_embeds(args) -> int:
    started = time.perf_counter()
    kspec, hspec = parse_spec(args.spec[0]), parse_spec(args.spec[1])
    k = build(kspec, max_order=args.max_order)
    h = build(hspec, max_order=args.max_order)
    witness = embeds(k, h)
    if args.json:
        doc = _base_doc("embeds", [spec_text(kspec), spec_text(hspec)], started, args.max_order)
        doc["embeds"] = witness is not None
        if args.certificate:
            doc["witness"] = list(witness) if witness is not None else None
        _emit(doc)
    else:
        print("yes" if witness is not None else "no")
        if args.certificate and witness is not None:
            print("witness: " + " ".join(map(str, witness)))
    return 0


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    names = list(dict.fromkeys(n.strip() for n in args.suite.split(","))) if args.suite else None
    if names:
        for n in names:
            if n not in SUITE_NAMES:
                print(f"error: unknown suite {n!r}", file=sys.stderr)
                return 1
    report = run_suites(names, max_order=args.max_order, node_budget=args.budget)
    # every suite that ran, also one that made no checks at this bound
    by_suite: dict[str, list] = {suite: [] for suite in names or SUITE_NAMES}
    for r in report.results:
        by_suite[r.suite].append(r)
    counts = {suite: Counter(r.status for r in rs) for suite, rs in by_suite.items()}
    if args.json:
        doc = _base_doc("verify", names or list(SUITE_NAMES), started, args.max_order or 0)
        doc["suites"] = {
            suite: {
                "checks": len(rs),
                "pass": counts[suite]["pass"],
                "fail": [{"name": r.name, "detail": r.detail} for r in rs if r.status == "fail"],
                "flag": [{"name": r.name, "detail": r.detail} for r in rs if r.status == "flag"],
                "skip": [{"name": r.name, "detail": r.detail} for r in rs if r.status == "skip"],
            }
            for suite, rs in by_suite.items()
        }
        doc["certificates"] = {
            "checked": report.certificates_checked,
            "failures": report.certificate_failures,
        }
        _emit(doc)
    else:
        for suite, rs in by_suite.items():
            if suite == "examples":
                for r in rs:
                    mark = r.status.upper()
                    extra = f"  [{r.detail}]" if r.detail and r.status != "pass" else ""
                    print(f"{mark} {r.name} ({r.elapsed:.2f}s){extra}")
            else:
                for r in rs:
                    if r.status != "pass":
                        extra = f"  [{r.detail}]" if r.detail else ""
                        print(f"{r.status.upper()} {r.name}{extra}")
            tally = counts[suite]
            shown = ", ".join(
                f"{tally[k]} {k}" for k in ("pass", "fail", "flag", "skip") if tally[k]
            )
            print(f"suite {suite}: {len(rs)} checks" + (f" ({shown})" if shown else ""))
        if report.certificate_failures:
            for f in report.certificate_failures:
                print(f"FAIL certificate: {f}")
        print(
            f"certificates: {report.certificates_checked} validated, "
            f"{len(report.certificate_failures)} unsound"
        )
    if report.failed or report.certificate_failures:
        return 3
    if report.skipped:
        return 2
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(p, n_specs: int):
    p.add_argument("spec", nargs=n_specs)
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    p.add_argument("--certificate", action="store_true", help="include the certificate")
    p.add_argument("--max-order", type=_positive_int, default=DEFAULT_MAX_ORDER)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="grpinv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("ic", "sigma", "sigmac"):
        p = sub.add_parser(cmd)
        _add_common(p, 2 if cmd == "ic" else 1)
        p.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET,
                       help="solver node budget")
    p = sub.add_parser("lattice")
    p.add_argument("spec")
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-order", type=_positive_int, default=DEFAULT_MAX_ORDER)
    p = sub.add_parser("embeds")
    _add_common(p, 2)
    p = sub.add_parser("verify")
    p.add_argument("--suite", default="", help="comma-separated suite names")
    p.add_argument("--max-order", type=_positive_int, default=None)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    max_order = getattr(args, "max_order", None)
    if max_order is not None and max_order > HARD_MAX_ORDER:
        print(f"usage error: --max-order is capped at {HARD_MAX_ORDER}", file=sys.stderr)
        return 1
    try:
        if args.command in ("ic", "sigma", "sigmac"):
            return _cmd_invariant(args)
        if args.command == "lattice":
            return _cmd_lattice(args)
        if args.command == "embeds":
            return _cmd_embeds(args)
        return _cmd_verify(args)
    except (ParseError, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceeded, OrderLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GrpinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
