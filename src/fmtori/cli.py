"""Command line front door.

One subcommand per construction: validate, dual, kl, amu, partners,
ppav-check, audit, search-n, regress.  Every subcommand takes --json PATH to
write a machine report next to the human summary; reports are rendered with
one canonical serializer so repeated runs are byte-identical.

Exit codes: 0 all checks passed, 1 a check failed, 2 the input was invalid.
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance, oracles
from .corpus import (
    CorpusFormatError,
    load_json_file,
    matrix_to_json,
    product_class_from_json,
    render_json,
    subgroup_from_json,
    variety_from_json,
    variety_to_json,
)
from .lattices import FiniteGroupStructure
from .matrices import Mat, snf
from .partners import (
    enumerate_partners,
    find_isomorphism_certificate,
    fingerprint,
    ppav_rigidity_check,
)
from .product_audit import audit_equivalence, search_kernel_class
from .slopes import parse_slope_literal, projection_invariants, reduce_slope, slope_kernel, slope_subvariety
from .varieties import (
    PreconditionError,
    _excerpt,
    coefficients_in_basis,
    dual,
    validate,
)

_ORACLE_POINT_CAP = 200_000


class InputError(Exception):
    """Anything wrong with what the user handed us; maps to exit code 2."""


def _fmt_mat(m: Mat) -> str:
    return "[" + " ".join("[" + " ".join(map(str, row)) + "]" for row in m.data) + "]"


def _parse_file(path, parse, *args):
    """parse(the JSON object in path, *args); a format error names the file,
    as load_json_file does for a syntax error."""
    d = load_json_file(path)
    try:
        return parse(d, *args)
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


def _load_variety(path):
    a = _parse_file(path, variety_from_json)
    report = validate(a)
    if not report.ok:
        raise InputError(f"{path}: invalid variety: {'; '.join(report.failures)}")
    return a


def _parse_literal(a, text: str):
    try:
        return parse_slope_literal(a, text)
    except ValueError as exc:
        raise InputError(f"bad slope literal {_excerpt(text)}: {exc}") from exc


def _divisor_text(divisors) -> str:
    return ",".join(str(d) for d in divisors) if divisors else "none"


# each command returns (exit_code, human_lines, json_payload)


def _cmd_validate(args):
    # the one command that reads its file raw: reporting failures is its job
    a = _parse_file(args.variety, variety_from_json)
    report = validate(a)
    payload = {"command": "validate", "name": a.name, "ok": report.ok,
               "failures": list(report.failures)}
    if report.ok:
        return 0, ["valid"], payload
    return 1, [f"invalid: {f}" for f in report.failures], payload


def _cmd_dual(args):
    a = _load_variety(args.variety)
    d = dual(a)
    lines = [
        f"dual of {a.name}: g={d.g}, ns rank {len(d.ns_basis)}",
        f"complex structure {_fmt_mat(d.j)}",
        f"polarization coefficients ({', '.join(str(c) for c in d.polarization)})",
    ]
    return 0, lines, variety_to_json(d)


def _cmd_kl(args):
    a = _load_variety(args.variety)
    cls, denom = _parse_literal(a, getattr(args, "class"))
    if denom != 1:
        raise InputError("kl takes an integral class; slopes belong to amu")
    # K(e) is isomorphic to Z^n / eZ^n: the Smith form of e is its
    # structure, and a zero invariant factor leaves the kernel infinite
    diag = snf(cls.e)
    if 0 in diag:
        raise InputError("class has no finite kernel: kernel of a degenerate class is not finite")
    kern = FiniteGroupStructure.from_diagonal(diag)
    oracle_checked = False
    if kern.exponent ** a.dim <= _ORACLE_POINT_CAP:
        pts = oracles.kernel_points_of_class(cls.e, kern.exponent)
        if len(pts) != kern.order:
            raise AssertionError("normal form and enumeration disagree on the kernel")
        oracle_checked = True
    payload = {"command": "kl", "class": getattr(args, "class"),
               "order": kern.order, "divisors": list(kern.divisors),
               "oracle_checked": oracle_checked}
    line = f"elementary divisors: {_divisor_text(kern.divisors)}; order {kern.order}"
    return 0, [line], payload


def _cmd_amu(args):
    a = _load_variety(args.variety)
    numerator, denom = _parse_literal(a, args.slope)
    mu = reduce_slope(numerator, denom)
    lines = []
    if mu.l != denom or mu.numerator.e != numerator.e:
        lines.append(f"slope reduced to denominator {mu.l}")
    sv = slope_subvariety(mu)
    kern = slope_kernel(mu)
    inv = projection_invariants(mu)
    sub = sv.variety
    lines += [
        f"kernel of A -> A_mu: order {kern.order}, divisors {_divisor_text(kern.divisors)}",
        f"projection degree {inv.degree}, bundle rank {inv.rank}, stabilizer order {inv.stabilizer.order}",
        f"subtorus: g={sub.g}, ns rank {len(sub.ns_basis)}, "
        f"polarization coefficients ({', '.join(str(c) for c in sub.polarization)})",
    ]
    payload = {
        "command": "amu",
        "slope": {"literal": args.slope, "numerator": matrix_to_json(mu.numerator.e),
                  "denominator": mu.l},
        "kernel": {"order": kern.order, "divisors": list(kern.divisors)},
        "projection_degree": inv.degree,
        "rank": inv.rank,
        "stabilizer_divisors": list(inv.stabilizer.divisors),
        "subtorus": variety_to_json(sub),
    }
    return 0, lines, payload


def _cmd_partners(args):
    if args.search_bound < 0:
        raise InputError("search bound must be nonnegative (0 skips the search)")
    a = _load_variety(args.variety)
    entries = enumerate_partners(a, args.coeff_bound, args.denom_bound)
    # a partner of another NS rank has another profile bound, and its
    # fingerprint differs from this one in ns_rank already
    source_print = fingerprint(a)
    # a certificate search reads only the two complex structures, so it runs
    # once per partner J: J -> (state, certificate matrix or None)
    searches = {}
    rows = []
    lines = []
    for entry in entries:
        rec = entry.record
        fp = entry.partner_fingerprint
        cert_state, cert = "skipped", None
        if args.search_bound > 0:
            j = rec.partner.j
            if j not in searches:
                try:
                    found = find_isomorphism_certificate(a, rec.partner, bound=args.search_bound)
                except PreconditionError as exc:
                    searches[j] = (f"search too large ({exc})", None)
                else:
                    searches[j] = ("not found", None) if found is None else ("found", found.m)
            cert_state, cert = searches[j]
        matches = fp == source_print
        coeffs = ",".join(str(c) for c in entry.coefficients)
        lines.append(
            f"slope ({coeffs})/{entry.denominator}: partner g={rec.partner.g}, "
            f"fingerprint {'matches source' if matches else 'differs'}, "
            f"source certificate {cert_state}"
        )
        rows.append({
            "coefficients": list(entry.coefficients),
            "denominator": entry.denominator,
            "fingerprint": {"g": fp.g, "ns_rank": fp.ns_rank,
                            "profile_bound": fp.profile_bound,
                            "profiles": [list(p) for p in fp.profiles]},
            "fingerprint_matches_source": matches,
            "dual_certificate": matrix_to_json(rec.dual_certificate.m),
            "source_certificate": matrix_to_json(cert) if cert is not None else None,
        })
    lines.append(f"{len(rows)} partner presentations")
    payload = {"command": "partners", "name": a.name,
               "coeff_bound": args.coeff_bound, "denom_bound": args.denom_bound,
               "search_bound": args.search_bound, "entries": rows}
    return 0, lines, payload


def _cmd_ppav_check(args):
    a = _load_variety(args.variety)
    check = ppav_rigidity_check(a, args.n, args.l)
    payload = {"command": "ppav-check", "name": a.name, "n": args.n, "l": args.l,
               "ok": check.ok, "kernel_order": check.kernel.order,
               "certificate": matrix_to_json(check.certificate.m)}
    if check.ok:
        return 0, ["rigid: kernel trivial, quotient certificate unimodular"], payload
    return 1, [f"not rigid: kernel order {check.kernel.order}"], payload


def _cmd_audit(args):
    a = _load_variety(args.a)
    b = _load_variety(args.b)
    pc = _parse_file(getattr(args, "class"), product_class_from_json, a, b)
    report = audit_equivalence(pc, args.l)
    lines = []
    for item in report.items:
        lines.append(f"{item.name}: {'pass' if item.passed else 'FAIL'}")
    lines.append("all checks passed" if report.all_pass else "audit failed")
    payload = {
        "command": "audit", "a": a.name, "b": b.name, "class": pc.name, "l": args.l,
        "all_pass": report.all_pass,
        "items": [{"name": it.name, "passed": it.passed,
                   "expected": it.expected, "actual": it.actual}
                  for it in report.items],
    }
    return (0 if report.all_pass else 1), lines, payload


def _cmd_search_n(args):
    v = _load_variety(args.variety)
    target = _parse_file(args.target, subgroup_from_json, v)
    found = search_kernel_class(v, args.l, target, args.bound)
    if found is None:
        payload = {"command": "search-n", "name": v.name, "l": args.l,
                   "bound": args.bound, "found": None}
        return 1, [f"not found at bound {args.bound}"], payload
    coeffs = coefficients_in_basis(found.e, v.ns_basis)
    payload = {"command": "search-n", "name": v.name, "l": args.l,
               "bound": args.bound, "found": list(coeffs),
               "matrix": matrix_to_json(found.e)}
    line = f"N = ({', '.join(str(c) for c in coeffs)}) in the ns basis"
    return 0, [line, f"class matrix {_fmt_mat(found.e)}"], payload


def _cmd_regress(args):
    report = acceptance.run_all()
    lines = []
    for crit in report["criteria"]:
        lines.append(f"{crit['name']}: {'pass' if crit['ok'] else 'FAIL'}")
    lines.append("all criteria passed" if report["ok"] else "regression failed")
    return (0 if report["ok"] else 1), lines, report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmtori",
        description="Fourier-Mukai partners of abelian varieties, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--json", metavar="PATH", help="write a JSON report here")
        return p

    p = add("validate", _cmd_validate, "structural checks on a variety file")
    p.add_argument("variety")

    p = add("dual", _cmd_dual, "dual variety presentation")
    p.add_argument("variety")

    p = add("kl", _cmd_kl, "kernel and elementary divisors of a class")
    p.add_argument("variety")
    p.add_argument("--class", required=True, help='class literal, e.g. "2*E0"')

    p = add("amu", _cmd_amu, "the subtorus attached to a slope")
    p.add_argument("variety")
    p.add_argument("--slope", required=True, help='slope literal, e.g. "1*E0/2"')

    p = add("partners", _cmd_partners, "enumerate partner presentations")
    p.add_argument("variety")
    p.add_argument("--coeff-bound", type=int, required=True)
    p.add_argument("--denom-bound", type=int, required=True)
    p.add_argument("--search-bound", type=int, default=3,
                   help="bound for source-vs-partner certificates; 0 skips")

    p = add("ppav-check", _cmd_ppav_check, "rigidity of principal slopes")
    p.add_argument("variety")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = add("audit", _cmd_audit, "equivalence audit of a product class")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--class", required=True, metavar="FILE")
    p.add_argument("--l", type=int, required=True)

    p = add("search-n", _cmd_search_n, "search for a class with prescribed kernel")
    p.add_argument("variety")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--target", required=True, metavar="FILE")
    p.add_argument("--bound", type=int, required=True)

    add("regress", _cmd_regress, "run the acceptance gate on the shipped corpus")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the one place where invalid input becomes exit code 2; an OSError
    # names its file, and a malformed input file is named by _parse_file
    try:
        code, lines, payload = args.fn(args)
        for line in lines:
            print(line)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(render_json(payload))
    except (InputError, OSError, CorpusFormatError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
