"""Structured, versioned reports for the command-line interface.

A report has a human-readable header plus a machine-parsable JSON section.
The JSON section embeds the full input source, the options, and every
certificate, so a verify pass can re-run the command from the report alone
and must reproduce the claims bit-for-bit.  Rational values are serialized
as numerator/denominator decimal strings, never floats.  The timestamp
lives only in the human header: machine sections of identical runs are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import random
from datetime import datetime, timezone
from fractions import Fraction

from .algebra import CPolynomial, GaussianRational, Order
from .curve import CurveJet, contact_order, laplacian_power, pullback
from .expr import (
    ExprSyntaxError,
    format_curve,
    format_polynomial,
    parse_curve,
    parse_problem,
)
from .fdb import (
    expansion_table,
    laplacian_power_forms,
    random_real_polynomial,
)
from .germ import (
    DefiningFunction,
    GraphForm,
    germ_ps_check,
    gram_certificate,
    normalize_to_graph,
    ps_search,
    validate,
)
from .search import SearchBudget, random_curves
from .typecalc import (
    Evidence,
    desingularize,
    infer_type,
    reg_type,
    sing_type_search,
)

TOOL_VERSION = "1.0.0"
REPORT_FORMAT = "contactps-report/1"


class InputError(ValueError):
    """A problem with user-supplied input; maps to exit code 2."""


class ReportMismatchError(RuntimeError):
    """verify-report recomputation disagreed with the stored claims."""


# ---------------------------------------------------------------------------
# Exact serialization


def _fr(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _gr(c: GaussianRational) -> dict:
    return {"re": _fr(c.re), "im": _fr(c.im)}


def _order(o: Order) -> dict:
    return {"kind": o.kind, "value": o.value}


def _budget(b: SearchBudget) -> dict:
    return {
        "max_multiplicity": b.max_multiplicity,
        "max_degree": b.max_degree,
        "coeff_height": b.coeff_height,
        "random_trials": b.random_trials,
        "seed": b.seed,
    }


def _claim(c) -> dict:
    out = {"kind": c.kind}
    if c.value is not None:
        out["value"] = _fr(Fraction(c.value))
    if c.witness is not None:
        out["witness"] = format_curve(c.witness)
    if c.transcript:
        out["transcript"] = list(c.transcript)
    return out


# ---------------------------------------------------------------------------
# Input handling


def _load_problem(source: str):
    try:
        problem = parse_problem(source)
    except ExprSyntaxError as exc:
        raise InputError(str(exc)) from exc
    return problem


def _graph_form(entry: CPolynomial, floor: int) -> GraphForm:
    """Accept either a full defining function (with a linear part) or a
    mixed-only positivity candidate already in the z_n = 0 frame; the frame
    is mixed-only through K = max(floor, deg entry)."""
    K = max(floor, entry.total_degree())
    if not entry.homogeneous_slice(1).is_zero():
        try:
            return normalize_to_graph(validate(entry), K)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if not entry.is_real_valued():
        raise InputError("function must be real-valued")
    pure, _mixed = entry.pure_mixed_split()
    if not pure.is_zero():
        raise InputError(
            "function must either have a linear part or be mixed-only"
        )
    m = entry.nvars
    lift = tuple(CPolynomial.variable(m, i) for i in range(m)) + (CPolynomial.zero(m),)
    return GraphForm(entry, K, lift)


def _defining_function(entry: CPolynomial) -> DefiningFunction:
    try:
        return validate(entry)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_curve_arg(text: str, nvars: int | None = None) -> CurveJet:
    try:
        return parse_curve(text, nvars)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _curve_for_entry(text: str, entry: CPolynomial) -> CurveJet:
    """A --curve argument may match the entry's variables exactly or carry
    one extra identically-zero last component (the graph coordinate)."""
    z = _parse_curve_arg(text)
    if z.nvars == entry.nvars:
        return z
    if z.nvars == entry.nvars + 1 and z.components[-1].is_zero():
        return CurveJet(z.components[:-1])
    raise InputError(
        f"curve has {z.nvars} components, function has {entry.nvars} variables"
    )


# ---------------------------------------------------------------------------
# Command execution: each command maps (source, options) -> (claims, exit code).
# `report --all` runs each stage once and reuses the commands' section builders.


def _order_section(entry: CPolynomial) -> dict:
    return {
        "expression": format_polynomial(entry),
        "order": _order(entry.order_of_vanishing()),
    }


def _cmd_order(source, options):
    return _order_section(_load_problem(source).entry), 0


def _cmd_pullback(source, options):
    problem = _load_problem(source)
    z = _curve_for_entry(options["curve"], problem.entry)
    u = pullback(problem.entry, z)
    return {
        "curve": format_curve(z),
        "pullback": format_polynomial(u, "t"),
        "order": _order(u.order_of_vanishing()),
    }, 0


def _cmd_contact(source, options):
    problem = _load_problem(source)
    z = _curve_for_entry(options["curve"], problem.entry)
    order, ratio = contact_order(problem.entry, z)
    claims = {
        "curve": format_curve(z),
        "multiplicity": z.multiplicity(),
        "pullback_order": _order(order),
    }
    if order.kind == "zero":
        claims["contact"] = "infinite"
        claims["certificate"] = "pullback is identically zero (exact)"
    elif ratio is not None:
        claims["contact"] = _fr(ratio)
    return claims, 0


def _make_budget(options) -> SearchBudget:
    try:
        return SearchBudget(
            max_multiplicity=options.get("max_mult", 4),
            max_degree=options.get("max_deg", 6),
            coeff_height=options.get("coeff_height", 2),
            random_trials=options.get("trials", 200),
            seed=options.get("seed", 0),
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _type_cap(options) -> int:
    """The --max cap of the regular-type search.  Every regular type is at
    least 2, so a smaller cap bounds nothing and is an input error."""
    N = options.get("max", 8)
    if N < 2:
        raise InputError(f"--max must be at least 2, got {N}")
    return N


def _cert_claims(cert) -> dict:
    out = {"verdict": cert.verdict, "method": cert.method}
    if cert.witness is not None:
        out["witness"] = format_curve(cert.witness)
        res = cert.witness_result
        if res is not None:
            out["witness_status"] = res.status
            out["witness_order"] = _order(res.order)
            if res.profile is not None and res.profile.ck is not None:
                out["balanced_coefficient"] = _fr(res.profile.ck)
    if cert.squares:
        out["squares"] = [
            {"weight": _fr(d), "f": format_polynomial(f)} for d, f in cert.squares
        ]
    if cert.indefinite_direction:
        out["indefinite_direction"] = [
            {"monomial": list(m), "value": _gr(v)}
            for m, v in cert.indefinite_direction
        ]
    if cert.bounds is not None:
        out["bounds"] = _budget(cert.bounds)
    return out


def _cert_section(gf: GraphForm, cert) -> dict:
    return {"g": format_polynomial(gf.g), "certificate": _cert_claims(cert)}


def _cmd_ps_check(source, options):
    gf = _graph_form(_load_problem(source).entry, 4)
    budget = _make_budget(options)
    gram = gram_certificate(gf.g)
    cert = gram if gram.verdict == "certified" else ps_search(gf.g, budget, gram)
    return _cert_section(gf, cert), 1 if cert.is_violation else 0


def _cmd_gram(source, options):
    gf = _graph_form(_load_problem(source).entry, 4)
    return _cert_section(gf, gram_certificate(gf.g)), 0


def _germ_ps(r: DefiningFunction, options):
    k_min = options.get("kmin", 2)
    k_max = options.get("kmax", max(k_min, r.r.total_degree()))
    budget = _make_budget(options)
    try:
        return germ_ps_check(r, k_min, k_max, budget)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _germ_ps_section(rep) -> tuple[dict, int]:
    claims = {
        "k_min": rep.k_min,
        "k_max": rep.k_max,
        "entries": [{"k": e.k, "certificate": _cert_claims(e.certificate)}
                    for e in rep.entries],
        "k0": rep.k0,
        "note": rep.note,
        "bounds": _budget(rep.bounds),
    }
    return claims, 1 if rep.k0 is None else 0


def _cmd_germ_ps(source, options):
    problem = _load_problem(source)
    return _germ_ps_section(_germ_ps(_defining_function(problem.entry), options))


def _reg_section(gf: GraphForm, claim) -> dict:
    return {"g": format_polynomial(gf.g), "reg_type": _claim(claim)}


def _cmd_reg_type(source, options):
    entry = _load_problem(source).entry
    N = _type_cap(options)
    gf = _graph_form(entry, N)
    return _reg_section(gf, reg_type(gf, N, gram_certificate(gf.g))), 0


def _sing_section(gf: GraphForm, res) -> dict:
    claims = {
        "g": format_polynomial(gf.g),
        "result": _claim(res.claim),
        "candidates_tested": res.candidates_tested,
        "budget": _budget(res.budget),
    }
    if res.witness is not None:
        claims["witness_in_original_frame"] = format_curve(gf.lift_curve(res.witness))
    return claims


def _cmd_sing_search(source, options):
    gf = _graph_form(_load_problem(source).entry, 8)
    return _sing_section(gf, sing_type_search(gf, _make_budget(options))), 0


def _cmd_desingularize(source, options):
    gf = _graph_form(_load_problem(source).entry, 8)
    z = _parse_curve_arg(options["curve"])
    try:
        res = desingularize(gf, z)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    t = res.transcript
    claims = {
        "eta": format_curve(res.eta),
        "transcript": {
            "multiplicity": t["multiplicity"],
            "contact": t["contact"],
            "leading_coefficients": [_gr(c) for c in t["leading_coefficients"]],
            "second_coefficients": [_gr(c) for c in t["second_coefficients"]],
            "transferred_coefficient": _gr(t["transferred_coefficient"]),
            "new_pullback_order": t["new_pullback_order"],
        },
    }
    return claims, 0


def _cmd_fdb_verify(source, options):
    k = options.get("k", 3)
    trials = options.get("trials", 20)
    seed = options.get("seed", 0)
    if k < 1:
        raise InputError(f"--k must be at least 1, got {k}")
    if trials < 1:
        raise InputError(f"--trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    matched = 0
    for _ in range(trials):
        nvars = rng.randint(1, 2)
        g = random_real_polynomial(rng, nvars, 6)
        budget = SearchBudget(max_multiplicity=4, max_degree=4,
                              random_trials=1, seed=rng.randrange(1 << 30))
        z = next(iter(random_curves(nvars, budget)))
        for kk in range(1, k + 1):
            lhs = laplacian_power_forms(g, z, kk)
            rhs = laplacian_power(pullback(g, z), kk)
            if lhs != rhs:
                raise ReportMismatchError(
                    f"partition expansion disagrees with the operator oracle "
                    f"for g={format_polynomial(g)}, z={format_curve(z)}, k={kk}"
                )
        matched += 1
    table = {
        f"{a},{b}": sum(
            t.count for t in expansion_table(3) if t.form_type == (a, b)
        )
        for (a, b) in ((1, 1), (1, 2), (2, 1), (2, 2))
    }
    return {
        "k": k,
        "trials": trials,
        "seed": seed,
        "matches": matched,
        "k3_form_type_multiplicities": table,
    }, 0


def _cmd_report_all(source, options):
    """Every analysis on one input, each stage run once.

    The gram, ps-check, reg-type and inference evidence use the frame
    K = max(--max, deg); the sing-search section is the one `sing-search`
    prints, on K = max(8, deg), so it takes a second graph form and search
    only when the two frames differ.
    """
    entry = _load_problem(source).entry
    N = _type_cap(options)
    gf = _graph_form(entry, N)
    budget = _make_budget(options)
    sections = {"order": _order_section(entry)}
    gram = gram_certificate(gf.g)
    sections["gram"] = _cert_section(gf, gram)
    cert = gram if gram.verdict == "certified" else ps_search(gf.g, budget, gram)
    sections["ps_check"] = _cert_section(gf, cert)
    worst = 1 if cert.is_violation else 0
    ps_evidence = None
    df = None
    if not entry.homogeneous_slice(1).is_zero():
        df = _defining_function(entry)
        ps_evidence = _germ_ps(df, options)
        sections["germ_ps"], code = _germ_ps_section(ps_evidence)
        worst = max(worst, code)
    elif cert.verdict == "certified":
        ps_evidence = cert
    reg_claim = reg_type(gf, N, gram)
    sections["reg_type"] = _reg_section(gf, reg_claim)
    sing_res = sing_type_search(gf, budget)
    if max(8, entry.total_degree()) == gf.pure_order_bound:
        sections["sing_search"] = _sing_section(gf, sing_res)
    else:
        sing_gf = _graph_form(entry, 8)
        sections["sing_search"] = _sing_section(sing_gf, sing_type_search(sing_gf, budget))
    rep = infer_type(df, Evidence(reg=reg_claim, sing=sing_res, ps=ps_evidence))
    sections["inference"] = {
        "reg_type": _claim(rep.reg_type) if rep.reg_type else None,
        "sing_type": _claim(rep.sing_type),
        "trail": list(rep.trail),
        "notes": list(rep.notes),
    }
    return sections, worst


_COMMANDS = {
    "order": _cmd_order,
    "pullback": _cmd_pullback,
    "contact": _cmd_contact,
    "ps-check": _cmd_ps_check,
    "gram": _cmd_gram,
    "germ-ps": _cmd_germ_ps,
    "reg-type": _cmd_reg_type,
    "sing-search": _cmd_sing_search,
    "desingularize": _cmd_desingularize,
    "fdb-verify": _cmd_fdb_verify,
    "report": _cmd_report_all,
}


# ---------------------------------------------------------------------------
# Assembly


def build_report(command: str, source: str, options: dict) -> tuple[dict, int]:
    """Execute a command and wrap its claims in the versioned report format.

    The returned dict is the machine section: deterministic, timestamp-free,
    and self-contained (it embeds the input source and options).
    """
    claims, code = _COMMANDS[command](source, options)
    machine = {
        "format": REPORT_FORMAT,
        "version": TOOL_VERSION,
        "command": command,
        "options": {k: v for k, v in sorted(options.items())},
        "input_sha256": hashlib.sha256(source.encode()).hexdigest(),
        "input_source": source,
        "claims": claims,
        "exit_code": code,
    }
    return machine, code


def machine_json(machine: dict) -> str:
    return json.dumps(machine, sort_keys=True, indent=2) + "\n"


def _human_lines(value, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_human_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_human_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def render_report(machine: dict) -> str:
    """Full report text: human header and claims plus the machine section."""
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    head = [
        f"contactps report {machine['version']} ({machine['format']})",
        f"command: {machine['command']}",
        f"generated: {stamp}",
        f"input sha256: {machine['input_sha256']}",
        "",
    ]
    body = _human_lines(machine["claims"])
    tail = ["", "--- machine section (json) ---", machine_json(machine).rstrip("\n")]
    return "\n".join(head + body + tail) + "\n"


def verify_report(machine: dict) -> dict:
    """Re-run the embedded command and require bit-identical claims.

    Raises ReportMismatchError on any disagreement; returns a small summary
    on success.
    """
    for field in ("format", "command", "options", "input_source", "claims"):
        if field not in machine:
            raise InputError(f"report is missing the {field!r} field")
    if machine["format"] != REPORT_FORMAT:
        raise InputError(f"unsupported report format {machine['format']!r}")
    recomputed, code = build_report(
        machine["command"], machine["input_source"], dict(machine["options"])
    )
    stored = json.dumps(machine["claims"], sort_keys=True)
    fresh = json.dumps(recomputed["claims"], sort_keys=True)
    if stored != fresh:
        raise ReportMismatchError(
            "recomputed claims differ from the stored report"
        )
    if machine.get("exit_code") != code:
        raise ReportMismatchError("recomputed exit code differs")
    return {"verified": True, "command": machine["command"], "exit_code": code}
