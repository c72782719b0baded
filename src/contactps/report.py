"""Structured, versioned reports for the command-line interface.

A report has a human-readable header plus a machine-parsable JSON section.
The JSON section embeds the full input source and its SHA-256
(input_sha256), the options, and every certificate, so a verify pass can
re-run the command from the report alone and must reproduce the claims
bit-for-bit.  It also checks the hash against the source, and the command
and options against COMMANDS.  Rational values are serialized as
numerator/denominator decimal strings, never floats.  The timestamp lives
only in the human header: machine sections of identical runs are
byte-identical.

Each command is declared once, in COMMANDS: its help, its options and their
defaults, its handler, and whether it reads a FILE.  The command line is
parsed from that table.  build_report forms one GermAnalysis of the input
and the command's recorded options, defaults filled in, and the handler
projects it into the command's section; `report --all` is the union of the
sections.  The analysis forms each
piece once: the validated defining function (or the mixed-only decision),
one graph frame per K, one Gram certificate per term set (the gram and
ps-check stage, the germ-ps jets, reg-type's g and quadratic part and the
balanced coefficients of both type searches share it) and one sing-search
per g.  It lives for one command: verify-report re-derives everything.
Frames: K = max(4, deg) for gram and ps-check, max(--max, deg) for
reg-type, the inference and, in `report --all`, gram and ps-check too, and
max(8, deg) for sing-search and desingularize.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from datetime import datetime, timezone
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

# CPython's built-in SHA-256, as random.py imports its SHA-512: hashlib
# loads OpenSSL's libcrypto, a few MB of every process, for the same digest.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # an interpreter built without them

from .algebra import CPolynomial, GaussianRational, Order
from .curve import CurveJet, contact_order, laplacian_power, pullback
from .expr import format_curve, format_polynomial, parse_curve, parse_problem
from .fdb import (
    check_expansion_size,
    derive_forms,
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
# Input handling and the analysis of one command


def _as_input(fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError raised as an InputError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _curve_option(options) -> CurveJet:
    """The parsed --curve option, which only a stored report can lack."""
    if options["curve"] is None:
        raise InputError("the 'curve' option is required")
    return _as_input(parse_curve, options["curve"])


def _curve_for_entry(z: CurveJet, entry: CPolynomial) -> CurveJet:
    """A --curve argument may match the entry's variables exactly or carry
    one extra identically-zero last component (the graph coordinate)."""
    if z.nvars == entry.nvars:
        return z
    if z.nvars == entry.nvars + 1 and z.components[-1].is_zero():
        return CurveJet(z.components[:-1])
    raise InputError(
        f"curve has {z.nvars} components, function has {entry.nvars} variables"
    )


class GermAnalysis:
    """What one command derives from its entry and its options (see the
    module docstring).  The source (None when the command reads no FILE) is
    parsed first, so a syntax error comes before any option error; every
    other piece is formed when a handler first reads it, so input errors
    come in the order in which the command reads its input."""

    def __init__(self, source: str | None, options: dict):
        self.entry = None if source is None else _as_input(parse_problem, source).entry
        self.options = options
        self._frames, self._certificates, self._searches = {}, {}, []

    @property
    def budget(self) -> SearchBudget:
        options = self.options
        return _as_input(
            SearchBudget,
            max_multiplicity=options["max_mult"],
            max_degree=options["max_deg"],
            coeff_height=options["coeff_height"],
            random_trials=options["trials"],
            seed=options["seed"],
        )

    @property
    def cap(self) -> int:
        """The --max cap of the regular-type search.  Every regular type is
        at least 2, so a smaller cap bounds nothing and is an input error."""
        N = self.options["max"]
        if N < 2:
            raise InputError(f"--max must be at least 2, got {N}")
        return N

    @property
    def positivity_frame(self) -> GraphForm:
        """The gram and ps-check frame: K = max(--max, deg) in `report
        --all`, which has --max, else max(4, deg)."""
        return self.frame(self.cap if "max" in self.options else 4)

    @cached_property
    def df(self) -> DefiningFunction:
        return _as_input(validate, self.entry)

    @cached_property
    def r(self) -> DefiningFunction | None:
        """df, or None for a mixed-only entry, which is g in the frame w = 0."""
        if not self.entry.homogeneous_slice(1).is_zero():
            return self.df
        if not self.entry.is_real_valued():
            raise InputError("function must be real-valued")
        if not self.entry.pure_mixed_split()[0].is_zero():
            raise InputError("function must either have a linear part or be mixed-only")
        return None

    @cached_property
    def degree(self) -> int:
        """The total degree of the entry, which every frame reads."""
        return self.entry.total_degree()

    def frame(self, floor: int) -> GraphForm:
        """The graph frame through K = max(floor, deg entry)."""
        K = max(floor, self.degree)
        if K not in self._frames:
            r = self.r
            self._frames[K] = (GraphForm(self.entry, K) if r is None
                               else _as_input(normalize_to_graph, r, K))
        return self._frames[K]

    def certificate(self, g: CPolynomial):
        """gram_certificate(g), which reads nvars and the terms of g alone."""
        formed = self._certificates.setdefault((g.nvars, frozenset(g.terms)), [])
        for terms, cert in formed:
            if terms == g.terms:
                return cert
        cert = gram_certificate(g)
        formed.append((g.terms, cert))
        return cert

    def search(self, gf: GraphForm):
        """sing_type_search on gf, which reads its g alone."""
        for g, res in self._searches:
            if g == gf.g:
                return res
        res = sing_type_search(gf, self.budget, self.certificate)
        self._searches.append((gf.g, res))
        return res

    @cached_property
    def germ_ps(self):
        """germ_ps_check on k_min..k_max, by default 2..max(k_min, deg r):
        `report --all` has neither option, and a stored report can lack --kmax."""
        r = self.df
        k_min = self.options.get("kmin", 2)
        k_max = self.options.get("kmax")
        if k_max is None:
            k_max = max(k_min, r.r.total_degree())
        return _as_input(germ_ps_check, r, k_min, k_max, self.budget, self.certificate)

    @cached_property
    def reg_claim(self):
        return reg_type(self.frame(self.cap), self.cap, self.certificate)


# ---------------------------------------------------------------------------
# Command handlers: each maps its command's GermAnalysis to (claims, exit
# code), a projection of the analysis; `report --all` is the union of the
# command sections.


def _order_section(an: GermAnalysis) -> tuple[dict, int]:
    return {
        "expression": format_polynomial(an.entry),
        "order": _order(an.entry.order_of_vanishing()),
    }, 0


def _cmd_pullback(an: GermAnalysis):
    z = _curve_for_entry(_curve_option(an.options), an.entry)
    u = pullback(an.entry, z)
    return {
        "curve": format_curve(z),
        "pullback": format_polynomial(u, "t"),
        "order": _order(u.order_of_vanishing()),
    }, 0


def _cmd_contact(an: GermAnalysis):
    z = _curve_for_entry(_curve_option(an.options), an.entry)
    order, ratio = contact_order(an.entry, z)
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


def _gram_section(an: GermAnalysis) -> tuple[dict, int]:
    gf = an.positivity_frame
    return _cert_section(gf, an.certificate(gf.g)), 0


def _ps_check_section(an: GermAnalysis) -> tuple[dict, int]:
    """g's Gram certificate when it is certified, else ps_search's verdict;
    the budget is checked after the frame, before either."""
    gf = an.positivity_frame
    budget = an.budget
    gram = an.certificate(gf.g)
    cert = gram if gram.verdict == "certified" else ps_search(gf.g, budget, gram)
    return _cert_section(gf, cert), 1 if cert.is_violation else 0


def _germ_ps_section(an: GermAnalysis) -> tuple[dict, int]:
    rep = an.germ_ps
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


def _reg_section(an: GermAnalysis) -> tuple[dict, int]:
    gf = an.frame(an.cap)
    return {"g": format_polynomial(gf.g), "reg_type": _claim(an.reg_claim)}, 0


def _sing_section(an: GermAnalysis) -> tuple[dict, int]:
    """The search on the frame K = max(8, deg entry)."""
    gf = an.frame(8)
    res = an.search(gf)
    claims = {
        "g": format_polynomial(gf.g),
        "result": _claim(res.claim),
        "candidates_tested": res.candidates_tested,
        "budget": _budget(res.budget),
    }
    if res.witness is not None:
        # The lift of a series graph is a jet, so it maps an infinite
        # claim's witness only near a curve along which r vanishes.
        lifted = gf.lift_curve(res.witness)
        if res.kind != "infinite" or all(x.truncation is None for x in lifted.components):
            claims["witness_in_original_frame"] = format_curve(lifted)
    return claims, 0


def _inference_section(an: GermAnalysis) -> dict:
    """infer_type on the frame K = max(--max, deg entry), with germ-ps, or
    g's Gram certificate for a mixed-only entry, as positivity evidence."""
    gf = an.frame(an.cap)
    ps = an.germ_ps if an.r is not None else an.certificate(gf.g)
    rep = infer_type(an.r, Evidence(reg=an.reg_claim, sing=an.search(gf), ps=ps))
    return {
        "reg_type": _claim(rep.reg_type) if rep.reg_type else None,
        "sing_type": _claim(rep.sing_type),
        "trail": list(rep.trail),
        "notes": list(rep.notes),
    }


def _cmd_desingularize(an: GermAnalysis):
    gf = an.frame(8)
    res = _as_input(desingularize, gf, _curve_option(an.options))
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


def _cmd_fdb_verify(an: GermAnalysis):
    k, trials, seed = an.options["k"], an.options["trials"], an.options["seed"]
    if k < 1:
        raise InputError(f"--k must be at least 1, got {k}")
    if trials < 1:
        raise InputError(f"--trials must be at least 1, got {trials}")
    check_expansion_size(k, trials)
    rng = random.Random(seed)
    matched = 0
    for _ in range(trials):
        nvars = rng.randint(1, 2)
        g = random_real_polynomial(rng, nvars, 6)
        budget = SearchBudget(max_multiplicity=4, max_degree=4,
                              random_trials=1, seed=rng.randrange(1 << 30))
        z = next(iter(random_curves(nvars, budget)))
        # (d/dt d/dtbar)^kk at 0 reads only the t^kk tbar^kk coefficient,
        # so one pullback truncated at degree 2k serves every kk <= k.  The
        # components of z vanish at 0, so a term of g of degree D pulls back
        # to order at least D: only the terms of degree <= 2k reach those
        # coefficients, and only they are pulled back.  For the same reason
        # a product that uses a component term of degree > 2k has degree
        # > 2k, since its other factors are component terms too, so the
        # pullback runs along the components truncated at 2k (when z's
        # multiplicity exceeds 2k no term is left, and z is kept).
        zk = z if z.multiplicity() > 2 * k else z.truncate(2 * k)
        u = pullback(g.truncate(2 * k), zk).truncate(2 * k)
        # The forms of degree <= 2k hold every form that an order kk <= k
        # reads, so they are derived once per drawn g.
        forms = derive_forms(g, 2 * k)
        for kk in range(1, k + 1):
            lhs = laplacian_power_forms(g, z, kk, forms)
            rhs = laplacian_power(u, kk)
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


def _cmd_report_all(an: GermAnalysis):
    """Every analysis on one input: the sections of the commands below on
    one GermAnalysis, in this order, then the inference; a mixed-only entry
    has no germ-ps section.  The gram, ps-check, reg-type and inference
    sections read the frame K = max(--max, deg); the sing-search section is
    the one `sing-search` prints, on K = max(8, deg).  The two share their
    search when the frames have the same g, as every exact-rule germ's do."""
    claims, worst = {}, 0
    for name in ("order", "gram", "ps-check", "germ-ps", "reg-type", "sing-search"):
        if name != "germ-ps" or an.r is not None:
            claims[name.replace("-", "_")], code = COMMANDS[name].handler(an)
            worst = max(worst, code)
    claims["inference"] = _inference_section(an)
    return claims, worst


class Option(NamedTuple):
    """`--name`: a flag if `type` is bool, else recorded in the report under
    `key`.  A default of None means required."""
    name: str
    type: type
    default: object
    help: str = ""

    @property
    def key(self) -> str:
        """The option's name in a report's options: `name` with `-` read as `_`."""
        return self.name.replace("-", "_")


class Command(NamedTuple):
    help: str
    options: tuple[Option, ...]
    handler: Callable[[GermAnalysis], tuple[dict, int]] | None = None
    reads_file: bool = True

    @property
    def recorded(self) -> tuple[Option, ...]:
        """The options that a report of the command records: all but the flags."""
        return tuple(o for o in self.options if o.type is not bool)


_JSON = Option("json", bool, False, "emit only the machine section")
_CURVE = Option("curve", str, None, 'curve as a tuple of t-polynomials, e.g. "(t^3, t^2, 0)"')
_BUDGET = (Option("max-mult", int, 4, "max curve multiplicity searched"),
           Option("max-deg", int, 6, "max curve degree searched"),
           Option("coeff-height", int, 2, "height bound for scanned rational coefficients"),
           Option("trials", int, 200, "number of seeded random candidates"),
           Option("seed", int, 0))
_MAX = Option("max", int, 8, "cap for the regular-type computation")

# Every CLI command, declared once: its help, its options, its handler (none
# for verify-report, which re-runs a stored report's command) and whether it
# reads a FILE.  The command line is parsed from this table, build_report
# runs the handler, and verify_report checks a stored report against it.
COMMANDS = {
    "order": Command("Order of vanishing of the problem's defining expression.", (_JSON,),
                     _order_section),
    "pullback": Command("Pull the defining expression back along a curve.", (_CURVE, _JSON),
                        _cmd_pullback),
    "contact": Command("Order of contact (pullback order over multiplicity) of a curve.",
                       (_CURVE, _JSON), _cmd_contact),
    "ps-check": Command("Certify positivity structurally or search for a violating curve.",
                        (*_BUDGET, _JSON), _ps_check_section),
    "gram": Command("Exact Hermitian sum-of-squares decomposition (or indefinite direction).",
                    (_JSON,), _gram_section),
    "germ-ps": Command("Per-jet-order positivity verdicts and the stabilization order.",
                       (Option("kmin", int, 2), Option("kmax", int, None), *_BUDGET, _JSON),
                       _germ_ps_section),
    "reg-type": Command("Max order of contact of regular curves, with certificate.",
                        (_MAX, _JSON), _reg_section),
    "sing-search": Command("Bounded search for high-contact singular curves.", (*_BUDGET, _JSON),
                           _sing_section),
    "desingularize": Command("Construct a regular contact-4 curve from a contact-4m singular one.",
                             (_CURVE, _JSON), _cmd_desingularize),
    "fdb-verify": Command("Cross-check the partition expansion against the operator oracle.",
                          (Option("k", int, 3), Option("trials", int, 20), Option("seed", int, 0),
                           _JSON), _cmd_fdb_verify, reads_file=False),
    "report": Command("Full analysis: order, positivity, types, and the inference trail.",
                      (Option("all", bool, None, "run every analysis on the problem file"),
                       _MAX, *_BUDGET, _JSON), _cmd_report_all),
    "verify-report": Command("Re-run the command embedded in a report and check the claims agree.",
                             ()),
}


# ---------------------------------------------------------------------------
# Assembly


def _input_sha256(source: str) -> str:
    return sha256(source.encode()).hexdigest()


def build_report(command: str, source: str, options: dict) -> tuple[dict, int]:
    """Execute a command and wrap its claims in the versioned report format.

    The command's handler reads one GermAnalysis, formed from the source
    (when the command reads a FILE) and the command's recorded options,
    each given value or its default.  The returned dict is the machine
    section: deterministic, timestamp-free, and self-contained (it embeds
    the input source and the options as given).
    """
    spec = COMMANDS[command]
    an = GermAnalysis(source if spec.reads_file else None,
                      {o.key: options.get(o.key, o.default) for o in spec.recorded})
    claims, code = spec.handler(an)
    machine = {
        "format": REPORT_FORMAT,
        "version": TOOL_VERSION,
        "command": command,
        "options": {k: v for k, v in sorted(options.items())},
        "input_sha256": _input_sha256(source),
        "input_source": source,
        "claims": claims,
        "exit_code": code,
    }
    return machine, code


def machine_json(machine: dict) -> str:
    """json.dumps(machine, sort_keys=True, indent=2) plus a newline, written
    directly (_write_json) instead of through the stdlib's pure-Python
    encoder, which that call takes because of the indent."""
    out: list[str] = []
    _write_json(machine, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the sorted indent-2 JSON of value to out, where newline is a
    line break plus the indentation of value's own line.  Strings, ints,
    bools, None, lists, tuples and dicts with string keys are written here,
    strings with the stdlib's own ASCII escaper, and a string or int item
    of a dict or list in the loop that writes it; any other value goes
    through json.dumps, re-indented (a JSON string holds no raw line break,
    so every line break of that text starts a line).  A dict has string
    keys only when its least key is a string: sorting keys of mixed types
    fails."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is dict and value:
        try:
            keys = sorted(value)
        except TypeError:
            keys = None
        if keys is None or type(keys[0]) is not str:
            out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in keys:
            item = value[key]
            kind = type(item)
            if kind is str:
                out += (sep, encode_basestring_ascii(key), ": ", encode_basestring_ascii(item))
            elif kind is int:
                out += (sep, encode_basestring_ascii(key), ": ", int.__repr__(item))
            else:
                out += (sep, encode_basestring_ascii(key), ": ")
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                out += (sep, encode_basestring_ascii(item))
            else:
                out.append(sep)
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        out.append("{}")
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


def _human_lines(value, lines: list[str], pad: str = "") -> None:
    """Append the human-readable lines of value to lines: a dict or list
    item that is itself a dict or list heads its own block,
    indented two spaces more than pad."""
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                _human_lines(v, lines, pad + "  ")
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                _human_lines(v, lines, pad + "  ")
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")


def render_report(machine: dict) -> str:
    """Full report text: human header and claims plus the machine section."""
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    lines = [
        f"contactps report {machine['version']} ({machine['format']})",
        f"command: {machine['command']}",
        f"generated: {stamp}",
        f"input sha256: {machine['input_sha256']}",
        "",
    ]
    _human_lines(machine["claims"], lines)
    # machine_json ends the text with its one line break.
    lines += ("", "--- machine section (json) ---", machine_json(machine))
    return "\n".join(lines)


def verify_report(machine: dict) -> dict:
    """Re-run the embedded command and require bit-identical claims.

    Raises InputError on a report of the wrong shape, including options
    that its command (COMMANDS) does not record, and ReportMismatchError on
    any disagreement, an input_sha256 that is not the input source's
    included; returns a small summary on success.
    """
    if type(machine) is not dict:
        raise InputError("report is not a JSON object")
    for field in ("format", "command", "options", "input_source", "claims"):
        if field not in machine:
            raise InputError(f"report is missing the {field!r} field")
    if machine["format"] != REPORT_FORMAT:
        raise InputError(f"unsupported report format {machine['format']!r}")
    command, options, source = machine["command"], machine["options"], machine["input_source"]
    spec = COMMANDS.get(command) if type(command) is str else None
    if spec is None or spec.handler is None:
        raise InputError(f"unknown command {command!r}")
    declared = {o.key: o.type for o in spec.recorded}
    if type(options) is not dict or not all(
            name not in declared or type(value) is declared[name]
            for name, value in options.items()):
        raise InputError("report options must be ints, and curve a string")
    if type(source) is not str:
        raise InputError("report input_source must be a string")
    if machine.get("input_sha256") != _input_sha256(source):
        raise ReportMismatchError("the stored input_sha256 is not the SHA-256 of input_source")
    recomputed, code = build_report(command, source, dict(options))
    stored = json.dumps(machine["claims"], sort_keys=True)
    fresh = json.dumps(recomputed["claims"], sort_keys=True)
    if stored != fresh:
        raise ReportMismatchError(
            "recomputed claims differ from the stored report"
        )
    if machine.get("exit_code") != code:
        raise ReportMismatchError("recomputed exit code differs")
    # After the recomputation, so that a missing required option reads as
    # the command's own input error.
    if options.keys() != declared.keys():
        raise InputError(f"report options of {command!r} must be exactly {sorted(declared)}")
    return {"verified": True, "command": machine["command"], "exit_code": code}
