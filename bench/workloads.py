"""Corpus, workloads and output checks of the contactps benchmark.

Every problem file under corpus/ has an entry in CORPUS with the answers the
benchmark expects and where they come from.  Checks are semantic (verdicts,
types, orders), never byte goldens, so a change of report format does not
count as a failure.

A workload is a list of rounds.  A round is a fixed list of ops, put in an
order drawn from the run's seed; the seed also picks every --seed handed
to a search.  An op is one or more CLI commands; in report_all and certify each
command is followed by verify-report of its output.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")
MARKER = "--- machine section (json) ---"
INF = "infinite"

CRIT = "acceptance criterion {} in tests/test_acceptance.py"
THEOREM = "paper theorem: regular type 4 + positivity => singular type 4"


@dataclass(frozen=True)
class Entry:
    """Expected answers for one problem file.

    reg and sing are the true regular and singular types (INF for
    infinite).  An exact claim must equal them, a lower bound may not exceed
    them, and an infinite claim needs an infinite true type.  reg_exact and
    sing_decided also require the tool to certify the value (exact or
    infinite) rather than bound it.
    """

    source: str
    gram: str | None = None
    ps: str | None = None
    reg: int | str | None = None
    reg_exact: bool = False
    sing: int | str | None = None
    sing_decided: bool = False
    k0: int | None = None
    known_defect: str | None = None


CORPUS = {
    "crit4_cubic_square": Entry(
        CRIT.format(4) + "; hand derivation: (t^3, t^2, 0) kills z1^2 - z2^3",
        gram="certified", ps="certified", reg=6, reg_exact=True,
        sing=INF, sing_decided=True, k0=6),
    "crit4_mirror": Entry(
        CRIT.format(4) + " with z1 and z2 swapped; hand derivation: (t^2, t^3, 0) "
        "kills z2^2 - z1^3",
        gram="certified", ps="certified", reg=6, reg_exact=True,
        sing=INF, sing_decided=True, k0=6),
    "crit4_plus": Entry(
        CRIT.format(4) + " after z2 -> -z2; hand derivation: (t^3, -t^2, 0) "
        "kills z1^2 + z2^3",
        gram="certified", ps="certified", reg=6, reg_exact=True,
        sing=INF, sing_decided=True, k0=6),
    "crit4_mirror_plus": Entry(
        CRIT.format(4) + " with z1 and z2 swapped, after z1 -> -z1; hand "
        "derivation: (-t^2, t^3, 0) kills z2^2 + z1^3",
        gram="certified", ps="certified", reg=6, reg_exact=True,
        sing=INF, sing_decided=True, k0=6),
    "crit5_m2": Entry(
        CRIT.format(5) + "; hand derivation: (-t^2, t) kills z1 + z2^2",
        gram="certified", ps="certified", reg=INF, reg_exact=True,
        sing=INF, sing_decided=True, k0=4),
    "crit5_m3": Entry(
        CRIT.format(5) + "; hand derivation: (-t^3, t) kills z1 + z2^3",
        gram="certified", ps="certified", reg=INF, reg_exact=True,
        sing=INF, sing_decided=True, k0=6),
    "crit5_m3_mirror": Entry(
        CRIT.format(5) + " with z1 and z2 swapped; hand derivation: (t, -t^3, 0) "
        "kills z2 + z1^3",
        gram="certified", ps="certified", reg=INF, reg_exact=True,
        sing=INF, sing_decided=True, k0=6),
    "crit6_type4": Entry(
        CRIT.format("6 and 7") + "; " + THEOREM,
        gram="certified", ps="certified", reg=4, reg_exact=True,
        sing=4, sing_decided=True, k0=4),
    "type4_quartic": Entry(
        CRIT.format(7) + "; " + THEOREM,
        gram="certified", ps="certified", reg=4, reg_exact=True,
        sing=4, sing_decided=True, k0=2),
    "type4_gaussian": Entry(
        CRIT.format(7) + "; " + THEOREM,
        gram="certified", ps="certified", reg=4, reg_exact=True,
        sing=4, sing_decided=True, k0=4),
    "mixed_sq2": Entry(
        CRIT.format(9) + "; hand derivation: (-t^2, t) kills z1 + z2^2",
        gram="certified", ps="certified", reg=INF, reg_exact=True,
        sing=INF, sing_decided=True),
    "mixed_sq3": Entry(
        CRIT.format(9) + "; hand derivation: (-t^3, t) kills z1 + z2^3",
        gram="certified", ps="certified", reg=INF, reg_exact=True,
        sing=INF, sing_decided=True),
    "mixed_indef_quartic": Entry(
        CRIT.format(9) + "; hand derivation: indefinite, and (t, t) has zero pullback",
        gram="inconclusive", ps="violation", reg=INF, reg_exact=True,
        sing=INF, sing_decided=True),
    "mixed_certified": Entry(
        CRIT.format("7 and 9") + "; " + THEOREM
        + "; hand derivation: z1^2 + z2^2 and z1*z2 share no regular branch",
        gram="certified", ps="certified", reg=4, reg_exact=True,
        sing=4, sing_decided=True),
    "mixed_indef_hermitian": Entry(
        CRIT.format(9) + "; hand derivation: indefinite, and (0, t) has zero pullback",
        gram="inconclusive", ps="violation", reg=INF, reg_exact=True,
        sing=INF, sing_decided=True),
    "item3_repro": Entry(
        "regular-type soundness repro; hand derivation: along (t, sqrt(2)*t^2, 0) the "
        "first generator vanishes and the pullback is 64|t|^24, and no "
        "regular curve does better, so the regular type is 24",
        gram="certified", reg=24,
        known_defect="typecalc._regular_contact_ideal lets an exact pivot "
                     "replace an inexact one"),
    "item3_mirror": Entry(
        "item3_repro with z1 and z2 swapped; hand derivation: along "
        "(sqrt(2)*t^2, t, 0) the pullback is 64|t|^24, so the regular type is 24",
        gram="certified", reg=24,
        known_defect="typecalc._regular_contact_ideal: a later inexact pivot "
                     "with a lower value does not clear exactness"),
    "irr_line": Entry(
        "hand derivation: z1^2 - 2*z2^2 vanishes along the irrational line "
        "(sqrt(2)*t, t, 0), so the regular type is infinite and only a lower "
        "bound can be certified over Q(i)",
        gram="certified", reg=INF),
    "desing_line": Entry(CRIT.format(6), gram="certified", reg=4, reg_exact=True),
}


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS_DIR, name + ".txt")


def load_corpus() -> dict[str, str]:
    """Problem file texts by entry name; every entry must have its file."""
    return {name: open(corpus_path(name), encoding="utf-8").read() for name in CORPUS}


@dataclass(frozen=True)
class Op:
    """One timed operation: CLI commands run back to back.

    entry names the corpus file the commands read (None for fdb-verify);
    expect maps dotted claim paths to required values; verify asks for a
    verify-report of each command's output.
    """

    kind: str
    commands: tuple[tuple[str, ...], ...]
    entry: str | None = None
    expect: tuple = ()
    verify: bool = True
    min_candidates: int = 0

    @property
    def known_defect(self) -> str | None:
        return CORPUS[self.entry].known_defect if self.entry else None


def _cmd(command: str, entry: str | None, *args) -> tuple[str, ...]:
    head = (command,) if entry is None else (command, corpus_path(entry))
    return head + tuple(str(a) for a in args)


# ---------------------------------------------------------------------------
# Workloads

FALSIFY_GERMS = ("crit6_type4", "type4_gaussian")
FALSIFY_BUDGET = ("--max-mult", 4, "--max-deg", 8, "--coeff-height", 2, "--trials", 3000)

# Five entries cheaper than the six middle ones (the four crit4 variants,
# crit5_m3 and its mirror, all of about the same cost) and three dearer: the
# median op, the mean of the 7th and 8th of 14, then falls inside that band
# instead of resting on one op or jumping between op kinds.
REPORT_ALL_ENTRIES = (
    "crit4_cubic_square", "crit4_mirror", "crit4_plus", "crit4_mirror_plus",
    "crit5_m2", "crit5_m3", "crit5_m3_mirror", "crit6_type4", "type4_quartic",
    "mixed_sq2", "mixed_sq3", "mixed_indef_quartic", "mixed_certified",
    "mixed_indef_hermitian",
)
REPORT_BUDGET = ("--max-deg", 4, "--trials", 50)


def _falsify_op(entry: str, seed: int, budget=FALSIFY_BUDGET, min_candidates=10_000) -> Op:
    return Op("falsify", (
        _cmd("gram", entry),
        _cmd("reg-type", entry, "--max", 8),
        _cmd("sing-search", entry, *budget, "--seed", seed),
    ), entry, verify=False, min_candidates=min_candidates)


def _report_op(entry: str, seed: int) -> Op:
    return Op("report", (_cmd("report", entry, "--all", *REPORT_BUDGET, "--seed", seed),), entry)


def _certify_round(rng: random.Random) -> list[Op]:
    """Nine ops cheaper than the three ~15 ms reg-type ops on crit4, crit6
    and type4_gaussian, and nine dearer ones, so that the median op falls
    inside that cluster rather than in a gap between two op kinds."""

    def one(kind, entry, *args, expect=()):
        return Op(kind, (_cmd(kind, entry, *args),), entry, tuple(expect))

    seed = rng.randrange(1 << 16)
    germ_ps = ("--max-deg", 4, "--trials", 10, "--seed", seed)
    return [
        one("gram", "crit6_type4"),
        one("gram", "crit4_cubic_square"),
        one("gram", "mixed_indef_quartic"),
        one("reg-type", "crit4_cubic_square", "--max", 16),
        one("reg-type", "crit6_type4", "--max", 16),
        one("reg-type", "type4_gaussian", "--max", 16),
        one("reg-type", "mixed_certified", "--max", 16),
        one("reg-type", "item3_repro", "--max", 16),
        one("reg-type", "item3_mirror", "--max", 16),
        one("reg-type", "irr_line", "--max", 16),
        one("germ-ps", "crit5_m2", "--kmin", 2, "--kmax", 5, *germ_ps),
        one("germ-ps", "crit5_m3", "--kmin", 2, "--kmax", 7, *germ_ps),
        one("germ-ps", "crit4_cubic_square", "--kmin", 2, "--kmax", 6, *germ_ps),
        one("germ-ps", "crit6_type4", "--kmin", 2, "--kmax", 5, *germ_ps),
        one("germ-ps", "type4_gaussian", "--kmin", 2, "--kmax", 5, *germ_ps),
        one("contact", "crit4_cubic_square", "--curve", "(t^3, t^2, 0)",
            expect=[("contact", "infinite")]),
        one("contact", "crit6_type4", "--curve", "(-t^4, t^2, 0)",
            expect=[("contact", "4/1"), ("multiplicity", 2)]),
        one("pullback", "crit6_type4", "--curve", "(t, t, 0)",
            expect=[("order.kind", "exact"), ("order.value", 2)]),
        one("desingularize", "crit6_type4", "--curve", "(-t^4, t^2)",
            expect=[("eta", "(-t^2, t)"), ("transcript.new_pullback_order", 4)]),
        one("desingularize", "desing_line", "--curve", "(t^2)",
            expect=[("eta", "(t)"), ("transcript.new_pullback_order", 4)]),
        Op("fdb-verify", (_cmd("fdb-verify", None, "--k", 3, "--trials", 3,
                               "--seed", rng.randrange(1 << 16)),),
           None, (("matches", 3), ("k3_form_type_multiplicities",
                                   {"1,1": 1, "1,2": 3, "2,1": 3, "2,2": 9}))),
    ]


def make_round(workload: str, rng: random.Random) -> list[Op]:
    """The next round of a workload, in an order drawn from rng."""
    if workload == "falsify":
        # An op takes about 10 s of CPU at reference speed, so a run is one
        # round: both germs, once each, in seeded order.
        ops = [_falsify_op(e, rng.randrange(1 << 16)) for e in FALSIFY_GERMS]
    elif workload == "report_all":
        ops = [_report_op(e, rng.randrange(1 << 16)) for e in REPORT_ALL_ENTRIES]
    else:
        ops = _certify_round(rng)
    rng.shuffle(ops)
    return ops


def warmup_ops(workload: str) -> list[Op]:
    """One cheap op of each command kind the workload runs."""
    if workload == "falsify":
        return [_falsify_op("crit6_type4", 0, ("--max-deg", 4, "--trials", 20), 0)]
    if workload == "report_all":
        return [_report_op("crit5_m2", 0)]
    seen, ops = set(), []
    for op in _certify_round(random.Random(0)):
        if op.kind not in seen:
            seen.add(op.kind)
            ops.append(op)
    return ops


def determinism_ops(workload: str, rng: random.Random) -> list[Op]:
    """One seeded op of each command kind, for the twice-run check.

    The falsify search runs with a small budget here; the timed op runs the
    full one.  report_all draws its entry from the cheaper half.  certify
    skips the known defects, which every round already runs, so that the
    number of failed ops does not depend on the seed.
    """
    if workload == "falsify":
        germ = rng.choice(FALSIFY_GERMS)
        return [_falsify_op(germ, rng.randrange(1 << 16), ("--max-deg", 5, "--trials", 100), 0)]
    if workload == "report_all":
        cheap = ("crit5_m2", "mixed_sq2", "mixed_sq3", "mixed_indef_quartic",
                 "mixed_indef_hermitian", "crit4_cubic_square")
        return [_report_op(rng.choice(cheap), rng.randrange(1 << 16))]
    by_kind: dict[str, list[Op]] = {}
    for op in _certify_round(rng):
        if op.known_defect is None:
            by_kind.setdefault(op.kind, []).append(op)
    return [rng.choice(ops) for ops in by_kind.values()]


# ---------------------------------------------------------------------------
# Output checks


@dataclass
class CommandResult:
    argv: tuple[str, ...]
    exit_code: int
    stdout: str
    stderr: str
    error: str | None  # an exception other than a normal exit
    verify: bool = False  # a verify-report of the previous command

    @property
    def machine_text(self) -> str | None:
        if MARKER in self.stdout:
            return self.stdout.split(MARKER, 1)[1]
        return None


@dataclass
class OpResult:
    op: Op
    seconds: float
    commands: list[CommandResult] = field(default_factory=list)
    span: tuple[float, float] = (0.0, 0.0)  # main-thread CPU time at start and end


def machine_sections(res: OpResult) -> tuple:
    """What must repeat byte for byte: machine sections, and the summary
    line of verify-report."""
    return tuple(c.machine_text if c.machine_text is not None else c.stdout
                 for c in res.commands)


def _get(claims, path: str):
    for part in path.split("."):
        claims = claims[part]
    return claims


def _check_type(claim: dict, true, decided: bool, what: str) -> list[str]:
    """Soundness of a type claim against the true type."""
    kind = claim["kind"]
    if true is None:
        return []
    if kind == "infinite":
        return [] if true == INF else [f"{what}: infinite claim, true type {true}"]
    value = Fraction(claim["value"])
    if kind == "exact":
        if true == INF or value != true:
            return [f"{what}: exact claim {value} is wrong, true type {true}"]
        return []
    errs = []
    if true != INF and value > true:
        errs.append(f"{what}: lower bound {value} exceeds the true type {true}")
    if decided:
        errs.append(f"{what}: only a lower bound ({value}), expected {true} to be certified")
    return errs


def check_claims(kind: str, claims: dict, entry: Entry | None, op: Op) -> tuple[list[str], list]:
    """Semantic checks of one command's claims.

    Returns (errors, witnesses); each witness is (curve, jet, claimed order,
    description, claimed order is only a lower bound) for the oracle.  A
    claimed order is an int, "zero" for an identically zero pullback, or
    ("ratio", q) for a contact ratio q = order / multiplicity.
    """
    errs: list[str] = []
    wit: list = []

    def ps_cert(cert, what, expected, jet=None):
        if expected is not None and cert["verdict"] != expected:
            errs.append(f"{what}: verdict {cert['verdict']}, expected {expected}")
        if "witness" in cert and "witness_order" in cert:
            o = cert["witness_order"]
            wit.append((cert["witness"], jet, o["value"] if o["kind"] == "exact" else "zero",
                        f"{what} witness", False))

    def reg(claim, what, exact_required):
        errs.extend(_check_type(claim, entry.reg, exact_required, what))
        if "witness" in claim:
            claimed = "zero" if claim["kind"] == "infinite" else int(Fraction(claim["value"]))
            wit.append((claim["witness"], None, claimed, f"{what} witness",
                        claim["kind"] == "at_least"))

    def sing(res, what):
        errs.extend(_check_type(res["result"], entry.sing, False, what))
        if res["candidates_tested"] < op.min_candidates:
            errs.append(f"{what}: {res['candidates_tested']} candidates < {op.min_candidates}")
        if entry.sing_decided and entry.sing == INF and res["result"]["kind"] != "infinite":
            errs.append(f"{what}: no infinite-type certificate found")
        if "witness_in_original_frame" in res:
            result = res["result"]
            claimed = "zero" if result["kind"] == "infinite" else ("ratio", Fraction(result["value"]))
            wit.append((res["witness_in_original_frame"], None, claimed, f"{what} witness", False))

    def germ_ps(c, what):
        if entry.k0 is not None and c["k0"] != entry.k0:
            errs.append(f"{what}: k0 = {c['k0']}, expected {entry.k0}")
        for item in c["entries"]:
            ps_cert(item["certificate"], f"{what} k={item['k']}", None, jet=item["k"])

    if kind == "gram":
        ps_cert(claims["certificate"], "gram", entry.gram)
    elif kind == "reg-type":
        reg(claims["reg_type"], "reg-type", entry.reg_exact)
    elif kind == "sing-search":
        sing(claims, "sing-search")
    elif kind == "germ-ps":
        germ_ps(claims, "germ-ps")
    elif kind == "report":
        ps_cert(claims["gram"]["certificate"], "report.gram", entry.gram)
        ps_cert(claims["ps_check"]["certificate"], "report.ps_check", entry.ps)
        if "germ_ps" in claims:
            germ_ps(claims["germ_ps"], "report.germ_ps")
        reg(claims["reg_type"]["reg_type"], "report.reg_type", entry.reg_exact)
        sing(claims["sing_search"], "report.sing_search")
        inf = claims["inference"]
        errs.extend(_check_type(inf["sing_type"], entry.sing, entry.sing_decided,
                                "report.inference.sing_type"))
    elif kind in ("contact", "pullback"):
        order = claims["pullback_order" if kind == "contact" else "order"]
        wit.append((claims["curve"], None,
                     "zero" if order["kind"] == "zero" else order["value"], kind, False))
    elif kind == "desingularize":
        wit.append((claims["eta"], None, claims["transcript"]["new_pullback_order"],
                    "desingularize eta", False))
    for path, want in op.expect:
        try:
            got = _get(claims, path)
        except (KeyError, TypeError):
            got = None
        if got != want:
            errs.append(f"{kind}: {path} = {got!r}, expected {want!r}")
    return errs, wit


def check_witness(oracle_germ, curve: str, jet, claimed, what: str, lower_bound=False) -> list[str]:
    """Compare a claimed witness order with the sympy oracle."""
    from oracle import multiplicity

    got = oracle_germ.order(curve, jet)
    if claimed == "zero":
        ok = got is None
        want = "identically zero"
    else:
        if isinstance(claimed, tuple):  # a contact ratio: order / multiplicity
            claimed = claimed[1] * multiplicity(oracle_germ.curve(curve))
        ok = got is not None and (got >= claimed if lower_bound else got == claimed)
        want = f"{'>= ' if lower_bound else ''}{claimed}"
    if ok:
        return []
    return [f"{what} {curve}: oracle order {got if got is not None else 'zero'}, claimed {want}"]


def candidates_tested(machine: dict) -> int:
    """Search candidates tested, from sing-search and report --all claims."""
    if machine["command"] == "sing-search":
        return machine["claims"]["candidates_tested"]
    if machine["command"] == "report":
        return machine["claims"]["sing_search"]["candidates_tested"]
    return 0


def parse_machine(res: CommandResult):
    text = res.machine_text
    if text is None:
        return None
    return json.loads(text)
