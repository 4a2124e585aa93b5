"""The two benchmark workloads and the output checks for their answers.

Each workload builds a pool of queries from a seed, grouped in rounds.  A
run executes a fixed number of whole rounds, `seconds / round_seconds`,
so every run of a seed holds the same queries.  A query is one timed call into pqnorm (`run`) plus
an untimed check of its answer (`check`) against the numpy oracles in
`oracle.py`.  All workloads are closed loops with one client: the next
query starts when the previous one returned.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

import oracle
import pqnorm as P
from pqnorm import cli

EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)
DECISIONS = ("yes", "no", "undetermined")

# Kinds of failure this commit is known to have.  They count in `failed`
# like any other failure; only a failure of another kind makes a run report
# correct = false, so a change that adds a new kind of wrong answer shows.
KNOWN_DEFECTS = {
    "scale": "rescaling by 2^k changes or breaks the answer",
    "enumeration-cap": "real matrix above the 24-column sign-enumeration cap",
    "jacobi-svd": "the hand-written Jacobi SVD did not converge",
    "ulp-inversion": "bracket inverted by rounding only (gap <= 1e-12 relative)",
}
ULP_GAP = 1e-12


def _ix(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


@dataclass
class Outcome:
    """What the untimed check found in one answer."""

    reasons: List[str] = field(default_factory=list)
    decision: Optional[str] = None
    widths: List[float] = field(default_factory=list)
    defects: List[Optional[str]] = field(default_factory=list)  # KNOWN_DEFECTS key per reason

    def fail(self, why: str, defect: Optional[str] = None) -> None:
        self.reasons.append(why)
        self.defects.append(defect)

    @property
    def unexpected(self) -> bool:
        """Failed for a reason outside KNOWN_DEFECTS."""
        return any(d is None for d in self.defects)


@dataclass
class Query:
    qid: str
    desc: str
    run: Callable[[], object]
    check: Callable[[object, Outcome], None]
    category: Optional[str] = None  # known-defect category the input falls in


# ---------------------------------------------------------------------------
# Checks shared by the library workloads
# ---------------------------------------------------------------------------


class Truth:
    """What is known about ||A||_{p,q} for one matrix, without pqnorm.

    A is the unscaled matrix; the queried matrix is 2^k A, so every
    reference value is scaled exactly with ldexp.  `known` optionally gives
    the exact norm for generator matrices whose norms factorize.
    """

    def __init__(self, A: np.ndarray, k: int = 0, known: Optional[Callable] = None):
        self.A = A
        self.k = k
        self.known = known
        self.complex_field = np.iscomplexobj(A)

    def exact(self, p: float, q: float):
        v = self.known(p, q) if self.known else None
        if v is None:
            v = oracle.exact_norm(self.A, p, q, self.complex_field)
        return None if v is None else math.ldexp(v, self.k)

    def interval(self, p: float, q: float) -> tuple:
        lo, hi = oracle.norm_interval(self.A, p, q)
        exact = self.exact(p, q)
        if exact is not None:
            return exact, exact
        return math.ldexp(lo, self.k), math.ldexp(hi, self.k)


def _finite(x) -> bool:
    return isinstance(x, (float, int, np.floating)) and math.isfinite(float(x))


def check_result(res, truth: Truth, p: float, q: float, out: Outcome, tag: str) -> None:
    """A NormResult: finite; exact values match the oracle; estimates are
    lower bounds, so they must not exceed the oracle's upper bound."""
    if not _finite(res.value):
        out.fail(f"{tag} value {res.value} not finite")
        return
    exact = truth.exact(p, q)
    lo, hi = truth.interval(p, q)
    if res.certainty.is_exact:
        if exact is not None and not oracle.rel_close(res.value, exact):
            out.fail(f"{tag} exact value {res.value!r} != oracle {exact!r}")
        elif exact is None and not (oracle.not_above(lo, res.value) and oracle.not_above(res.value, hi)):
            out.fail(f"{tag} exact value {res.value!r} outside [{lo!r}, {hi!r}]")
    elif not oracle.not_above(res.value, hi):
        out.fail(f"{tag} lower bound {res.value!r} above oracle upper {hi!r}")


def check_bracket(br, truth: Truth, p: float, q: float, out: Outcome, tag: str) -> None:
    if not (_finite(br.lower) and _finite(br.upper)):
        out.fail(f"{tag} bracket [{br.lower}, {br.upper}] not finite")
        return
    if br.lower > br.upper:
        ulp = br.lower - br.upper <= ULP_GAP * br.lower
        out.fail(f"{tag} bracket inverted [{br.lower!r}, {br.upper!r}]", "ulp-inversion" if ulp else None)
        return
    check_result(br.result, truth, p, q, out, tag)
    lo, _ = truth.interval(p, q)
    if not oracle.not_above(lo, br.upper):
        out.fail(f"{tag} upper bound {br.upper!r} below oracle lower {lo!r}")
    if not br.is_exact and br.upper > 0:
        out.widths.append((br.upper - br.lower) / br.upper)


def check_verdict(member: str, out: Outcome, known_member: bool, tag: str) -> None:
    if member not in DECISIONS:
        out.fail(f"{tag} verdict {member!r} not three-state")
        return
    out.decision = member
    if known_member and member == "no":
        out.fail(f"{tag} known member answered 'no'")


# ---------------------------------------------------------------------------
# stream-small
# ---------------------------------------------------------------------------

CALLS = ("best_norm", "bracket_norm", "decide_equality", "check_class", "check_svd_equality")
PAIRS = tuple(itertools.product(EXPONENTS, EXPONENTS))
DESIGN = tuple(itertools.product(CALLS, (False, True), PAIRS))
CLASSES = tuple(P.ClassId)
SVD_CORNERS = ((3.0, 1.5), (1.0, 3.0), (1.0, 1.5), (3.0, 3.0))
# Block of 20 slots: 70% Gaussian, 20% generator, 10% rescaled copies.
BLOCK_SLOTS = "G" * 14 + "K" * 4 + "R" * 2
GEN_KINDS = ("hadamard", "single", "svd", "dft", "tensor")
# DFT meets E_inf1 at (2,2) through biunimodular vectors; its decider is
# the slow path, so it is one class test in five.
DFT_CLASSES = (P.ClassId.E_11, P.ClassId.E_INFINF, P.ClassId.E_11, P.ClassId.E_INFINF, P.ClassId.E_INF1)
HADAMARD_CLASSES = (P.ClassId.E_11, P.ClassId.E_INFINF)


def _gaussian(rng: np.random.Generator, n: int, m: int, complex_field: bool) -> np.ndarray:
    A = rng.standard_normal((n, m))
    if complex_field:
        A = A + 1j * rng.standard_normal((n, m))
    return A


def _library_query(qid: str, call: str, A: np.ndarray, truth: Truth, exps: tuple, cls,
                   known_member=False, category=None, desc_extra="") -> Query:
    """One library call on A at exponents exps = (p, q, r, s)."""
    p, q, r, s = exps
    field_tag = "complex" if np.iscomplexobj(A) else "real"
    shape = f"{field_tag} {A.shape[0]}x{A.shape[1]}{desc_extra}"
    if call == "best_norm":
        desc = f"best_norm {shape} p={_ix(p)} q={_ix(q)}"
        run = lambda: P.best_norm(A, p, q)
        check = lambda res, out: check_result(res, truth, p, q, out, "best_norm")
    elif call == "bracket_norm":
        desc = f"bracket_norm {shape} p={_ix(p)} q={_ix(q)}"
        run = lambda: P.bracket_norm(A, p, q)
        check = lambda br, out: check_bracket(br, truth, p, q, out, "bracket")
    elif call == "decide_equality":
        desc = f"decide_equality {shape} p={_ix(p)} q={_ix(q)} r={_ix(r)} s={_ix(s)}"
        run = lambda: P.decide_equality(A, p, q, r, s)

        def check(res, out):
            verdict, details = res
            check_bracket(details["lhs"], truth, r, s, out, "lhs")
            check_bracket(details["rhs"], truth, p, q, out, "rhs")
            check_verdict(verdict, out, known_member, "decide_equality")
    elif call == "check_class":
        desc = f"check_class {cls.value} {shape} p={_ix(p)} q={_ix(q)}"
        run = lambda: P.check_class(A, cls, p, q)
        check = lambda v, out: check_verdict(v.member, out, known_member, "check_class")
    else:
        desc = f"check_svd_equality {shape} r={_ix(r)} s={_ix(s)}"
        run = lambda: P.check_svd_equality(A, r, s)
        check = lambda v, out: check_verdict(v.member, out, known_member, "check_svd_equality")
    return Query(qid, desc, run, check, category)


def _exact_results(res) -> list:
    """The NormResults inside an answer, in a fixed order."""
    if isinstance(res, tuple):
        return [res[1]["lhs"].result, res[1]["rhs"].result]
    if isinstance(res, P.NormBracket):
        return [res.result]
    return [res] if isinstance(res, P.NormResult) else []


def _verdict_of(res):
    if isinstance(res, tuple):
        return res[0]
    return getattr(res, "member", None)


def _scale_check(base_check: Callable, k: int, unscaled: Query) -> Callable:
    """Add the scale-invariance test: the same call on the unscaled matrix
    must give exact values 2^-k times as large and the same verdict."""

    def check(res, out):
        base_check(res, out)
        ref = unscaled.run()
        for got, want in zip(_exact_results(res), _exact_results(ref)):
            if got.certainty.is_exact and want.certainty.is_exact:
                if not oracle.rel_close(got.value, math.ldexp(want.value, k)):
                    out.fail(f"rescaled exact value {got.value!r} != 2^{k} * {want.value!r}")
        if _verdict_of(res) != _verdict_of(ref):
            out.fail(f"rescaled verdict {_verdict_of(res)!r} != unscaled {_verdict_of(ref)!r}")
    return check


class StreamSmall:
    """Library calls on a seeded stream of distinct matrices with n, m <= 8.

    Gaussian and rescaled queries walk a fixed design: each cycle holds
    every (call, field, p, q) once, in an order the seed shuffles.  Shape,
    (r, s) and class follow from the design cell and the cycle, so every
    seed gets the same mix of work and only values and order change.
    """

    name = "stream-small"
    round_seconds = 0.1  # one 20-query block, measured at this commit

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.blocks_per_chunk = 4 if tiny else 250
        self.next_block = 0
        self._orders = {}

    def setup(self) -> List[List[Query]]:
        self.next_block = 0
        return self.more()

    def more(self) -> List[List[Query]]:
        rounds = []
        for _ in range(self.blocks_per_chunk):
            rounds.append(self._block(self.next_block))
            self.next_block += 1
        return rounds

    def _cell(self, stream: int, ordinal: int) -> tuple:
        """(call, complex?, (p, q, r, s), class, n, m) of a design stream's ordinal-th query."""
        cycle, pos = divmod(ordinal, len(DESIGN))
        key = (stream, cycle)
        if key not in self._orders:
            self._orders[key] = np.random.default_rng([self.seed, stream, cycle]).permutation(len(DESIGN))
        cid = int(self._orders[key][pos])
        call, complex_field, (p, q) = DESIGN[cid]
        r, s = PAIRS[(7 * cid + 3 * cycle) % len(PAIRS)]
        shape = (cid + 11 * cycle) % 49
        return call, complex_field, (p, q, r, s), CLASSES[(cid + cycle) % 4], 2 + shape // 7, 2 + shape % 7

    def _block(self, b: int) -> List[Query]:
        rng = np.random.default_rng([self.seed, b])
        slots = list(BLOCK_SLOTS)
        rng.shuffle(slots)
        out = []
        counts = {"G": 0, "K": 0, "R": 0}
        for i, slot in enumerate(slots):
            qid = f"s{b:04d}.{i:02d}"
            ordinal = b * BLOCK_SLOTS.count(slot) + counts[slot]
            counts[slot] += 1
            if slot == "G":
                call, complex_field, exps, cls, n, m = self._cell(0, ordinal)
                A = _gaussian(rng, n, m, complex_field)
                out.append(_library_query(qid, call, A, Truth(A), exps, cls))
            elif slot == "R":
                out.append(self._rescaled(qid, self._cell(1, ordinal), rng))
            else:
                out.append(self._generated(qid, ordinal, rng))
        return out

    @staticmethod
    def _rescaled(qid: str, cell: tuple, rng) -> Query:
        call, complex_field, exps, cls, n, m = cell
        A0 = _gaussian(rng, n, m, complex_field)
        k = int(rng.integers(-1000, 1001))
        A = np.ldexp(A0.real, k)
        if complex_field:
            A = A + 1j * np.ldexp(A0.imag, k)
        query = _library_query(qid, call, A, Truth(A0, k), exps, cls, category="scale",
                               desc_extra=f" *2^{k}")
        unscaled = _library_query(qid, call, A0, Truth(A0), exps, cls)
        query.check = _scale_check(query.check, k, unscaled)
        return query

    @staticmethod
    def _generated(qid: str, ordinal: int, rng) -> Query:
        kind = GEN_KINDS[ordinal % len(GEN_KINDS)]
        turn = ordinal // len(GEN_KINDS)
        field_tag = "real" if turn % 2 == 0 else "complex"
        shape = (11 * turn + 3 * ordinal) % 49
        n, m = 2 + shape // 7, 2 + shape % 7
        p, q = PAIRS[(7 * turn + ordinal) % len(PAIRS)]
        if kind in ("hadamard", "dft"):
            order = (2, 4, 8)[(turn // 5) % 3]
            M = P.gen_hadamard(order) if kind == "hadamard" else P.gen_dft(order)
            classes = HADAMARD_CLASSES if kind == "hadamard" else DFT_CLASSES
            return _library_query(qid, "check_class", M.entries, Truth(M.entries), (2.0,) * 4,
                                  classes[turn % len(classes)], known_member=True,
                                  desc_extra=f" {kind}")
        if kind == "svd":
            r, s = SVD_CORNERS[turn % len(SVD_CORNERS)]
            rank = int(rng.integers(1, min(m, n) + 1))
            sigma = [2.0] + sorted(rng.uniform(0.5, 1.5, rank - 1).tolist(), reverse=True)
            M = P.gen_svd_extremal(m, n, r, s, sigma, seed=int(rng.integers(0, 1 << 31)),
                                   field_tag=field_tag)
            return _library_query(qid, "check_svd_equality", M.entries, Truth(M.entries),
                                  (p, q, r, s), None, known_member=True,
                                  desc_extra=f" svd-extremal rank {rank}")
        call = ("check_class", "best_norm", "bracket_norm", "check_class")[turn % 4]
        if kind == "single":
            rho = float(rng.uniform(0.5, 2.0))
            M = P.gen_single_entry(m, n, int(rng.integers(0, n)), int(rng.integers(0, m)), rho)
            known = lambda p, q: rho
            cls = P.ClassId.E_1INF
        else:
            b = P.kclass_unit_vector(P.KClassId.K1, m, rng, field_tag)
            c = P.kclass_unit_vector(P.KClassId.K1, n, rng, field_tag)
            M = P.gen_tensor_product(c, b)
            known = _tensor_norm(c, b)
            cls = P.ClassId.E_INF1
        return _library_query(qid, call, M.entries, Truth(M.entries, known=known),
                              (p, q, p, q), cls, known_member=True, desc_extra=f" {kind}")


def _tensor_norm(c: np.ndarray, b: np.ndarray) -> Callable:
    """||c b^T||_{p,q} = ||b||_{p*} ||c||_q."""
    def norm(p: float, q: float) -> float:
        return oracle.vnorm(b, oracle.dual(p)) * oracle.vnorm(c, q)
    return norm


# ---------------------------------------------------------------------------
# grid-shared
# ---------------------------------------------------------------------------

GRID = "1,1.5,2,3,inf"
# (label, field, size); DFT-8 and Hadamard-16 are generated, not Gaussian.
FILE_SPECS = (
    ("r4", "real", 4), ("c32", "complex", 32), ("r8", "real", 8), ("c16", "complex", 16),
    ("dft8", "dft", 8), ("r20", "real", 20), ("c4", "complex", 4), ("r32", "real", 32),
    ("c8", "complex", 8), ("h16", "hadamard", 16), ("r16", "real", 16),
)
TINY_FILE_SPECS = (FILE_SPECS[0], FILE_SPECS[4], FILE_SPECS[6])
CLASS_MEMBERS = {"dft": {"E_11", "E_infinf", "E_inf1"}, "hadamard": {"E_11", "E_infinf", "E_inf1"}}
EXIT_DECISION = {0: "yes", 3: "no", 4: "undetermined"}


def run_cli(argv: List[str]) -> tuple:
    """pqnorm's CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class GridShared:
    """The CLI on JSON files written during set-up; many (p,q) pairs per matrix."""

    name = "grid-shared"
    round_seconds = 6.0  # one pass over the 11 files, measured at this commit

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.specs = TINY_FILE_SPECS if tiny else FILE_SPECS
        self.passes_per_chunk = 1 if tiny else 8
        self.next_pass = 0

    def setup(self) -> List[List[Query]]:
        # The sweep's thread pool gets one thread per available core.
        os.environ["THREADS"] = str(len(os.sched_getaffinity(0)))
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.next_pass = 0
        return self.more()

    def more(self) -> List[List[Query]]:
        """One round per pass: fresh files of every spec, so each run holds whole passes."""
        rounds = []
        for _ in range(self.passes_per_chunk):
            rng = np.random.default_rng([self.seed, self.next_pass])
            rounds.append([q for label, kind, size in self.specs
                           for q in self._file_queries(self.next_pass, label, kind, size, rng)])
            self.next_pass += 1
        return rounds

    def _file_queries(self, pno: int, label: str, kind: str, size: int, rng) -> List[Query]:
        if kind == "dft":
            M = P.gen_dft(size)
        elif kind == "hadamard":
            M = P.gen_hadamard(size)
        else:
            M = P.MatrixValue(_gaussian(rng, size, size, kind == "complex"), kind)
        path = os.path.join(self.workdir, f"p{pno:03d}-{label}.json")
        P.save_matrix(M, path)
        A = M.entries
        truth = Truth(A)
        # Above the cap, check E_inf1 raises and verify compares two estimates.
        capped = "enumeration-cap" if kind == "real" and size > 24 else None
        prefix = f"g{pno:03d}.{label}"
        qs = []

        def add(name, argv, check, category=None):
            qs.append(Query(f"{prefix}.{name}", f"pqnorm {' '.join(argv)}",
                            lambda: run_cli(argv), check, category))

        add("verify", ["verify", path], _check_verify, capped)
        add("sweep", ["sweep", path, "-", "-p", "2", "-q", "2", "--r-grid", GRID, "--s-grid", GRID],
            lambda res, out: _check_sweep(res, out, truth))
        members = CLASS_MEMBERS.get(kind, set())
        for cls in ("E_1inf", "E_11", "E_infinf", "E_inf1"):
            add(f"check-{cls}", ["check", path, cls, "-p", "2", "-q", "2"],
                lambda res, out, known=cls in members: _check_class_exit(res, out, known),
                capped if cls == "E_inf1" else None)
        add("check-1.5,3", ["check", path, "1.5,3", "-p", "2", "-q", "2", "--json"],
            lambda res, out: _check_pointwise(res, out, truth))
        add("norm-inf,1", ["norm", path, "-p", "inf", "-q", "1"],
            lambda res, out: _check_norm_cli(res, out, truth, math.inf, 1.0))
        if size <= 8:
            add("norm-budget", ["norm", path, "-p", "1.5", "-q", "3", "--budget", "10000"],
                lambda res, out: _check_norm_cli(res, out, truth, 1.5, 3.0))
        return qs


def _exit_ok(code: int, out: Outcome, allowed) -> bool:
    if code not in allowed:
        out.fail(f"exit code {code}")
        return False
    return True


def _check_verify(res, out: Outcome) -> None:
    code, stdout, _ = res
    if _exit_ok(code, out, (0,)):
        return
    fails = [ln for ln in stdout.splitlines() if ln.startswith("FAIL")]
    if fails:
        out.reasons[-1] += " (" + "; ".join(fails) + ")"


def _parse_index(tok: str) -> float:
    return math.inf if tok == "inf" else float(tok)


def _check_sweep(res, out: Outcome, truth: Truth) -> None:
    code, stdout, _ = res
    if not _exit_ok(code, out, (0,)):
        return
    rows = stdout.strip().splitlines()[1:]
    if len(rows) != 25:
        out.fail(f"sweep printed {len(rows)} rows, expected 25")
    for row in rows:
        r, s, value, _, _, ratio, certainty = row.split(",")
        value, ratio = float(value), float(ratio)
        tag = f"sweep ({r},{s})"
        if not (math.isfinite(value) and math.isfinite(ratio)):
            out.fail(f"{tag} not finite")
            continue
        exact = truth.exact(_parse_index(r), _parse_index(s))
        if certainty.startswith("exact") and exact is not None and not oracle.rel_close(value, exact):
            out.fail(f"{tag} exact value {value!r} != oracle {exact!r}")
        if ratio > 1.0 + 1e-6:
            out.fail(f"{tag} comparison bound violated, ratio {ratio!r}")


def _check_class_exit(res, out: Outcome, known_member: bool) -> None:
    code = res[0]
    if _exit_ok(code, out, tuple(EXIT_DECISION)):
        check_verdict(EXIT_DECISION[code], out, known_member, "check")


def _check_pointwise(res, out: Outcome, truth: Truth) -> None:
    code, stdout, _ = res
    if not _exit_ok(code, out, tuple(EXIT_DECISION)):
        return
    payload = json.loads(stdout)
    for key, (p, q) in (("lhs_bracket", (1.5, 3.0)), ("rhs_bracket", (2.0, 2.0))):
        lower, upper = payload[key]
        if lower > upper:
            out.fail(f"{key} inverted [{lower!r}, {upper!r}]")
            continue
        lo, hi = truth.interval(p, q)
        if not (oracle.not_above(lower, hi) and oracle.not_above(lo, upper)):
            out.fail(f"{key} [{lower!r}, {upper!r}] misses oracle [{lo!r}, {hi!r}]")
        if lower < upper:
            out.widths.append((upper - lower) / upper)
    check_verdict(payload["member"], out, False, "check")


def _check_norm_cli(res, out: Outcome, truth: Truth, p: float, q: float) -> None:
    code, stdout, _ = res
    if not _exit_ok(code, out, (0,)):
        return
    value_tok, certainty = stdout.splitlines()[0].split()[:2]
    value = float(value_tok)
    if not math.isfinite(value):
        out.fail(f"norm {value_tok} not finite")
        return
    exact = truth.exact(p, q)
    lo, hi = truth.interval(p, q)
    if p == math.inf and q == 1.0:
        # Coordinate vectors and sum of all moduli enclose every (inf,1) norm.
        lo = max(lo, float(np.abs(truth.A).sum(axis=0).max()))
        hi = min(hi, float(np.abs(truth.A).sum()))
    if certainty.startswith("exact"):
        if exact is not None and not oracle.rel_close(value, exact):
            out.fail(f"norm exact value {value!r} != oracle {exact!r}")
        elif not (oracle.not_above(lo, value) and oracle.not_above(value, hi)):
            out.fail(f"norm exact value {value!r} outside [{lo!r}, {hi!r}]")
    elif not oracle.not_above(value, hi):
        out.fail(f"norm lower bound {value!r} above oracle upper {hi!r}")
