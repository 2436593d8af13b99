"""Output checks that do not trust the engine.

Every check works on the emitted JSON text and on the config that produced
it, and recomputes what it compares against with its own code: d_1 from the
Riemann-Roch formula, the induced matrix of a word, its unipotence, and its
eigenvalues through NumPy.  The series rows are compared with digests pinned
from the engine at the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy

from workloads import identity, matmul

DIGEST_FILE = Path(__file__).with_name("series_digests.json")

#: Relative tolerance on the certified entropy bound, recomputed here as
#: points * log(d_1).
ENTROPY_RTOL = 1e-12
#: Absolute tolerance between an irrational log_rho and log of the largest
#: eigenvalue modulus from numpy.linalg.eigvals (the engine refines rho to
#: 1e-9; double-precision eigenvalues of these matrices agree to ~1e-14).
LOG_RHO_ATOL = 1e-8

EXPECTED_VERDICT = {
    "hk": "GY violated",
    "hilb": "GY violated",
    "enriques": "GY violated",
    "lattice_word": "no violation certified",
    "surface_twist": "no violation certified",
}


def load_digests() -> dict[str, str]:
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def series_key(config: dict) -> str | None:
    """The config fields that determine the series rows, as a string."""
    kind = config["kind"]
    if kind == "hk":
        fields = [kind, config["n"], config["q"], config["m_max"]]
    elif kind == "hilb":
        base = config["base"]
        fields = [kind, config["points"], base["n"], base["q"], base["m_max"]]
    elif kind == "enriques":
        cover = config["cover"]
        fields = [kind, cover["n"], cover["q"], cover["m_max"]]
    elif kind == "surface_twist":
        fields = [kind, config["q"], config["k"], config["l"], config["m_max"]]
    else:
        return None
    return json.dumps(fields)


def series_digest(rows: list) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rr_dim1(n: int, q: int) -> int:
    """d_1 = binom(q/2 + n + 1, n), the Riemann-Roch value at i = 1."""
    x = Fraction(q, 2) + n + 1
    val = Fraction(1)
    for t in range(n):
        val *= x - t
    val /= math.factorial(n)
    if val.denominator != 1:
        raise ValueError(f"d_1 is not an integer for n={n}, q={q}")
    return int(val)


def expected_entropy(config: dict) -> float | None:
    kind = config["kind"]
    if kind == "hk":
        return math.log(rr_dim1(config["n"], config["q"]))
    if kind == "hilb":
        base = config["base"]
        return config["points"] * math.log(rr_dim1(base["n"], base["q"]))
    if kind == "enriques":
        cover = config["cover"]
        return math.log(rr_dim1(cover["n"], cover["q"]))
    return None


def word_matrix(config: dict) -> list[list[int]]:
    """Induced matrix of the config's word: generator matrices multiplied in
    list order.  Handles the generator kinds the workloads emit."""
    rank = len(config["lattice"]["gram"])
    result = identity(rank)
    for gen in config["word"]:
        kind = gen["kind"]
        if kind == "shift":
            result = [[-x for x in row] for row in result]
        elif kind in ("tensor", "explicit") and "matrix" in gen:
            result = matmul(result, gen["matrix"])
        elif kind != "ptwist":
            raise ValueError(f"generator {gen!r} is not produced by the workloads")
    return result


def _trace(m):
    return sum(m[i][i] for i in range(len(m)))


def _is_unit_upper(m) -> bool:
    return all(
        m[i][j] == (1 if i == j else 0)
        for i in range(len(m)) for j in range(i + 1)
    )


def is_unipotent(m: list[list[int]]) -> bool:
    """(M - I)^n = 0, with two shortcuts: a unipotent M has trace n, and an
    upper unitriangular M is unipotent."""
    n = len(m)
    if _trace(m) != n:
        return False
    if _is_unit_upper(m):
        return True
    nil = [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
    acc = nil
    for _ in range(n):
        if not any(any(row) for row in acc):
            return True
        acc = matmul(acc, nil)
    return not any(any(row) for row in acc)


def unipotent_up_to_sign(m: list[list[int]]) -> bool:
    """True iff M or M^2 is unipotent, so that every eigenvalue has modulus 1."""
    return is_unipotent(m) or is_unipotent(matmul(m, m))


def check_report(
    config: dict, text: str, digests: dict[str, str], exact_zero: bool | None = None
) -> list[str]:
    """Problems found in one emitted report; an empty list means it passed.

    ``exact_zero`` is ``unipotent_up_to_sign`` of the config's word, when the
    caller has computed it already.
    """
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    kind = config["kind"]
    problems = []
    if report.get("error") is not None:
        problems.append(f"error field set: {report['error']}")
    if report.get("verdict") != EXPECTED_VERDICT[kind]:
        problems.append(
            f"verdict {report.get('verdict')!r}, expected {EXPECTED_VERDICT[kind]!r}"
        )

    got, want = report.get("entropy_lower_certified"), expected_entropy(config)
    if want is None:
        if got is not None:
            problems.append(f"entropy_lower_certified {got!r}, expected null")
    elif not isinstance(got, float) or not math.isclose(got, want, rel_tol=ENTROPY_RTOL):
        problems.append(f"entropy_lower_certified {got!r}, expected {want!r}")

    key = series_key(config)
    rows = report.get("series")
    if key is None:
        if rows != []:
            problems.append("series rows present for a kind without a series")
    elif key not in digests:
        problems.append(f"no pinned series digest for {key}")
    elif series_digest(rows) != digests[key]:
        problems.append(f"series digest {series_digest(rows)} != pinned {digests[key]}")

    if kind == "lattice_word":
        problems.extend(_check_log_rho(config, report, exact_zero))
    elif kind == "enriques":
        log_rho = report.get("log_rho")
        if not isinstance(log_rho, float) or abs(log_rho) > LOG_RHO_ATOL:
            problems.append(f"quotient log_rho {log_rho!r}, expected 0")
    return problems


def _check_log_rho(config: dict, report: dict, exact_zero: bool | None) -> list[str]:
    m = word_matrix(config)
    if exact_zero is None:
        exact_zero = unipotent_up_to_sign(m)
    flag, log_rho = report.get("log_rho_exact_zero"), report.get("log_rho")
    if flag is not exact_zero:
        return [f"log_rho_exact_zero {flag!r}, but M or M^2 unipotent is {exact_zero}"]
    if exact_zero:
        return [] if log_rho == 0.0 else [f"exact-zero log_rho is {log_rho!r}"]
    rho = float(numpy.max(numpy.abs(numpy.linalg.eigvals(numpy.array(m, dtype=float)))))
    if not isinstance(log_rho, float) or abs(log_rho - math.log(rho)) > LOG_RHO_ATOL:
        return [f"log_rho {log_rho!r}, numpy eigvals give {math.log(rho)!r}"]
    return []
