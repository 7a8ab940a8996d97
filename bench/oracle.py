"""Inputs and independent answers for the qgelfand benchmark.

* ``query_blocks`` turns a seed into the eigen-queries workload: an
  endless, reproducible series of blocks of ``eigenvalue`` and ``limit``
  calls.
* ``eigenvalue_at`` and ``classical_value`` recompute their answers with
  ``fractions.Fraction`` alone, without importing qgelfand.
* ``compare_rows`` checks a ``verify`` JSON report row by row against a
  recorded reference report.
"""

from __future__ import annotations

import functools
import random
import re
from fractions import Fraction

Q0 = Fraction(3, 2)
Q0_TEXT = "3/2"


# ---------------------------------------------------------------------------
# query generator
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def dominant_weights(size, n):
    """Weakly decreasing tuples of ``n`` nonnegative integers summing to
    ``size``, in lexicographically decreasing order."""
    if n == 1:
        return ((size,),)
    out = []
    for first in range(size, -1, -1):
        if first * n < size:
            break
        for rest in dominant_weights(size - first, n - 1):
            if rest[0] <= first:
                out.append((first,) + rest)
    return tuple(out)


BLOCK = 180


def block_cells():
    """The (verb, n, m_max, |lambda|) cells of an eigen-queries block.

    Every (verb, n, m_max) cell occurs three times, with |lambda| once in
    each of 0..5, 6..11 and 12..16.  Within one (verb, n) the six m_max
    values take every size of the two lower strata once and every size
    of the upper one at least once, in a pairing that shifts with (verb,
    n).  The cells are the same for every seed.
    """
    cells = []
    for k, (verb, n) in enumerate((verb, n) for verb in ("eigenvalue", "limit")
                                  for n in range(2, 7)):
        for i, m_max in enumerate(range(1, 7)):
            for size in ((i + k) % 6, 6 + (i + 2 * k + 1) % 6,
                         12 + (i + 3 * k + 2) % 5):
                cells.append((verb, n, m_max, size))
    return cells


def query_blocks(seed):
    """Endless blocks of ``BLOCK`` CLI argument lists for the
    eigen-queries workload.

    Every block holds the cells of ``block_cells()``: n uniform on 2..6,
    m-max uniform on 1..6, |lambda| spread over 0..16, half ``eigenvalue
    --eval-q 3/2`` and half ``limit``.  The seed draws, block by block,
    lambda uniformly among the dominant weights of each cell's size, and
    the order of the queries.  A query's cost grows steeply with n, m-max
    and |lambda|, so fixing the cells keeps a block's work nearly the same
    from block to block and from seed to seed.
    """
    rng = random.Random(seed)
    while True:
        block = []
        for verb, n, m_max, size in block_cells():
            lam = rng.choice(dominant_weights(size, n))
            args = [verb, "--n", str(n), "--lambda",
                    ",".join(map(str, lam)), "--m-max", str(m_max)]
            if verb == "eigenvalue":
                args += ["--eval-q", Q0_TEXT]
            block.append(args)
        rng.shuffle(block)
        yield block


def parse_query(argv):
    """(verb, lambda, m_max) of a generated query."""
    lam = tuple(int(x) for x in argv[argv.index("--lambda") + 1].split(","))
    return argv[0], lam, int(argv[argv.index("--m-max") + 1])


# ---------------------------------------------------------------------------
# Fraction oracles
# ---------------------------------------------------------------------------

def _shifted(lam):
    n = len(lam)
    return [lam[i] + n - 1 - i for i in range(n)]


def _qint(k, q):
    return (q ** k - q ** -k) / (q - 1 / q)


def eigenvalue_at(lam, m, q=Q0):
    """sum_k q^{2 l_k m} prod_{i != k} [l_i - l_k + 1]_q / [l_i - l_k]_q at
    a rational q, with l_i = lambda_i + n - i."""
    ell = _shifted(lam)
    total = Fraction(0)
    for k, lk in enumerate(ell):
        term = q ** (2 * lk * m)
        for i, li in enumerate(ell):
            if i != k:
                term *= _qint(li - lk + 1, q) / _qint(li - lk, q)
        total += term
    return total


def classical_value(lam, m):
    """Perelomov-Popov eigenvalue of tr E^m on L(lambda):
    sum_k l_k^m prod_{i != k} (l_i - l_k + 1) / (l_i - l_k)."""
    ell = _shifted(lam)
    total = Fraction(0)
    for k, lk in enumerate(ell):
        term = Fraction(lk) ** m
        for i, li in enumerate(ell):
            if i != k:
                term *= Fraction(li - lk + 1, li - lk)
        total += term
    return total


_EIGEN_LINE = re.compile(r"^E_(\d+)\((.*?)\) = .+   \[q=" + re.escape(Q0_TEXT)
                         + r": (-?\d+(?:/\d+)?)\]$")
_LIMIT_LINE = re.compile(r"^m=(\d+): (-?\d+(?:/\d+)?)$")


def check_answer(argv, code, output):
    """True when a query's exit code and printed values are right."""
    verb, lam, m_max = parse_query(argv)
    lines = output.splitlines()
    if code != 0 or len(lines) != m_max + 1:
        return False
    lam_text = ",".join(map(str, lam))
    for m, line in enumerate(lines):
        if verb == "eigenvalue":
            hit = _EIGEN_LINE.match(line)
            if (hit is None or int(hit[1]) != m or hit[2] != lam_text
                    or Fraction(hit[3]) != eigenvalue_at(lam, m)):
                return False
        else:
            hit = _LIMIT_LINE.match(line)
            if (hit is None or int(hit[1]) != m
                    or Fraction(hit[2]) != classical_value(lam, m)):
                return False
    return True


# ---------------------------------------------------------------------------
# verify reports
# ---------------------------------------------------------------------------

def report_rows(report):
    """The frozen part of a ``verify`` JSON report, one tuple per row."""
    return [(c["name"], c["context"], c["verdict"], c["lhs"], c["rhs"])
            for c in report["checks"]]


def compare_rows(reference, rows):
    """(attempted, failed) for ``rows`` against the ``reference`` rows.

    Rows are keyed by (name, context).  Every reference row is attempted;
    a row that is missing, extra, repeated or changed in verdict or
    rendering fails.
    """
    want = {tuple(r[:2]): tuple(r[2:]) for r in reference}
    got = {}
    repeated = 0
    for r in rows:
        key = tuple(r[:2])
        repeated += key in got
        got[key] = tuple(r[2:])
    missing = len(want.keys() - got.keys())
    extra = len(got.keys() - want.keys()) + repeated
    changed = sum(want[k] != got[k] for k in want.keys() & got.keys())
    return len(want) + extra, missing + extra + changed
