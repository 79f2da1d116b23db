"""Independent reference computations used as test oracles.

Everything here works by direct integer substitution or plain exhaustive
scanning, never through the polynomial engine or the production search, so a
disagreement implicates exactly one side.
"""

import json
from itertools import product
from math import gcd, isqrt

ROW_VARS = ("alpha", "beta", "gamma", "a", "b", "c", "d", "e", "f", "p", "q")


def forms_at(x, y, z):
    """(r, s, t, u, v, w) at a point."""
    return (x - y, y + z, z + x, x + y + z, y - z - x, x - y - z)


def abc_at(n, x, y, z):
    r, s, t, u, v, w = forms_at(x, y, z)
    xy = (x * y) ** (n - 2)
    yz = (y * z) ** (n - 2)
    zx = (z * x) ** (n - 2)
    a = r * r * (u**4 - 1) * xy - s * s * (v**4 - 1) * yz - t * t * (w**4 - 1) * zx
    b = 2 * (r * u) ** 2 * xy - 2 * (s * v) ** 2 * yz - 2 * (t * w) ** 2 * zx
    c = r * r * (u**4 + 1) * xy - s * s * (v**4 + 1) * yz - t * t * (w**4 + 1) * zx
    return a, b, c


def qmp_at(n, x, y, z):
    r, s, t, u, v, w = forms_at(x, y, z)
    xy = (x * y) ** (n - 2)
    yz = (y * z) ** (n - 2)
    zx = (z * x) ** (n - 2)
    q = r * r * xy - s * s * yz - t * t * zx
    m = (r * u) ** 2 * xy - (s * v) ** 2 * yz - (t * w) ** 2 * zx
    p = (r * u * u) ** 2 * xy - (s * v * v) ** 2 * yz - (t * w * w) ** 2 * zx
    return q, m, p


def identity_lhs_at(n, x, y, z):
    r, s, t, _, _, _ = forms_at(x, y, z)
    return (8 * r * s * t) ** 2 * (x * y * z) ** (n - 2) * (x**n + y**n - z**n)


def consistency_rhs_at(n, x, y, z):
    r, s, t, _, _, _ = forms_at(x, y, z)
    return (4 * r * s * t) ** 2 * (x * y * z) ** (n - 2) * (x**n + y**n - z**n)


def canonical_pq(p, q):
    """Quotient the (p, q) -> (-p, -q) symmetry: q >= 0, and p >= 0 when q = 0."""
    if q < 0 or (q == 0 and p < 0):
        return (-p, -q)
    return (p, q)


def naive_unit_scan(low, high):
    """Full 11-variable reference scan of the unit case over a box.

    Enumerates (a..f) over the box and then scans candidate (p, q) pairs
    exhaustively against all three equations, with |q| bounded by the square
    root of the largest possible first right-hand side and |p| by the
    largest possible magnitude of the other two.  Returns the set of
    canonical 11-tuples (alpha, beta, gamma, a, b, c, d, e, f, p, q).
    """
    span = range(low, high + 1)
    biggest = max(abs(low), abs(high))
    q_max = isqrt(biggest * biggest)
    p_max = max(3 * biggest**4, isqrt(3 * biggest**6) + 1)
    found = set()
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    for e in span:
                        for f in span:
                            e1 = a * a - b * b - c * c
                            e2 = (a * d) ** 2 - (b * e) ** 2 - (c * f) ** 2
                            e3 = (a * d * d) ** 2 - (b * e * e) ** 2 - (c * f * f) ** 2
                            for q in range(0, q_max + 1):
                                if q * q != e1:
                                    continue
                                for p in range(-p_max, p_max + 1):
                                    if p * q == e2 and p * p == e3:
                                        found.add(
                                            (1, 1, 1, a, b, c, d, e, f) + canonical_pq(p, q)
                                        )
    return found


def _oracle_kernel(alpha, beta, gamma, a, b, c_values, d_pows, e_pows, f_pows, out):
    """The search kernel before the sign quotient: every signed (c, d, e, f)."""
    a_sq = a * a * alpha
    b_sq = b * b * beta
    for c in c_values:
        c_sq = c * c * gamma
        val_q2 = a_sq - b_sq - c_sq
        if val_q2 < 0:
            continue
        q = isqrt(val_q2)
        if q * q != val_q2:
            continue
        for d, d2, d4 in d_pows:
            ad2 = a_sq * d2
            ad4 = a_sq * d4
            for e, e2, e4 in e_pows:
                part_pq = ad2 - b_sq * e2
                part_p2 = ad4 - b_sq * e4
                for f, f2, f4 in f_pows:
                    val_pq = part_pq - c_sq * f2
                    val_p2 = part_p2 - c_sq * f4
                    if q:
                        p, residue = divmod(val_pq, q)
                        if residue or p * p != val_p2:
                            continue
                    else:
                        if val_pq or val_p2 < 0:
                            continue
                        p = isqrt(val_p2)
                        if p * p != val_p2:
                            continue
                    out.append([alpha, beta, gamma, a, b, c, d, e, f, p, q])


def oracle_scan_shard(space, shard_id):
    """``_scan_shard`` as it was before the sign quotient: the same checkpoint record.

    Blocks are the ``(first, second)`` pairs of the enumerated variables;
    shard ``i`` of ``n`` takes blocks ``[i * B // n, (i + 1) * B // n)``.
    """
    def values(name):
        if name not in space.bounds:
            return [1]
        low, high = space.bounds[name]
        return list(range(low, high + 1))

    names = ("alpha", "beta", "gamma", "a", "b")
    first, second = space.enumerated_vars[:2]
    blocks = [(i, j) for i in values(first) for j in values(second)]
    start = shard_id * len(blocks) // space.shards
    stop = (shard_id + 1) * len(blocks) // space.shards
    c_values = values("c")
    pows = [[(v, v * v, v**4) for v in values(name)] for name in "def"]
    solutions = []
    outer = [values(name) for name in names]
    at = names.index(first)
    for i, j in blocks[start:stop]:
        outer[at : at + 2] = [i], [j]
        for alpha, beta, gamma, a, b in product(*outer):
            _oracle_kernel(alpha, beta, gamma, a, b, c_values, *pows, solutions)
    solutions.sort()
    total = 1
    for name in space.enumerated_vars:
        total *= len(values(name))
    return {
        "format": 1,
        "signature": space.signature(),
        "shard": shard_id,
        "shards": space.shards,
        "blocks": [start, stop],
        "scanned": (stop - start) * (total // len(blocks)),
        "solutions": solutions,
    }


def _divides(divisor, value):
    return value == 0 if divisor == 0 else value % divisor == 0


def oracle_conditions(row):
    """Condition flags of one row ``(alpha, beta, gamma, a, b, c, d, e, f, p, q)``.

    The per-instance classification the search used before it streamed its
    rows, with the equations checked by direct substitution.  Returns the
    eleven report fields plus ``admissible_with_adjacent_def``.
    """
    alpha, beta, gamma, a, b, c, d, e, f, p, q = row
    satisfied = (
        q * q == a * a * alpha - b * b * beta - c * c * gamma
        and p * q == (a * d) ** 2 * alpha - (b * e) ** 2 * beta - (c * f) ** 2 * gamma
        and p * p
        == (a * d * d) ** 2 * alpha - (b * e * e) ** 2 * beta - (c * f * f) ** 2 * gamma
    )
    trivial = a * b * c == 0 or (p == 0 and q == 0)
    def_pair = d != 0 and e != 0 and f != 0 and len({d, e, f}) == 3
    def_adj = d != e and e != f and f != 0
    aa, ab, ag = abs(alpha), abs(beta), abs(gamma)
    case_unit = alpha == 1 and beta == 1 and gamma == 1
    gen_pair = aa != 0 and ab != 0 and ag != 0 and len({aa, ab, ag}) == 3
    gen_adj = aa != ab and ab != ag and ag != 0
    div_ok = _divides(alpha, a) and _divides(beta, b) and _divides(gamma, c)
    non_unit = aa != a and ab != b and ag != c

    def verdict(gen_ok):
        cases = case_unit or (gen_ok and div_ok and non_unit)
        return satisfied and not trivial and def_pair and cases

    adjacent_cases = case_unit or (gen_adj and div_ok and non_unit)
    return {
        "satisfied": satisfied,
        "trivial": trivial,
        "def_distinct_nonzero": def_pair,
        "def_distinct_nonzero_adjacent": def_adj,
        "case_unit": case_unit,
        "case_general_distinct": gen_pair,
        "case_general_distinct_adjacent": gen_adj,
        "divisibility": div_ok,
        "non_unit_divisors": non_unit,
        "counterexample_pairwise": verdict(gen_pair),
        "counterexample_adjacent": verdict(gen_adj),
        "admissible_with_adjacent_def": (
            satisfied and not trivial and def_adj and not def_pair and adjacent_cases
        ),
    }


def oracle_log_line(row, flags):
    """One result-log line as the search wrote it before streaming: a dict per row, ``json.dumps``."""
    obj = dict(zip(ROW_VARS, row))
    obj["conditions"] = {
        name: flags[name]
        for name in (
            "satisfied",
            "trivial",
            "def_distinct_nonzero",
            "def_distinct_nonzero_adjacent",
            "case_unit",
            "case_general_distinct",
            "case_general_distinct_adjacent",
            "divisibility",
            "non_unit_divisors",
        )
    }
    obj["counterexample"] = {
        "pairwise": flags["counterexample_pairwise"],
        "adjacent": flags["counterexample_adjacent"],
    }
    obj["adjacent_def_admissible"] = flags["admissible_with_adjacent_def"]
    obj["trivial"] = flags["trivial"]
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def oracle_result_log(rows):
    """The result log the way the search wrote it before streaming.

    Sorts the rows, classifies each, and yields ``(row, flags, line)`` per
    row so a caller can check reports and log bytes in one pass.
    """
    for row in sorted(tuple(row) for row in rows):
        flags = oracle_conditions(row)
        yield row, flags, oracle_log_line(row, flags)


def oracle_enumerate_triples(c_max, *, primitive_only=False, even_b_only=False):
    """Ordered triples with 5 <= c <= c_max by a direct double loop over (c, a)."""
    found = []
    for c in range(5, c_max + 1):
        c2 = c * c
        for a in range(1, c):
            rest = c2 - a * a
            b = isqrt(rest)
            if b < 1 or b * b != rest:
                continue
            if primitive_only and gcd(gcd(a, b), c) != 1:
                continue
            if even_b_only and b % 2:
                continue
            found.append((a, b, c))
    found.sort()
    return found


def oracle_represent_triple(a, b, c):
    """(p, q) with p > q > 0 and (p^2 - q^2, 2pq, p^2 + q^2) == (a, b, c), or None.

    Exhausts 0 < q < p <= isqrt(|c|) + 2, which is complete: any witness has
    p^2 < p^2 + q^2 = c.
    """
    if a <= 0 or b <= 0 or b % 2 or c < 5:
        return None
    bound = isqrt(abs(c)) + 2
    for p in range(2, bound + 1):
        p2 = p * p
        for q in range(1, p):
            if p2 - q * q == a and 2 * p * q == b and p2 + q * q == c:
                return (p, q)
    return None


def oracle_scan_power_equation(base_max, n):
    """(x, y, z) with 1 <= x <= y <= base_max and x^n + y^n = z^n by an integer walk.

    For each x, z only moves up as y does: it is never below y and rises
    while z^n < x^n + y^n, so no root and no float is ever taken.
    """
    solutions = []
    for x in range(1, base_max + 1):
        z = x
        for y in range(x, base_max + 1):
            target = x**n + y**n
            z = max(z, y)
            while z**n < target:
                z += 1
            if z**n == target:
                solutions.append((x, y, z))
    return solutions


def _chain(values, reading):
    """``v1 != v2 != ... != 0`` read pairwise (all distinct, all nonzero) or adjacent."""
    if reading == "pairwise":
        return 0 not in values and len(set(values)) == len(values)
    return all(a != b for a, b in zip(values, values[1:])) and values[-1] != 0


def _oracle_conclusion(claim, x, y, z, reading, k):
    r, s, t = x - y, y + z, z + x
    u, v, w = x + y + z, y - z - x, x - y - z
    products = (x * y, y * z, z * x)
    terms = (r * (x * y) ** (k - 1), s * (y * z) ** (k - 1), t * (z * x) ** (k - 1))
    if claim == "uvw_distinct_nonzero":
        return _chain((u, v, w), reading)
    if claim == "pairprod_distinct_nonzero":
        return _chain(tuple(abs(g) for g in products), reading)
    if claim == "coeff_divides_term":
        return all(_divides(g, term) for g, term in zip(products, terms))
    if claim == "rst_distinct_nonzero":
        return _chain((r, s, t), reading)
    if claim == "coeff_not_unit_multiple":
        return all(abs(g) != term for g, term in zip(products, terms))
    raise ValueError(claim)


# (claim, hypothesis assumes gcd(x, y, z) = 1, conclusion depends on k)
_ORACLE_CLAIMS = (
    ("uvw_distinct_nonzero", False, False),
    ("pairprod_distinct_nonzero", False, False),
    ("coeff_divides_term", False, True),
    ("rst_distinct_nonzero", True, False),
    ("coeff_not_unit_multiple", True, True),
)


def oracle_replay(claim, reading, point, k):
    """``replay_condition_counterexample``: the hypothesis holds, the conclusion fails."""
    x, y, z = point
    needs_coprime = next(coprime for c, coprime, _ in _ORACLE_CLAIMS if c == claim)
    if needs_coprime and gcd(gcd(x, y), z) != 1:
        return False
    hypothesis = _chain((abs(x), abs(y), abs(z)), reading)
    return hypothesis and not _oracle_conclusion(claim, x, y, z, reading, k)


def oracle_condition_checks(box_bound, k):
    """``verify_condition_derivations`` by testing every point of the box per check.

    The hypothesis (magnitude chain, plus coprimality where the claim needs
    it) and the conclusions are written out here from the derivation, not
    taken from ``fltaudit.conditions``.  Returns one ``(claim, reading,
    claim_k, hypothesis_points, counterexamples)`` tuple per check, in the
    production order.
    """
    span = range(-box_bound, box_bound + 1)
    checks = []
    for claim, needs_coprime, needs_k in _ORACLE_CLAIMS:
        for reading in ("pairwise", "adjacent"):
            witnesses = 0
            failures = []
            for x in span:
                for y in span:
                    for z in span:
                        if needs_coprime and gcd(gcd(x, y), z) != 1:
                            continue
                        if not _chain((abs(x), abs(y), abs(z)), reading):
                            continue
                        witnesses += 1
                        if not _oracle_conclusion(claim, x, y, z, reading, k):
                            failures.append((x, y, z))
            checks.append((claim, reading, k if needs_k else None, witnesses, tuple(failures)))
    return checks
