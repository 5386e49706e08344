"""Seeded character-calculus inputs with answers known by construction,
for the ``reps`` and ``cli`` workloads.

The oracles here share no code with ``pelkit.characters``:

* The standard character of every supported block is a sum of minuscule
  orbits ({+-e_i} for C and D, {e_i} and {-e_i} for A).  For a minuscule
  weight w, V(lam) (x) V(w) is the sum of V(lam + mu) over the weights mu
  of V(w) with lam + mu dominant, so std^k decomposes by iterating that
  rule.
* A C_n irreducible V(lam) with central coordinate c has exactly the
  weights of coordinate sum s = -|lam|, -|lam| + 2, ..., |lam|, so its Hodge
  type for the cocharacter mu2 = (1, ..., 1 | 1) is
  {(-(s + c)/2, (s - c)/2)}.
"""

from __future__ import annotations

from math import ceil

from pelkit.characters import Factor, RootDatum, WeightChar


def root_datum(spec: str) -> RootDatum:
    """"C2xC2" -> two C2 blocks plus one central coordinate."""
    return RootDatum(tuple(Factor(p[0], int(p[1:])) for p in spec.split("x")), central_rank=1)


def _blocks(rd: RootDatum):
    start = 0
    for f in rd.factors:
        yield f.series, start, f.n
        start += f.n


def std_orbits(rd: RootDatum):
    """Minuscule orbits whose sum is the standard character of ``rd``."""
    total = rd.total_rank
    orbits = []
    for series, start, n in _blocks(rd):
        signs = ((1,), (-1,)) if series == "A" else ((1, -1),)
        for group in signs:
            orbit = []
            for i in range(n):
                for s in group:
                    w = [0] * total
                    w[start + i] = s
                    w[-1] = 1
                    orbit.append(tuple(w))
            orbits.append(orbit)
    return orbits


def std_char(rd: RootDatum) -> WeightChar:
    return WeightChar({w: 1 for orbit in std_orbits(rd) for w in orbit})


def dominant(rd: RootDatum, w) -> bool:
    for series, start, n in _blocks(rd):
        v = w[start : start + n]
        if any(v[i] < v[i + 1] for i in range(n - 2)):
            return False
        if n >= 2 and v[n - 2] < (abs(v[n - 1]) if series == "D" else v[n - 1]):
            return False
        if series == "C" and v[n - 1] < 0:
            return False
    return True


def std_power_parts(rd: RootDatum, k: int) -> dict:
    """Constituents of std^k as {highest weight: multiplicity}."""
    weights = [w for orbit in std_orbits(rd) for w in orbit]
    parts = {(0,) * rd.total_rank: 1}
    for _ in range(k):
        nxt = {}
        for lam, m in parts.items():
            for mu in weights:
                nu = tuple(a + b for a, b in zip(lam, mu))
                if dominant(rd, nu):
                    nxt[nu] = nxt.get(nu, 0) + m
        parts = nxt
    return parts


def c_hodge_pairs(highest) -> list:
    """Sorted Hodge type of the C_n irreducible (lam | c) for mu2 = (1, ..., 1)."""
    *lam, c = highest
    size = sum(lam)
    return sorted([-(s + c) // 2, (s - c) // 2] for s in range(-size, size + 1, 2))


# -- admissibility: morphisms whose verdict follows from the chosen parts --------


def morphism_verdict(source_parts: dict, pulled_parts: dict) -> dict:
    """Admissibility verdict of a morphism whose source standard character
    and pulled-back target character have the given constituents."""
    missing = sorted(lam for lam in pulled_parts if lam not in source_parts)
    if missing:
        return {"admissible": False, "witness_n": None, "missing_constituents": [list(w) for w in missing]}
    witness = max(ceil(m / source_parts[lam]) for lam, m in pulled_parts.items())
    return {"admissible": True, "witness_n": max(witness, 1), "missing_constituents": []}


def random_parts(rng, pool, max_parts: int) -> dict:
    parts = {}
    for _ in range(rng.randint(1, max_parts)):
        lam = rng.choice(pool)
        parts[lam] = parts.get(lam, 0) + 1
    return parts


def signed_permutation(rng, rd: RootDatum):
    """Torus map pulling back along a random Weyl element of a C block
    datum; W-invariant characters restrict to themselves."""
    n = rd.total_rank - 1
    perm = list(range(n))
    rng.shuffle(perm)
    rows = []
    for i in range(n):
        row = [0] * (n + 1)
        row[perm[i]] = rng.choice((-1, 1))
        rows.append(tuple(row))
    rows.append(tuple([0] * n + [1]))
    return tuple(rows)
