"""The full-weight Freudenthal recursion, kept as the test oracle for
``pelkit.characters``.

``block_irr`` walks every weight of the block irreducible level by level,
subtracting simple roots, and reads each multiplicity it needs off the full
table.  ``pelkit.characters._block_irr`` runs the recursion on dominant
weights alone and expands W-orbits only for ``irr_char``; tests cross-check
the two.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from pelkit.characters import _add, _block_weyl_dim, _dot, _e, _positive_roots, _rho, _sub
from pelkit.errors import InternalCheckError


@lru_cache(maxsize=None)
def _simple_roots(series: str, n: int):
    roots = [tuple(_sub(_e(n, i), _e(n, i + 1))) for i in range(n - 1)]
    if series == "C":
        roots.append(_e(n, n - 1, 2))
    elif series == "D" and n >= 2:
        roots.append(tuple(_add(_e(n, n - 2), _e(n, n - 1))))
    return tuple(roots)


def block_irr(series: str, n: int, lam):
    """Weight multiplicities of the block irreducible, as sorted items."""
    pos = _positive_roots(series, n)
    if not pos:
        return ((lam, 1),)
    simples = _simple_roots(series, n)
    rho = _rho(series, n)
    lam_rho = _add(lam, rho)
    top_norm = _dot(lam_rho, lam_rho)
    lam_norm = _dot(lam, lam)
    mults = {lam: 1}
    current = [lam]
    while current:
        candidates = set()
        for w in current:
            for a in simples:
                candidates.add(_sub(w, a))
        level = []
        for mu in sorted(candidates):
            if mu in mults:
                continue
            num = 0
            for a in pos:
                k = 1
                while True:
                    hi = _add(mu, tuple(k * c for c in a))
                    if _dot(hi, hi) > lam_norm:
                        break
                    m = mults.get(hi, 0)
                    if m:
                        num += _dot(hi, a) * m
                    k += 1
            if num == 0:
                continue
            denom = top_norm - _dot(_add(mu, rho), _add(mu, rho))
            if denom <= 0:
                raise InternalCheckError("Freudenthal denominator must be positive off the top weight")
            q, r = divmod(2 * num, denom)
            if r or q <= 0:
                raise InternalCheckError(f"Freudenthal multiplicity of {mu} is {2 * num}/{denom}")
            mults[mu] = q
            level.append(mu)
        current = level
    if sum(mults.values()) != _block_weyl_dim(series, n, lam):
        raise InternalCheckError(
            f"Freudenthal multiplicities of {lam} for {series}{n} miss the Weyl dimension"
        )
    return tuple(sorted(mults.items()))


def irr_char_items(rd, highest):
    """Weights of the irreducible of ``rd`` with the given dominant highest
    weight, as a dict in the order of the product of the oracle's block
    tables, first block outermost."""
    highest = tuple(int(x) for x in highest)
    blocks, central = rd.split(highest)
    parts = [block_irr(f.series, f.n, lam) for f, lam in zip(rd.factors, blocks)]
    acc = {}
    for combo in itertools.product(*parts):
        m = 1
        for _, c in combo:
            m *= c
        acc[tuple(x for piece, _ in combo for x in piece) + central] = m
    return acc
