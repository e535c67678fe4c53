"""Seeded random domination corpus.

Each domination is built to pass verification by construction: A is a
random free complex with exact boundaries, C = A + cone(identity of a
second random free complex), i and r are the canonical inclusion and
projection, and s = 0 (r i is the identity on the nose).
"""
from __future__ import annotations

import random

from .complexes import ChainMap, Homotopy, ProjComplex, mapping_cone, direct_sum
from .documents import Workspace, workspace_literal
from .instant import Domination
from .matrices import Mat, ring_kernel_coords
from .rings import C2, ZZ, Ring

_RINGS = {"integers": ZZ, "c2": C2}


def random_free_complex(rng: random.Random, ring: Ring,
                        max_length: int = 3, max_rank: int = 3) -> ProjComplex:
    """A random free complex with d@d = 0, boundaries sampled from kernels."""
    length = rng.randrange(1, max_length + 1)
    ranks = [rng.randrange(0, max_rank + 1) for _ in range(length)]
    k = ring.flat_rank
    bnds = []
    for j in range(length - 1):
        lo, hi = ranks[j], ranks[j + 1]
        if lo == 0 or hi == 0:
            bnds.append(Mat.zero(ring, lo, hi))
            continue
        if j == 0:
            bnds.append(Mat(ring, lo, hi,
                            [ring.from_coords([rng.randint(-2, 2) for _ in range(k)])
                             for _ in range(lo * hi)]))
            continue
        kernel = ring_kernel_coords(bnds[-1])
        cols = []
        for _ in range(hi):
            v = [0] * (lo * k)
            for basis_vec in kernel:
                c = rng.randint(-2, 2)
                v = [a + c * b for a, b in zip(v, basis_vec)]
            cols.append(v)
        bnds.append(Mat.from_coord_columns(ring, lo, cols))
    return ProjComplex.free_complex(ring, 0, ranks, bnds)


def random_domination(rng: random.Random, ring: Ring) -> Domination:
    a = random_free_complex(rng, ring)
    b = random_free_complex(rng, ring)
    c = direct_sum(a, mapping_cone(ChainMap.identity(b)))
    i_comps, r_comps = {}, {}
    for n in c.degrees():
        ra, rc = a.rank_at(n), c.rank_at(n)
        if ra == 0:
            continue
        i_comps[n] = Mat.diag(ring, a.idem(n), Mat.zero(ring, rc - ra, 0))
        r_comps[n] = Mat.diag(ring, a.idem(n), Mat.zero(ring, 0, rc - ra))
    return Domination(a, c, ChainMap(a, c, i_comps), ChainMap(c, a, r_comps),
                      Homotopy.zero(a))


def generate_corpus(seed: int, count: int, ring_name: str = "integers") -> dict:
    """A deterministic workspace document with `count` valid dominations."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if ring_name not in _RINGS:
        raise ValueError(f"unknown corpus ring {ring_name!r}; "
                         f"options: {sorted(_RINGS)}")
    ring = _RINGS[ring_name]
    rng = random.Random(f"{seed}:{ring_name}")
    ws = Workspace(ring)
    for idx in range(count):
        d = random_domination(rng, ring)
        ws.complexes[f"A{idx}"] = d.A
        ws.complexes[f"C{idx}"] = d.C
        ws.maps[f"i{idx}"] = d.i
        ws.maps[f"r{idx}"] = d.r
        ws.homotopies[f"s{idx}"] = d.s
        ws.dominations[f"dom{idx}"] = d
    return workspace_literal(ws)


def corpus_dominations(seed: int, count: int, ring_name: str = "integers"
                       ) -> list[Domination]:
    """The same corpus as in-memory objects, in document order."""
    ring = _RINGS[ring_name]
    rng = random.Random(f"{seed}:{ring_name}")
    return [random_domination(rng, ring) for _ in range(count)]
