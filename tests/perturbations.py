"""Seeded homotopy perturbations of a domination (A, C, i, r, s).

For degree +1 maps X : A -> C and Y : C -> A sandwiched by the
idempotents, i' = i + dX + Xd, r' = r + dY + Yd and s' = s - r X - Y i'
form a domination again.  Unlike the corpus draws, these reach the blocks
(-1)^k i_j s^(j-k) r_k, k < j, of the instant idempotent P.
"""
from chaink0.complexes import ChainMap, Homotopy
from chaink0.instant import Domination
from chaink0.matrices import Mat


def random_homotopy(rng, x, y):
    """A seeded map x_n -> y_(n+1), sandwiched by the idempotents."""
    ring, comps = x.ring, {}
    for n in x.degrees():
        rows, cols = y.rank_at(n + 1), x.rank_at(n)
        m = Mat(ring, rows, cols, [
            ring.from_coords([rng.randint(-1, 1) for _ in range(ring.flat_rank)])
            for _ in range(rows * cols)])
        comps[n] = y.idem(n + 1) @ m @ x.idem(n)
    return Homotopy(x, y, comps)


def perturb(d, rng):
    """d moved by seeded degree +1 maps X : A -> C and Y : C -> A:
    i' = i + dX + Xd, r' = r + dY + Yd and s' = s - r X - Y i'."""
    a, c = d.A, d.C
    x, y = random_homotopy(rng, a, c), random_homotopy(rng, c, a)

    def moved(f, h):            # f + d h + h d
        src, tgt = f.source, f.target
        return ChainMap(src, tgt, {
            n: f.component(n) + tgt.boundary(n + 1) @ h.component(n)
            + h.component(n - 1) @ src.boundary(n)
            for n in set(src.degrees()) | set(tgt.degrees())})

    i2, r2 = moved(d.i, x), moved(d.r, y)
    s2 = Homotopy(a, a, {n: d.s.component(n) - d.r.component(n + 1) @ x.component(n)
                         - y.component(n) @ i2.component(n) for n in a.degrees()})
    return Domination(a, c, i2, r2, s2)
