"""The four benchmark workloads: seeded inputs, operations, and the checks
that judge each operation's output independently of the engine.

Each workload writes its documents in `setup` and returns the operations
to run.  An operation is one documented CLI command.  Its check gets the
exit code and the report text and returns None when the output is right,
or a one-line reason when it is not.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Op:
    key: str                 # unique within the workload
    argv: list               # arguments after the program name
    stratum: str             # operations of one kind, interleaved evenly
    expect: int = 0          # expected exit status
    check: Callable | None = None   # (report text) -> reason or None


@dataclass
class Setup:
    docs: dict               # file name -> exact bytes written
    ops: list                # every operation, in document order
    warmup: Op               # one cheap operation run before timing
    gate_failures: list = field(default_factory=list)


def write_docs(work: Path, docs: dict) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for name, text in docs.items():
        (work / name).write_bytes(text)


def pass_order(ops: list, seed: int) -> list:
    """One pass over `ops`: each stratum shuffled by the seed, then the strata
    interleaved in proportion, so that any prefix holds every kind of
    operation in the share the whole pass does."""
    rng = random.Random(f"order:{seed}")
    strata: dict = {}
    for op in ops:
        strata.setdefault(op.stratum, []).append(op)
    placed = []
    for s_idx, name in enumerate(sorted(strata)):
        group = strata[name]
        rng.shuffle(group)
        for i, op in enumerate(group):
            placed.append(((i + 0.5) / len(group), s_idx, op))
    placed.sort(key=lambda t: (t[0], t[1]))
    return [op for _, _, op in placed]


def _load(text: str):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as ex:
        return None, f"report is not JSON: {ex}"


# --- corpus_obstruction -------------------------------------------------------

CORPUS_DOCS = 6          # documents generated per stratum
CORPUS_SIZE = 25         # dominations per document
# Operations taken per stratum from each bucket of F, the rank of the
# instant module (the summed ranks of C), as (largest F, count).  Obstruction
# time grows steeply with F, and a free draw of sizes moves the timings by
# more than 10% between seeds; a fixed count per bucket keeps the mix of
# sizes the same for every seed while the dominations still come from it.
# The counts are half of what a pool of CORPUS_DOCS documents holds on
# average; a bucket that falls short passes its deficit to the next smaller.
F_QUOTAS = ((None, 9), (14, 15), (11, 17), (8, 19), (5, 15))


def _free_euler(complex_lit: dict) -> int:
    """sum (-1)^n rank A_n, read from a document's complex literal."""
    chi = 0
    for j, mod in enumerate(complex_lit["modules"]):
        if mod["idempotent"] != "free":
            raise ValueError("generated complexes are free")
        chi += (-1) ** (complex_lit["bottom_degree"] + j) * mod["ambient_rank"]
    return chi


def nontrivial_domination(rng: random.Random, ring):
    """A' = A + cone(1_B), dominated by the C of a corpus domination (A, C).

    i' = [i, 0] and r' = [r; 0], so r' i' = 1 + 0 is not the identity, and
    s' = 0 + the canonical contraction of cone(1_B), which is not zero.
    """
    from chaink0.complexes import ChainMap, Homotopy, direct_sum, mapping_cone
    from chaink0.corpus import random_domination, random_free_complex
    from chaink0.instant import Domination
    from chaink0.matrices import Mat

    d = random_domination(rng, ring)
    b = random_free_complex(rng, ring)
    cone = mapping_cone(ChainMap.identity(b))
    a2 = direct_sum(d.A, cone)
    zero = Mat.zero
    i_c, r_c, s_c = {}, {}, {}
    for n in d.C.degrees():
        c_n, k_n = d.C.rank_at(n), cone.rank_at(n)
        i_c[n] = Mat.block([[d.i.component(n), zero(ring, c_n, k_n)]])
        r_c[n] = Mat.block([[d.r.component(n)], [zero(ring, k_n, c_n)]])
    for n in cone.degrees():
        if n + 1 not in cone.degrees():
            continue
        # cone_n = B_n + B_{n-1} -> cone_{n+1} = B_{n+1} + B_n, (x, y) -> (0, x)
        b_up, b_n, b_down = b.rank_at(n + 1), b.rank_at(n), b.rank_at(n - 1)
        contraction = Mat.block([
            [zero(ring, b_up, b_n), zero(ring, b_up, b_down)],
            [Mat.identity(ring, b_n), zero(ring, b_n, b_down)]])
        a_n, a_up = d.A.rank_at(n), d.A.rank_at(n + 1)
        s_c[n] = Mat.block([
            [zero(ring, a_up, a_n), zero(ring, a_up, cone.rank_at(n))],
            [zero(ring, cone.rank_at(n + 1), a_n), contraction]])
    return Domination(a2, d.C, ChainMap(a2, d.C, i_c), ChainMap(d.C, a2, r_c),
                      Homotopy(a2, a2, s_c))


def _obstruction_check(chi: int):
    def check(text):
        out, err = _load(text)
        if err:
            return err
        if out.get("chi") != chi:
            return f"chi {out.get('chi')} != {chi}"
        if out.get("witnessed_zero") is not True:
            return "sigma not witnessed zero"
        return None
    return check


def setup_corpus(work: Path, seed: int) -> Setup:
    from chaink0.corpus import generate_corpus
    from chaink0.documents import Workspace, canonical_json, workspace_literal
    from chaink0.instant import verify_domination
    from chaink0.rings import C2, ZZ

    docs, ops, gate_failures = {}, [], []

    def candidates(fname, stratum, lit):
        """(F, operation) for every domination of one document."""
        docs[fname] = canonical_json(lit).encode("utf-8")
        path = str(work / fname)
        out = []
        for name in sorted(lit["dominations"], key=lambda s: int(s[3:])):
            dom = lit["dominations"][name]
            f_rank = sum(m["ambient_rank"]
                         for m in lit["complexes"][dom["C"]]["modules"])
            chi = _free_euler(lit["complexes"][dom["A"]])
            out.append((f_rank, Op(f"{fname}:{name}",
                                   ["obstruction", "--input", path, "--name", name],
                                   stratum, 0, _obstruction_check(chi))))
        return out

    for ring_name, ring in (("integers", ZZ), ("c2", C2)):
        pool = []
        for j in range(CORPUS_DOCS):
            pool += candidates(f"corpus-{ring_name}-{j}.json", f"corpus-{ring_name}",
                               generate_corpus(seed * 1000 + j, CORPUS_SIZE, ring_name))
        ops += select_by_size(pool)
        pool = []
        for j in range(CORPUS_DOCS):
            rng = random.Random(f"nontrivial:{seed}:{ring_name}:{j}")
            ws = Workspace(ring, {})
            for k in range(CORPUS_SIZE):
                d = nontrivial_domination(rng, ring)
                rep = verify_domination(d)
                if not rep.ok:      # a failure of the run, whether or not timed
                    gate_failures.append(f"{ring_name}-{j}:dom{k}: "
                                         f"{rep.as_dict()['violations']}")
                ws.complexes[f"A{k}"], ws.complexes[f"C{k}"] = d.A, d.C
                ws.maps[f"i{k}"], ws.maps[f"r{k}"] = d.i, d.r
                ws.homotopies[f"s{k}"] = d.s
                ws.dominations[f"dom{k}"] = d
            pool += candidates(f"nontrivial-{ring_name}-{j}.json",
                               f"nontrivial-{ring_name}", workspace_literal(ws))
        ops += select_by_size(pool)
    return Setup(docs, ops, ops[0], gate_failures)


def select_by_size(pool: list) -> list:
    """The first operations of each F bucket, in document order, per F_QUOTAS."""
    chosen, deficit = [], 0
    for i, (top, count) in enumerate(F_QUOTAS):
        below = F_QUOTAS[i + 1][0] if i + 1 < len(F_QUOTAS) else -1
        group = [j for j, (f, _) in enumerate(pool)
                 if below < f and (top is None or f <= top)]
        take = group[:count + deficit]
        deficit += count - len(take)
        chosen += take
    return [pool[j][1] for j in sorted(chosen)]


# --- dense_homology -----------------------------------------------------------

# Matrices per size.  The inputs are the same for every --seed, which only
# reorders them: SNF time on one random dense matrix of a given size varies
# by up to 100x between matrices, so a per-seed draw of a few matrices would
# spread ops_per_s between seeds far wider than any bound.
DENSE_COUNTS = {12: 8, 16: 8, 20: 2, 24: 2}
DENSE_RANGE = 9


def dense_matrix(n: int, k: int) -> list:
    rng = random.Random(f"{k}:{n}")
    return [[rng.randint(-DENSE_RANGE, DENSE_RANGE) for _ in range(n)]
            for _ in range(n)]


def bareiss(m: list) -> tuple[int, int]:
    """(rank, |det|) by fraction-free elimination; |det| is 0 when singular."""
    a = [list(r) for r in m]
    rows, cols = len(a), len(a[0]) if a else 0
    rank, prev = 0, 1
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][c]
        for r in range(rank + 1, rows):
            for j in range(c + 1, cols):
                a[r][j] = (a[r][j] * p - a[r][c] * a[rank][j]) // prev
            a[r][c] = 0
        prev = p
        rank += 1
    det = abs(prev) if rank == rows == cols else 0
    return rank, det


def _dense_check(m: list):
    n = len(m)
    expected = []

    def check(text):
        out, err = _load(text)
        if err:
            return err
        if not expected:
            expected.append(bareiss(m))
        rank, det = expected[0]
        groups = out["homology"]
        h0 = groups.get("0", {"betti": 0, "torsion": []})
        h1 = groups.get("1", {"betti": 0, "torsion": []})
        if set(groups) - {"0", "1"}:
            return f"unexpected degrees {sorted(groups)}"
        if h1["betti"] != n - rank or h1["torsion"]:
            return f"H1 {h1} but rank {rank}"
        if h0["betti"] != n - rank:
            return f"H0 betti {h0['betti']} but rank {rank}"
        if rank == n and math.prod(h0["torsion"]) != det:
            return "H0 torsion product differs from |det|"
        return None
    return check


def setup_dense(work: Path, seed: int) -> Setup:
    complexes, ops = {}, []
    path = str(work / "dense.json")
    for n, count in DENSE_COUNTS.items():
        for k in range(count):
            m = dense_matrix(n, k)
            name = f"D{n}_{k}"
            complexes[name] = {
                "bottom_degree": 0,
                "modules": [{"ambient_rank": n, "idempotent": "free"}] * 2,
                "boundaries": [{"rows": n, "cols": n,
                                "entries": [str(x) for row in m for x in row]}]}
            ops.append(Op(name, ["homology", "--input", path, "--name", name],
                          f"n{n:02d}", 0, _dense_check(m)))
    doc = {"ring": {"kind": "integers"}, "complexes": complexes}
    text = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    return Setup({"dense.json": text}, ops, ops[0])


# --- laurent_windows ----------------------------------------------------------

LAURENT_WINDOWS = (8, 16, 24)
SWINDLE_WINDOWS = (32, 64)
# Rank-2 idempotents per ring.  Like the dense matrices they are the same
# for every --seed: the window check's SNF time on one random idempotent
# varies by more than 10x between draws of the same size.
RANK2_MODULES = 2


def random_idempotent(rng: random.Random, ring):
    """g diag(1, 0) g^-1 for g a product of four elementary matrices with
    coefficients in [-2, 2]."""
    from chaink0.matrices import Mat

    def elementary(i, j, a):
        return Mat(ring, 2, 2, [ring.one if r == c else (a if (r, c) == (i, j)
                                                          else ring.zero)
                                for r in range(2) for c in range(2)])

    g = g_inv = Mat.identity(ring, 2)
    for _ in range(4):
        i, j = rng.sample(range(2), 2)
        a = ring.from_coords([rng.randint(-2, 2) for _ in range(ring.flat_rank)])
        g, g_inv = g @ elementary(i, j, a), elementary(i, j, -a) @ g_inv
    return g @ Mat(ring, 2, 2, [ring.one, ring.zero, ring.zero, ring.zero]) @ g_inv


def lattice_rank(e, ring) -> int:
    """Z-rank of the image of an idempotent: the trace of its integer
    flattening, which for Z[G] is |G| times the identity coefficients."""
    return sum(ring.coords(e[i, i])[0] for i in range(e.rows)) * ring.flat_rank


def _laurent_check(window: int, rank: int):
    def check(text):
        out, err = _load(text)
        if err:
            return err
        wc = out["window_check"]
        if wc["N"] != window or not wc["injective"] or not wc["cokernel_ok"]:
            return f"window check failed: {wc}"
        if wc["cokernel_rank"] != rank:
            return f"cokernel rank {wc['cokernel_rank']} != {rank}"
        return None
    return check


def _swindle_check(window: int, rank: int):
    def check(text):
        out, err = _load(text)
        if err:
            return err
        groups = out["homology"]
        interior = [d for d in groups if 0 < int(d) < window]
        if interior:
            return f"homology in interior degrees {interior}"
        if groups.get("0", {}).get("betti") != rank:
            return f"H0 {groups.get('0')} but lattice rank {rank}"
        return None
    return check


def setup_laurent(work: Path, seed: int) -> Setup:
    from chaink0.documents import module_literal
    from chaink0.complexes import ProjModule
    from chaink0.matrices import Mat
    from chaink0.rings import C2, ZZ

    docs, ops = {}, []
    for ring_name, ring in (("integers", ZZ), ("c2", C2)):
        mats = {"p1": Mat.identity(ring, 1)}
        for j in range(RANK2_MODULES):
            mats[f"q{j}"] = random_idempotent(
                random.Random(f"idempotent:{ring_name}:{j}"), ring)
        fname = f"laurent-{ring_name}.json"
        path = str(work / fname)
        lit = {"ring": ring.descriptor(),
               "modules": {k: module_literal(ProjModule(e)) for k, e in mats.items()}}
        docs[fname] = (json.dumps(lit, sort_keys=True, indent=2) + "\n").encode("utf-8")
        for name, e in mats.items():
            rank = lattice_rank(e, ring)
            stratum = f"{ring_name}-{name}"
            for w in LAURENT_WINDOWS:
                ops.append(Op(f"{fname}:{name}:L{w}",
                              ["laurent-resolve", "--input", path, "--name", name,
                               "--window", str(w)],
                              stratum, 0, _laurent_check(w, rank)))
            for w in SWINDLE_WINDOWS:
                ops.append(Op(f"{fname}:{name}:S{w}",
                              ["swindle", "--input", path, "--name", name,
                               "--window", str(w)],
                              stratum, 0, _swindle_check(w, rank)))
    return Setup(docs, ops, ops[0])


# --- cli_fixtures -------------------------------------------------------------

def fixture_commands(seed: int) -> list:
    """(argv, expected exit) for every documented command on the fixtures."""
    fx = "tests/fixtures/"
    ideal, rp2, bad = fx + "ideal.json", fx + "rp2.json", fx + "bad.json"
    return [
        (["verify", "--input", ideal, "--name", "dom1"], 0),
        (["verify", "--input", rp2, "--name", "flip"], 0),
        (["verify", "--input", bad, "--name", "brokenMap"], 2),
        (["verify", "--input", bad, "--name", "badComplex"], 2),
        (["verify", "--input", fx + "malformed.json", "--name", "anything"], 1),
        (["verify", "--input", rp2, "--name", "ghost"], 1),
        (["homology", "--input", rp2, "--name", "X"], 0),
        (["homology", "--input", bad, "--name", "cone"], 0),
        (["homology", "--input", rp2, "--name", "circle", "--format", "text"], 0),
        (["instant", "--input", ideal, "--name", "dom1"], 0),
        (["obstruction", "--input", ideal, "--name", "dom1"], 0),
        (["obstruction", "--input", bad, "--name", "cone"], 1),
        (["trim", "--input", bad, "--name", "cone", "--below", "0"], 0),
        (["trim", "--input", rp2, "--name", "circle", "--below", "0"], 2),
        (["free-replace", "--input", rp2, "--name", "X", "--witness", "w"], 1),
        (["laurent-resolve", "--input", rp2, "--name", "split", "--window", "3"], 0),
        (["laurent-resolve", "--input", ideal, "--name", "ideal"], 1),
        (["swindle", "--input", rp2, "--name", "split", "--window", "4"], 0),
        (["torus", "--input", rp2, "--name", "flip"], 0),
        (["realize", "--input", ideal, "--name", "ideal", "--degree", "1"], 0),
        (["corpus", "--seed", str(seed), "--count", "3", "--ring", "c2"], 0),
    ]


def setup_fixtures(work: Path, seed: int) -> Setup:
    ops = [Op(" ".join(argv), argv, "fixtures", code)
           for argv, code in fixture_commands(seed)]
    return Setup({}, ops, ops[0])


SETUPS = {
    "corpus_obstruction": setup_corpus,
    "dense_homology": setup_dense,
    "laurent_windows": setup_laurent,
    "cli_fixtures": setup_fixtures,
}
SUBPROCESS_WORKLOADS = {"cli_fixtures"}
