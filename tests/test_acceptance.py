"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist.
"""
import contextlib
import json
import pathlib
import random
import sys
import time

import pytest

from chaink0 import intlinalg
from chaink0.cli import main as cli_main
from chaink0.complexes import ProjModule, homology, validate_complex
from chaink0.constructions import (laurent_resolution, laurent_window_check,
                                   realize, swindle_prefix)
from chaink0.corpus import corpus_dominations
from chaink0.instant import (TrimPreconditionError, build_instant,
                             finiteness_obstruction, trim_below,
                             verify_domination)
from chaink0.matrices import Mat, solve_linear
from chaink0.projective import (ideal_of_module, ideal_product, principality,
                                quadratic_class_oracle, rank,
                                verify_stable_freeness)
from chaink0.rings import C2, ZZ, QuadraticRing
from chaink0.complexes import ProjComplex

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
Q5 = QuadraticRing(-5)

RING_NAMES = ("integers", "c2")


@contextlib.contextmanager
def criterion(number, label, limit=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} ({label}): FAIL", file=sys.stderr)
        raise
    elapsed = time.monotonic() - start
    if limit is not None and elapsed >= limit:
        print(f"CRITERION {number} ({label}): FAIL "
              f"(took {elapsed:.1f}s, limit {limit}s)", file=sys.stderr)
        raise AssertionError(f"criterion {number} exceeded {limit}s")
    print(f"CRITERION {number} ({label}): PASS ({elapsed:.1f}s)")


def full_corpus(seed=0, count=25):
    for ring_name in RING_NAMES:
        for dom in corpus_dominations(seed=seed, count=count,
                                      ring_name=ring_name):
            yield dom


def ideal_module():
    e = Mat.from_rows(Q5, [[Q5.from_coords([-2, 0]), Q5.from_coords([-1, -1])],
                           [Q5.from_coords([1, -1]), Q5.from_coords([3, 0])]])
    return ProjModule(e)


def test_criterion_1_instant_identities():
    with criterion(1, "instant identities on the corpus", limit=60):
        seen = 0
        for dom in full_corpus():
            assert verify_domination(dom).ok
            inst = build_instant(dom)  # fails fast if any identity breaks
            assert inst.P.is_idempotent()
            bnds = inst.reduction.boundaries
            for m in range(1, len(bnds)):
                assert (bnds[m - 1] @ bnds[m]).is_zero
            seen += 1
        assert seen >= 50


def test_criterion_2_homology_preservation():
    with criterion(2, "reduction preserves homology"):
        for dom in full_corpus():
            red = build_instant(dom).reduction
            ha, hr = homology(dom.A), homology(red)
            degrees = ({n for n, _, _ in ha.groups}
                       | {n for n, _, _ in hr.groups})
            for n in degrees:
                assert ha.at(n) == hr.at(n)


def test_criterion_3_vanishing_with_witness():
    with criterion(3, "sigma vanishes with a verified witness"):
        for dom in full_corpus():
            rep = finiteness_obstruction(dom)
            chi_expected = sum((-1) ** n * dom.A.rank_at(n)
                               for n in dom.A.degrees())
            assert rep.chi == chi_expected
            assert rep.sigma_zero_witness is not None
            assert rep.witness_module is not None
            assert verify_stable_freeness(rep.witness_module,
                                          rep.sigma_zero_witness).ok


def test_criterion_4_nontrivial_class():
    with criterion(4, "non-principal ideal class detected", limit=5):
        p = ideal_module()
        a, dom = realize(p, 1)
        assert verify_domination(dom).ok
        rep = finiteness_obstruction(dom)
        assert rep.chi == -1
        nonfree = [m for m in rep.sigma.plus + rep.sigma.minus
                   if not m.is_free]
        assert len(nonfree) == 1
        v = quadratic_class_oracle(nonfree[0])
        assert v.status == "non_principal"
        assert v.bound >= v.minkowski  # the verdict is a certificate
        ideal = ideal_of_module(p)
        sq = principality(ideal_product(ideal, ideal))
        assert sq.status == "principal" and Q5.coords(sq.generator) == [2, 0]


def test_criterion_5_laurent_windows():
    with criterion(5, "Laurent resolution window certificates"):
        modules = [ProjModule.free(ZZ, 2),
                   ProjModule(Mat.from_rows(ZZ, [[1, 1], [0, 0]])),
                   ProjModule.free(C2, 1),
                   ProjModule(Mat.from_rows(C2, [[1, 0], [0, 0]]))]
        for p in modules:
            for n in (2, 4, 8):
                cx, chk = laurent_resolution(p, window=n)
                assert validate_complex(cx).ok
                assert chk.ok, chk.as_dict()


def test_criterion_6_swindle_prefixes():
    with criterion(6, "swindle prefix interior vanishing"):
        modules = [ProjModule.free(ZZ, 1),
                   ProjModule(Mat.zero(ZZ, 2, 2)),
                   ProjModule(Mat.from_rows(ZZ, [[1, 1], [0, 0]])),
                   ProjModule(Mat.from_rows(C2, [[1, 0], [0, 0]]))]
        for p in modules:
            flat = len(intlinalg.smith_normal_form(p.idem.flatten()).image_basis())
            for n in (2, 5, 8):
                h = homology(swindle_prefix(p, n))
                assert h.at(0) == (flat, ())
                for j in range(1, n):
                    assert h.at(j) == (0, ())


def test_criterion_7_trim():
    with criterion(7, "trim splits and rejects honestly"):
        x = ProjComplex.free_complex(
            ZZ, 0, [1, 2], [Mat.from_rows(ZZ, [[1, 0]])])
        res = trim_below(x, 0)
        assert homology(res.complex).at(1) == homology(x).at(1) == (1, ())
        assert x.boundary(1) @ res.splittings[0] == x.idem(0)
        mod2 = ProjComplex.free_complex(
            ZZ, 0, [1, 1], [Mat.from_rows(ZZ, [[2]])])
        with pytest.raises(TrimPreconditionError) as exc:
            trim_below(mod2, 0)
        assert exc.value.degree == 0


def test_criterion_8_realization_round_trip():
    with criterion(8, "realization round trip over three rings"):
        probes = [(ZZ, ProjModule.free(ZZ, 3)),
                  (C2, ProjModule.free(C2, 2)),
                  (Q5, ideal_module())]
        for ring, p in probes:
            for k in (0, 1, 2):
                a, dom = realize(p, k)
                assert verify_domination(dom).ok
                rep = finiteness_obstruction(dom)
                assert rep.chi == (-1) ** k * rank(p)
                nonfree = [m for m in rep.sigma.plus + rep.sigma.minus
                           if not m.is_free]
                if p.is_free:
                    assert rep.sigma_is_witnessed_zero
                else:
                    assert len(nonfree) == 1
                    assert (quadratic_class_oracle(nonfree[0]).status
                            == quadratic_class_oracle(p).status)


def test_criterion_9_exact_linear_algebra():
    with criterion(9, "Smith normal form and exact solving", limit=120):
        rng = random.Random(99)
        for _ in range(1000):
            rows = rng.randrange(0, 13)
            cols = rng.randrange(0, 13)
            m = [[rng.randint(-99, 99) for _ in range(cols)]
                 for _ in range(rows)]
            s = intlinalg.smith_normal_form(m, cols)
            if rows:
                assert intlinalg.mat_mul(intlinalg.mat_mul(s.u, m), s.v) == s.d
            assert intlinalg.mat_mul(s.u, s.u_inv) == intlinalg.eye(rows)
            assert intlinalg.mat_mul(s.v, s.v_inv) == intlinalg.eye(cols)
            diag = s.diagonal()
            for i in range(len(diag) - 1):
                if diag[i]:
                    assert diag[i + 1] % diag[i] == 0
                else:
                    assert diag[i + 1] == 0
        box = 3
        checked = 0
        for _ in range(100):
            m = Mat(C2, 1, 1, [C2.from_coords([rng.randint(-2, 2),
                                               rng.randint(-2, 2)])])
            b = Mat(C2, 1, 1, [C2.from_coords([rng.randint(-2, 2),
                                               rng.randint(-2, 2)])])
            exact = solve_linear(m, b)
            brute = None
            for a in range(-box, box + 1):
                for c in range(-box, box + 1):
                    x = Mat(C2, 1, 1, [C2.from_coords([a, c])])
                    if m @ x == b:
                        brute = x
                        break
                if brute is not None:
                    break
            if brute is not None:
                assert exact is not None and m @ exact == b
            elif exact is not None:
                assert m @ exact == b  # exact solver may leave the box
            checked += 1
        assert checked == 100


def test_criterion_10_cli_contract(capsys, tmp_path):
    with criterion(10, "CLI determinism and exit statuses"):
        def run(*argv):
            code = cli_main(list(argv))
            cap = capsys.readouterr()
            return code, cap.out, cap.err

        ideal = str(FIXTURES / "ideal.json")
        rp2 = str(FIXTURES / "rp2.json")
        bad = str(FIXTURES / "bad.json")
        malformed = str(FIXTURES / "malformed.json")

        code, out, _ = run("verify", "--input", ideal, "--name", "dom1")
        assert code == 0 and json.loads(out)["report"]["ok"]
        code, out, _ = run("verify", "--input", bad, "--name", "brokenMap")
        assert code == 2 and not json.loads(out)["report"]["ok"]
        code, _, err = run("verify", "--input", malformed, "--name", "x")
        assert code == 1 and err.startswith("error:")
        code, _, err = run("verify", "--input", rp2, "--name", "ghost")
        assert code == 1 and "unresolved" in err
        code, out, _ = run("trim", "--input", rp2, "--name", "circle",
                           "--below", "0")
        assert code == 2

        args = ("obstruction", "--input", ideal, "--name", "dom1")
        _, first, _ = run(*args)
        _, second, _ = run(*args)
        assert first == second
        payload = json.loads(first)
        assert payload["chi"] == 1
        assert payload["oracle"]["status"] == "non_principal"

        _, c1, _ = run("corpus", "--seed", "3", "--count", "4",
                       "--ring", "integers")
        _, c2, _ = run("corpus", "--seed", "3", "--count", "4",
                       "--ring", "integers")
        _, c3, _ = run("corpus", "--seed", "4", "--count", "4",
                       "--ring", "integers")
        assert c1 == c2 and c1 != c3
