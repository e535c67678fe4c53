"""Integer lattice engine: Smith normal form, solving, kernels, images."""
import random

from chaink0 import intlinalg as il


def random_matrix(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def kernel_basis(m):
    return il.smith_normal_form(m).kernel_basis()


def columns_to_matrix(cols, rows):
    """The rows x len(cols) matrix with the given vectors as its columns."""
    return [[c[i] for c in cols] for i in range(rows)]


def assert_snf_postconditions(m, cols=None):
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
    s = il.smith_normal_form(m, cols)
    if rows:
        assert il.mat_mul(il.mat_mul(s.u, m), s.v) == s.d
    assert il.mat_mul(s.u, s.u_inv) == il.eye(rows)
    assert il.mat_mul(s.u_inv, s.u) == il.eye(rows)
    assert il.mat_mul(s.v, s.v_inv) == il.eye(cols)
    assert il.mat_mul(s.v_inv, s.v) == il.eye(cols)
    n = min(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s.d[i][j] == 0
    diag = s.diagonal()
    for i in range(n):
        assert diag[i] >= 0
        if i + 1 < n and diag[i]:
            assert diag[i + 1] % diag[i] == 0
        if diag[i] == 0:
            assert all(x == 0 for x in diag[i:])
    return s


def test_snf_identity():
    s = il.smith_normal_form(il.eye(3))
    assert s.d == il.eye(3) and s.u == il.eye(3) and s.v == il.eye(3)


def test_snf_zero():
    s = il.smith_normal_form([[0]])
    assert s.d == [[0]] and s.u == [[1]] and s.v == [[1]]


def test_transforms_are_built_once_and_cached():
    s = il.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    for name in ("u", "u_inv", "v", "v_inv"):
        assert getattr(s, name) is getattr(s, name)
    assert s.diagonal() == [2, 6, 12]


def test_snf_divisor_chain_example():
    s = assert_snf_postconditions([[2, 4], [6, 8]])
    assert s.diagonal() == [2, 4]


def test_snf_formerly_pathological_case():
    # A dense 6x5 matrix that once triggered coefficient blow-up.
    m = [[7, -91, 3, 80, 46], [8, 98, 70, 82, -88], [-57, 15, -83, -33, 80],
         [-59, 15, 36, 25, 44], [55, 94, -99, -90, 27], [-16, -20, 20, -87, 7]]
    s = assert_snf_postconditions(m)
    assert s.rank == 5


def test_snf_random_properties():
    rng = random.Random(0)
    for _ in range(300):
        rows = rng.randrange(0, 8)
        cols = rng.randrange(0, 8)
        bound = rng.choice([1, 3, 9, 99])
        assert_snf_postconditions(random_matrix(rng, rows, cols, bound), cols)


def exact_and_modular_diagonals(m, cols):
    """The diagonal read after u (the exact reduction's by-product) and the
    diagonal read first (the modular path, which runs no exact reduction)."""
    exact = il.smith_normal_form(m, cols)
    assert exact.u is not None and "_record" in vars(exact)
    modular = il.smith_normal_form(m, cols)
    diag = modular.diagonal()
    assert "_record" not in vars(modular)
    return exact.diagonal(), diag


def test_modular_diagonal_on_criterion_9_matrices():
    """The 1000 matrices of acceptance criterion 9, drawn the same way."""
    rng = random.Random(99)
    for _ in range(1000):
        rows = rng.randrange(0, 13)
        cols = rng.randrange(0, 13)
        m = [[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)]
        exact, modular = exact_and_modular_diagonals(m, cols)
        assert modular == exact


def structured_matrices(rng):
    """Seeded families whose invariant factors are not all 1: rank-deficient
    rows, a common factor, rows scaled by prime powers, and zero rows or
    columns, down to 0 x n and n x 0."""
    for _ in range(150):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        rank = rng.randrange(1, rows + 1)
        yield il.mat_mul(random_matrix(rng, rows, rank, 3),
                         random_matrix(rng, rank, cols, 9))
        factor = rng.randrange(2, 37)
        yield [[factor * x for x in row] for row in random_matrix(rng, rows, cols, 9)]
        scales = rng.choices([1, 4, 8, 9, 27], k=rows)
        yield [[scale * x for x in row]
               for scale, row in zip(scales, random_matrix(rng, rows, cols, 5))]
        m = random_matrix(rng, rows, cols, 9)
        for i in rng.sample(range(rows), rng.randrange(rows)):
            m[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randrange(cols)):
            for row in m:
                row[j] = 0
        yield m
    for n in range(5):
        yield [[] for _ in range(n)]
        yield [[0] * n for _ in range(n)]


def test_modular_diagonal_on_structured_families():
    rng = random.Random(18)
    seen_chains = set()
    for m in structured_matrices(rng):
        cols = len(m[0]) if m else rng.randrange(4)
        exact, modular = exact_and_modular_diagonals(m, cols)
        assert modular == exact
        seen_chains.add(tuple(x for x in exact if x > 1))
    assert len(seen_chains) > 100


def test_solver_on_consistent_systems():
    rng = random.Random(1)
    for _ in range(100):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = random_matrix(rng, rows, cols, 9)
        x = [rng.randint(-5, 5) for _ in range(cols)]
        b = [sum(m[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        got = il.smith_normal_form(m).solve(b)
        assert got is not None
        assert [sum(m[i][j] * got[j] for j in range(cols))
                for i in range(rows)] == b


def test_solver_detects_no_solution():
    assert il.smith_normal_form([[2]]).solve([3]) is None
    assert il.smith_normal_form([[2]]).solve([4]) == [2]


def test_kernel_basis():
    k = kernel_basis([[1, 1]])
    assert len(k) == 1 and k[0][0] == -k[0][1]
    assert kernel_basis(il.eye(3)) == []
    assert kernel_basis([[2, 4], [6, 8]]) == []


def test_kernel_completeness():
    # Stacking the kernel with a row-space preimage basis spans Z^cols.
    rng = random.Random(2)
    for _ in range(60):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = random_matrix(rng, rows, cols, 5)
        s = il.smith_normal_form(m, cols)
        kern = kernel_basis(m)
        pre = [[s.v[i][j] for i in range(cols)] for j in range(s.rank)]
        full = columns_to_matrix(kern + pre, cols)
        assert il.smith_normal_form(full, cols).rank == cols


def test_image_basis_spans_columns():
    rng = random.Random(3)
    for _ in range(60):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = random_matrix(rng, rows, cols, 5)
        basis = il.smith_normal_form(m).image_basis()
        if not basis:
            assert all(all(v == 0 for v in row) for row in m)
            continue
        span = il.smith_normal_form(columns_to_matrix(basis, rows), len(basis))
        for col in ([m[i][j] for i in range(rows)] for j in range(cols)):
            assert span.solve(col) is not None


def dense_solve(s, rows, cols, b):
    """SmithNormalForm.solve's dense formula: y = D^-1 (U b), x = V y."""
    ub = [sum(s.u[i][k] * b[k] for k in range(rows)) for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        if i < min(rows, cols) and s.d[i][i] != 0:
            if ub[i] % s.d[i][i] != 0:
                return None
            y[i] = ub[i] // s.d[i][i]
        elif ub[i] != 0:
            return None
    return [sum(s.v[i][k] * y[k] for k in range(cols)) for i in range(cols)]


def criterion_9_matrices():
    """The 1000 matrices of acceptance criterion 9, drawn the same way."""
    rng = random.Random(99)
    for _ in range(1000):
        rows, cols = rng.randrange(0, 13), rng.randrange(0, 13)
        yield [[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)], cols


def seeded_systems():
    """Empty, rank-deficient and random systems (matrix, cols)."""
    rng = random.Random(14)
    yield [], 0
    yield [], 4                         # 0 x 4
    yield [[], [], []], 0               # 3 x 0
    for _ in range(200):
        rows, cols = rng.randrange(0, 7), rng.randrange(0, 7)
        m = random_matrix(rng, rows, cols, rng.choice([1, 3, 9]))
        if rows > 1 and rng.random() < 0.5:        # rank-deficient: repeat a row
            m[-1] = [2 * x for x in m[0]]
        yield m, cols
    yield from criterion_9_matrices()


def test_sparse_solve_matches_the_dense_formula():
    """solve sums over the stored non-zero entries of u and v: it satisfies
    M x = b and equals the dense formula, with or without a solution."""
    rng = random.Random(7)
    outcomes = set()
    for m, cols in seeded_systems():
        rows = len(m)
        s = il.smith_normal_form(m, cols)
        x = [rng.randint(-5, 5) for _ in range(cols)]
        for b in ([sum(m[i][j] * x[j] for j in range(cols)) for i in range(rows)],
                  [rng.randint(-9, 9) for _ in range(rows)]):
            got = s.solve(b)
            assert got == dense_solve(s, rows, cols, b)
            if got is not None:
                assert [sum(m[i][j] * got[j] for j in range(cols)) for i in range(rows)] == b
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_solve_kernel_and_image_run_no_modular_diagonal(monkeypatch):
    """solve, kernel_basis and image_basis read their transforms before D, so
    D is the exact reduction's by-product and the modular path never runs."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a transform reader ran the modular diagonal")

    monkeypatch.setattr(il, "_minor_det", forbidden)
    monkeypatch.setattr(il, "_modular_diagonal", forbidden)
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16], [2, 4, 4]]
    assert il.smith_normal_form(m).solve([2, -6, 10, 2]) is not None
    assert il.smith_normal_form(m).solve([1, 0, 0, 0]) is None
    kernel = il.smith_normal_form([[1, 1, 2]]).kernel_basis()
    assert len(kernel) == 2 and all(x + y + 2 * z == 0 for x, y, z in kernel)
    assert len(il.smith_normal_form(m).image_basis()) == 3
