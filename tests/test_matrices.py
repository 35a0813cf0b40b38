"""Exact matrix layer, checked against independent brute-force oracles."""

import dataclasses
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest

from cubecipher import MAX_FIB_INDEX, IntMatrix, fibonacci_q, rotation
from spec import permuted_lu


def rows(m):
    return [list(m.entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


def schoolbook_product(a_rows, b_rows):
    """Reference multiply on plain lists, independent of IntMatrix internals."""
    n, k, m = len(a_rows), len(b_rows), len(b_rows[0])
    return [
        [sum(a_rows[i][x] * b_rows[x][j] for x in range(k)) for j in range(m)]
        for i in range(n)
    ]


def permutation_determinant(rows):
    """Brute-force determinant: signed sum over all permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        sign = -1 if inversions % 2 else 1
        term = 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += sign * term
    return total


def iterative_fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def random_matrix(rng, n, m=None, span=1000):
    m = n if m is None else m
    return IntMatrix(n, m, tuple(rng.randint(-span, span) for _ in range(n * m)))


def test_product_identity():
    a = IntMatrix.from_rows([[5, 7], [2, 3]])
    assert IntMatrix.identity(2) @ a == a
    assert a @ IntMatrix.identity(2) == a


def test_product_q1_squared():
    q1 = IntMatrix.from_rows([[1, 1], [1, 0]])
    assert q1 @ q1 == IntMatrix.from_rows([[2, 1], [1, 1]])


def test_random_products_match_schoolbook():
    rng = random.Random(101)
    for _ in range(200):
        a = random_matrix(rng, 2, span=10**6)
        b = random_matrix(rng, 2, span=10**6)
        assert rows(a @ b) == schoolbook_product(rows(a), rows(b))


def test_product_shape_mismatch():
    with pytest.raises(ValueError):
        IntMatrix.identity(2) @ IntMatrix(3, 3, (0,) * 9)


def test_det_trivial_cases():
    assert IntMatrix.identity(2).det() == 1
    assert IntMatrix.from_rows([[1, 1], [1, 0]]).det() == -1
    for x in (0, 1, -1, 7, -(10**40)):
        assert IntMatrix(1, 1, (x,)).det() == x


def test_det_matches_permutation_sum():
    rng = random.Random(202)
    for _ in range(200):
        a = random_matrix(rng, 3, span=50)
        assert a.det() == permutation_determinant(rows(a))


def test_det_pivots_past_a_zero_leading_entry():
    # the first row's pivot is not in column 0; then a row whose pivot is
    # not in column 1, as its 2x2 leading minor is 0
    assert IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]).det() == -1
    assert IntMatrix.from_rows([[1, 1, 1], [1, 1, 2], [1, 2, 3]]).det() == -1
    # a dependent row or a zero column: the matrix is singular
    assert IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]]).det() == 0
    assert IntMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]]).det() == 0


@pytest.mark.parametrize("n", [3, 4])
def test_det_of_every_permutation_matrix_is_its_sign(n):
    # the rows are kept in order with their pivots in the permutation's
    # order, so det is the pass's d times the sign of that order
    signs = set()
    for order in permutations(range(n)):
        matrix = IntMatrix(n, n, tuple(int(j == order[i]) for i in range(n) for j in range(n)))
        sign = (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
        assert matrix.det() == sign, order
        signs.add(sign)
    assert signs == {1, -1}


@pytest.mark.parametrize("at", [0, 2, 3], ids=["first", "middle", "last"])
def test_det_with_a_dependent_row_is_zero(at):
    rng = random.Random(303 + at)
    for _ in range(20):
        others = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(3)]
        weights = [rng.randint(-3, 3) for _ in range(3)]
        dependent = [sum(w * row[j] for w, row in zip(weights, others)) for j in range(4)]
        for row in (dependent, [0] * 4):
            matrix = IntMatrix.from_rows(others[:at] + [row] + others[at:])
            assert matrix.det() == 0 == permutation_determinant(rows(matrix))


def test_det_of_a_20x20_matrix_within_a_second():
    # cofactor expansion, which det used before, would take ~20! steps
    matrix, det = permuted_lu(random.Random(2020), 20)
    start = time.perf_counter()
    assert matrix.det() == det
    assert time.perf_counter() - start < 1.0


def test_det_requires_square():
    with pytest.raises(ValueError):
        IntMatrix(1, 4, (1, 2, 3, 4)).det()


@pytest.mark.parametrize("given, message", [
    ([[1, 2], [3], [4, 5, 6]], "row 1 has length 1 where row 0 has length 2"),
    ([[1, 2, 3], [4, 5, 6], [7, 8]], "row 2 has length 2 where row 0 has length 3"),
    ([[1], [2, 3]], "row 1 has length 2 where row 0 has length 1"),
    ([], "need at least one row"),
], ids=["short-middle", "short-last", "long", "no-rows"])
def test_from_rows_refuses_ragged_rows(given, message):
    # the rows used to be flowed into a matrix whenever the total count fit
    with pytest.raises(ValueError) as excinfo:
        IntMatrix.from_rows(given)
    assert str(excinfo.value) == message


def test_transpose_examples():
    assert IntMatrix.from_rows([[1, 2], [3, 4]]).transpose() == IntMatrix.from_rows(
        [[1, 3], [2, 4]]
    )
    assert rotation(1).transpose() == IntMatrix.from_rows([[0, 1], [-1, 0]])
    row = IntMatrix(1, 4, (1, 2, 3, 4))
    col = row.transpose()
    assert (col.rows, col.cols) == (4, 1)
    assert col.transpose() == row


def test_double_transpose_is_identity_map():
    rng = random.Random(303)
    for _ in range(50):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert a.transpose().transpose() == a


def test_fibonacci_q_small():
    assert fibonacci_q(1) == IntMatrix.from_rows([[1, 1], [1, 0]])
    assert fibonacci_q(10) == IntMatrix.from_rows([[89, 55], [55, 34]])


def test_fibonacci_q_matches_iterative_oracle():
    for n in range(1, 60):
        expected = IntMatrix.from_rows(
            [
                [iterative_fibonacci(n + 1), iterative_fibonacci(n)],
                [iterative_fibonacci(n), iterative_fibonacci(n - 1)],
            ]
        )
        assert fibonacci_q(n) == expected


def test_fibonacci_q_cassini_determinant():
    for n in range(1, 60):
        assert fibonacci_q(n).det() == (-1) ** n
    assert fibonacci_q(100).det() == 1


def test_fibonacci_q_rejects_nonpositive():
    for n in (0, -1, -10):
        with pytest.raises(ValueError):
            fibonacci_q(n)


def test_fibonacci_q_shows_a_huge_index_short():
    # %d used to raise the interpreter's int/str-limit ValueError instead
    with pytest.raises(ValueError) as excinfo:
        fibonacci_q(-(10**5000))
    assert str(excinfo.value) == "fibonacci_q's n must be in [1, 10000], got a negative 16610-bit int"


@pytest.mark.parametrize("n", [MAX_FIB_INDEX + 1, 2**64])
def test_fibonacci_q_refuses_an_index_past_the_cap_at_once(n):
    # fibonacci_q(10**7) took seconds and fibonacci_q(2**64) never returned
    start = time.perf_counter()
    with pytest.raises(ValueError):
        fibonacci_q(n)
    assert time.perf_counter() - start < 0.1


def test_fibonacci_q_takes_the_cap_itself():
    assert fibonacci_q(MAX_FIB_INDEX).det() == 1


def test_rotation_table():
    assert rotation(0) == IntMatrix.identity(2)
    assert rotation(1) == IntMatrix.from_rows([[0, -1], [1, 0]])
    assert rotation(2) == IntMatrix.from_rows([[-1, 0], [0, -1]])
    assert rotation(7) == rotation(3) == IntMatrix.from_rows([[0, 1], [-1, 0]])


def test_rotation_periodicity_and_orthogonality():
    for k in range(-8, 9):
        r = rotation(k)
        assert r == rotation(k % 4)
        assert r.transpose() @ r == IntMatrix.identity(2)
        assert r.det() == 1
        # orthogonality means the transpose is the exact two-sided inverse
        assert r @ r.transpose() == IntMatrix.identity(2)


def test_det_equals_det_of_transpose():
    rng = random.Random(505)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(2, 4), span=30)
        assert a.det() == a.transpose().det()


def test_det_of_scaled_matrix():
    rng = random.Random(606)
    for _ in range(100):
        n = rng.choice((2, 3))
        a = random_matrix(rng, n, span=30)
        c = rng.randint(-9, 9)
        assert (c * a).det() == c**n * a.det()


def random_skew_symmetric(rng, n, span=50):
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-span, span)
            entries[i][j] = v
            entries[j][i] = -v
    return IntMatrix.from_rows(entries)


def test_odd_order_skew_symmetric_is_singular():
    rng = random.Random(707)
    for n in (3, 5):
        for _ in range(25):
            assert random_skew_symmetric(rng, n).det() == 0


def test_even_order_skew_symmetric_can_be_invertible():
    # the odd-order argument does not extend to 2x2
    assert IntMatrix.from_rows([[0, 5], [-5, 0]]).det() == 25


def test_entry_type_policing():
    with pytest.raises(TypeError):
        IntMatrix(1, 1, (1.5,))
    with pytest.raises(TypeError):
        IntMatrix(1, 1, (True,))
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))


@pytest.mark.parametrize("entry", [True, False, 1.5, "1", Fraction(1, 2), None])
def test_entry_type_policing_names_the_entry(entry):
    with pytest.raises(TypeError) as excinfo:
        IntMatrix(2, 2, (1, 2, entry, 4))
    assert str(excinfo.value) == "integer matrix entries must be ints, got %r" % (entry,)


@pytest.mark.parametrize(
    "rows, cols", [(2.0, 2.0), (2, 2.0), (True, 4), (4, True), ("2", 2), (None, 2)]
)
def test_dimension_type_policing(rows, cols):
    # a float or bool dimension used to construct, compare equal to its
    # int twin, and fail later in a row split with a raw TypeError
    name, bad = ("rows", rows) if type(rows) is not int else ("cols", cols)
    with pytest.raises(TypeError) as excinfo:
        IntMatrix(rows, cols, (1, 2, 3, 4))
    assert str(excinfo.value) == "matrix %s must be an int, got %r" % (name, bad)


_UNPRINTABLE = Fraction(10**5000, 3)  # its repr passes the int/str limit


@pytest.mark.parametrize("entry, shown", [
    (_UNPRINTABLE, "an unprintable Fraction"),
    ("x" * 100_000, "'%s... (100000 characters)" % ("x" * 39)),
], ids=["fraction", "long-str"])
def test_a_refused_entry_is_shown_short(entry, shown):
    # the Fraction used to raise the interpreter's int/str-limit ValueError
    # instead of the TypeError, and the string was echoed whole
    with pytest.raises(TypeError) as excinfo:
        IntMatrix(2, 2, (entry, 0, 0, 0))
    assert str(excinfo.value) == "integer matrix entries must be ints, got " + shown


@pytest.mark.parametrize("rows, cols, error, message", [
    (_UNPRINTABLE, 2, TypeError, "matrix rows must be an int, got an unprintable Fraction"),
    (-(10**5000), 2, ValueError, "matrix rows must be at least 1, got a negative 16610-bit int"),
    (10**5000, 1, ValueError,
     "expected rows * cols entries for a 16610-bit int rows and 1 cols, got 0"),
], ids=["fraction", "huge-negative", "huge-size"])
def test_a_refused_shape_is_shown_short(rows, cols, error, message):
    # each used to raise the interpreter's int/str-limit ValueError
    with pytest.raises(error) as excinfo:
        IntMatrix(rows, cols, ())
    assert type(excinfo.value) is error and str(excinfo.value) == message


def test_int_subclass_entries_are_accepted():
    class Tagged(int):
        pass

    m = IntMatrix(2, 2, (Tagged(3), 1, 2, Tagged(-4)))
    assert m.entries == (3, 1, 2, -4)
    assert type(m.entries[0]) is Tagged
    # and int subclass dimensions, as for entries
    assert rows(IntMatrix(Tagged(2), Tagged(2), m.entries)) == [[3, 1], [2, -4]]


@pytest.mark.parametrize("entries", [(0, 0, 0, 0), (1, -2, 3, -4), (10**4000, -1, 7, -(10**300))])
def test_int_matrix_is_a_frozen_value(entries):
    block, from_list = IntMatrix(2, 2, entries), IntMatrix(2, 2, list(entries))
    assert type(from_list.entries) is tuple
    assert block == from_list and from_list == block
    assert hash(block) == hash(from_list)
    assert (block.rows, block.cols, block.entries) == (2, 2, entries)
    assert block != IntMatrix(2, 2, entries[:3] + (entries[3] + 1,))
    for field in ("rows", "cols", "entries"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(block, field, 1)
    # replace goes through the constructor, checks included
    assert dataclasses.replace(block, entries=[4, 3, 2, 1]) == IntMatrix(2, 2, (4, 3, 2, 1))
    with pytest.raises(ValueError):
        dataclasses.replace(block, entries=entries[:3])
    with pytest.raises(TypeError):
        dataclasses.replace(block, entries=entries[:3] + (True,))
    with pytest.raises(ValueError):
        dataclasses.replace(block, rows=0)


@dataclasses.dataclass(frozen=True)
class _PlainFrozen:
    rows: int
    cols: int
    entries: tuple


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 gives every instance its own dict")
def test_int_matrix_allocates_no_more_than_a_plain_frozen_dataclass():
    # an instance whose __dict__ is filled directly loses the class's shared
    # keys and costs ~64 bytes more per instance on 3.11+
    entries = (1, -2, 3, -4)

    def per_instance(cls, count=20000):
        tracemalloc.start()
        try:
            made = [cls(2, 2, entries) for _ in range(count)]
            return tracemalloc.get_traced_memory()[0] / len(made)
        finally:
            tracemalloc.stop()

    per_instance(IntMatrix), per_instance(_PlainFrozen)  # warm both paths up
    assert per_instance(IntMatrix) <= per_instance(_PlainFrozen) + 4


def test_integer_scaling():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert 3 * a == IntMatrix.from_rows([[3, 6], [9, 12]])
    assert -1 * a == IntMatrix.from_rows([[-1, -2], [-3, -4]])
    assert 0 * a == IntMatrix(2, 2, (0, 0, 0, 0))
    # neither operator takes a value of another type
    with pytest.raises(TypeError):
        "x" * a
    with pytest.raises(TypeError):
        a @ 5
