"""Exact integer matrices and the structured 2x2 matrices of the cipher.

IntMatrix holds Python ints, so nothing ever rounds, and it is an
immutable value, safe to share between threads. It offers what the
pipeline and the acceptance suite use: products, integer scaling, the
transpose and the exact determinant of an n x n matrix. Above 2x2 the
determinant comes from _bareiss_jordan, the one fraction-free
elimination of the package, in O(n^3) multiplications; the
known-plaintext attack runs the same pass. The constructor checks the
shape and that both dimensions and every entry are ints.

The structured matrices the cipher needs are built here too: the
Fibonacci matrix [[F(n+1), F(n)], [F(n), F(n-1)]] and the quarter-turn
rotation matrices, whose entries are always in {-1, 0, 1}. Rotations are
produced by table lookup on k mod 4, never by floating-point trigonometry,
so the whole module stays float-free.

There is no rational matrix type. Decryption inverts the chain with
integer adjugates and one divisibility check (see the cipher module), and
the known-plaintext attack works on the flat 4x4 map directly (see the
analysis module).
"""

from dataclasses import dataclass

from .errors import _is_int, _iterate, _require_int, _shown

__all__ = ["IntMatrix", "MAX_FIB_INDEX", "fibonacci_q", "rotation"]

# Largest Fibonacci index that fibonacci_q (and so a key's fib_index)
# accepts. F(n) has about 0.69 n bits, so Q^n for n = 10,000 keeps
# ciphertext entries near 7,000 bits, well inside the ~14,280 bits (4,300
# digits) that Python converts to decimal by default; a far larger index
# would take unbounded time and memory.
MAX_FIB_INDEX = 10_000


_set_field = object.__setattr__  # looked up once, not per matrix


def _check_shape(rows, cols, entries):
    _require_int(rows, "matrix rows")  # a wrong type outranks a bad size in either dimension
    _require_int(cols, "matrix cols", 1)
    _require_int(rows, "matrix rows", 1)
    if len(entries) != rows * cols:
        raise ValueError("expected rows * cols entries for %s rows and %s cols, got %d"
                         % (_shown(rows), _shown(cols), len(entries)))


def _bareiss_jordan(rows, n):
    """One fraction-free Gauss-Jordan (Bareiss-Jordan) pass over integer
    rows, pivoting in their first n columns: the one exact elimination
    behind IntMatrix.det and the known-plaintext attack.

    Walks rows in order and keeps each one whose first n entries are
    independent of those already kept, until n are kept. Invariant: every
    kept row holds the one shared pivot value d (1 at the start) at its own
    pivot column and 0 at the other kept rows' pivot columns. A new row r
    becomes the bordered minor d*r - sum of r[c]*kept_c over the kept pivot
    columns c, with no division; its first n entries are all zero exactly
    when they lie in the span of the kept rows, and then it is skipped.
    Otherwise its first nonzero entry p is its pivot, every kept row k
    becomes (p*k - k[pivot]*r) // d, and d becomes p. The division is exact
    by Sylvester's identity: k and its update are both minors of the
    integer matrix of kept rows (Bareiss, Math. Comp. 22, 1968).

    Returns (d, kept): kept maps each pivot column to its row, in the order
    the rows were kept, and d is the minor of the kept rows on their pivot
    columns, both taken in that order.
    """
    d = 1
    kept = {}
    for r in rows:
        row = [d * x for x in r]
        for col, other in kept.items():
            if r[col]:
                row = [x - r[col] * y for x, y in zip(row, other)]
        pivot = next((c for c in range(n) if row[c]), None)
        if pivot is None:
            continue
        p = row[pivot]
        for col, other in kept.items():
            f = other[pivot]
            kept[col] = [(p * x - f * y) // d for x, y in zip(other, row)]
        kept[pivot] = row
        d = p
        if len(kept) == n:
            break
    return d, kept


@dataclass(frozen=True, init=False)
class IntMatrix:
    """Immutable row-major matrix of arbitrary-precision integers."""

    rows: int
    cols: int
    entries: tuple

    def __init__(self, rows, cols, entries):
        if type(entries) is not tuple:  # a tuple is kept, not copied
            entries = tuple(_iterate(entries, "integer matrix entries must be an iterable of ints"))
        if (type(rows) is not int or type(cols) is not int
                or rows < 1 or cols < 1 or len(entries) != rows * cols):
            _check_shape(rows, cols, entries)
        for e in entries:
            # the exact-type test settles the common case in one comparison
            if type(e) is not int and not _is_int(e):
                raise TypeError("integer matrix entries must be ints, got %s" % _shown(e))
        # each field set once, as a frozen dataclass sets it, so every
        # instance keeps the class's shared-key dict
        _set_field(self, "rows", rows)
        _set_field(self, "cols", cols)
        _set_field(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows):
        rows = [list(_iterate(r, "matrix row %d must be an iterable of ints" % i))
                for i, r in enumerate(_iterate(rows, "matrix rows must be an iterable of rows"))]
        if not rows:
            raise ValueError("need at least one row")
        cols = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != cols:
                raise ValueError("row %d has length %d where row 0 has length %d"
                                 % (i, len(r), cols))
        return cls(len(rows), cols, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, n):
        _require_int(n, "identity's n", 1)
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def __rmul__(self, scalar):
        if not _is_int(scalar):
            return NotImplemented
        return IntMatrix(self.rows, self.cols, tuple(scalar * e for e in self.entries))

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        out = []
        for i in range(self.rows):
            base = i * self.cols
            for j in range(other.cols):
                out.append(
                    sum(
                        self.entries[base + k] * other.entries[k * other.cols + j]
                        for k in range(self.cols)
                    )
                )
        return IntMatrix(self.rows, other.cols, tuple(out))

    def transpose(self):
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def det(self):
        """Exact determinant of a square matrix: the closed form for 2x2,
        and one _bareiss_jordan pass, O(n^3), otherwise. The pass keeps the
        rows in order, so its d is the determinant with the columns taken in
        pivot order: the sign of that column permutation gives det."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        n, e = self.rows, self.entries
        if n == 2:
            return e[0] * e[3] - e[1] * e[2]
        d, kept = _bareiss_jordan((e[i * n:(i + 1) * n] for i in range(n)), n)
        if len(kept) < n:
            return 0
        order = list(kept)
        inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
        return -d if inversions % 2 else d


def _fib_pair(n):
    # fast doubling: returns (F(n), F(n+1))
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return d, c + d
    return c, d


def fibonacci_q(n: int) -> IntMatrix:
    """The 2x2 Fibonacci matrix [[F(n+1), F(n)], [F(n), F(n-1)]], exactly.

    Requires 1 <= n <= MAX_FIB_INDEX (n = 0 would need F(-1)). Its
    determinant is (-1)^n, so its inverse is again an integer matrix.
    """
    _require_int(n, "fibonacci_q's n", 1, MAX_FIB_INDEX)
    f_n, f_n1 = _fib_pair(n)
    return IntMatrix(2, 2, (f_n1, f_n, f_n, f_n1 - f_n))


# Rotation by k quarter turns (angle k*pi/2), indexed by k mod 4. Entries are
# exact; no trigonometry is ever evaluated, which removes the float-precision
# failure mode of non-right angles entirely.
_ROTATIONS = (
    (1, 0, 0, 1),
    (0, -1, 1, 0),
    (-1, 0, 0, -1),
    (0, 1, -1, 0),
)


def rotation(k: int) -> IntMatrix:
    """The quarter-turn rotation matrix for angle k*pi/2 (any integer k)."""
    _require_int(k, "rotation's k")
    return IntMatrix(2, 2, _ROTATIONS[k % 4])
