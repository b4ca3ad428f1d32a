"""The matrix CSV text: ``write_rows`` writes ``repr`` of every value.

``read_matrix`` round trips cannot see the text itself, so every test here
compares the bytes with the per-value ``repr`` loop they replace.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ulhedge import csvio, floatfmt


def reference(matrix) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(matrix).tolist())


def written(matrix) -> str:
    fh = io.BytesIO()
    csvio.write_rows(fh, matrix)
    return fh.getvalue().decode("ascii")


def assert_same_text(matrix):
    matrix = np.asarray(matrix, dtype=float)
    got, want = written(matrix), reference(matrix)
    if got != want:   # name the first value that differs
        for value in matrix.ravel().tolist():
            text = written(np.array([[value]]))
            assert text == repr(value) + "\n", f"{value!r}: wrote {text!r}"
    assert got == want


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.uint64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40)))
def test_any_bit_pattern_is_written_as_its_repr(bits):
    assert_same_text(bits.view(np.float64))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                  elements=st.floats(1e-280, 1e16, exclude_max=True)),
       hnp.arrays(np.bool_, 40 * 40))
def test_fast_range_is_written_as_its_repr(magnitudes, negative):
    signs = np.where(negative[:magnitudes.size], -1.0, 1.0).reshape(magnitudes.shape)
    assert_same_text(signs * magnitudes)


def _edge_values():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.5e-323,
              2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310,
              1.7976931348623157e308, -1.7976931348623157e308, 1e-280, 1e16, 1.0, 0.1]
    for e in (-1074, -1022, -930, -60, -1, 0, 1, 52, 53, 54, 1023):
        p = 2.0 ** e
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    for k in range(-300, 309, 1):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    values += [float(v) for v in (1, 7, 12345, 99999, 2 ** 31 - 1, 10 ** 15 - 1, 10 ** 15 + 1,
                                  2 ** 52 + 1, 2 ** 53 - 1, 2 ** 53 + 2, 9999999999999998)]
    rng = np.random.default_rng(5)
    for digits in range(1, 9):
        values += [round(v, digits) for v in (100.0 * rng.standard_normal(20)).tolist()]
    # exact 17-digit ties: x = odd / 4 with 16 digits before the point
    values += [(2 * int(n) + 1) / 4.0 for n in rng.integers(2 ** 51, 2 ** 52, 40)]
    return values


def _near_integer_ends():
    """Doubles x whose rounding interval ends within 2^-50 of an integer in
    units of 10^-k, where T = |x| 10^k is in [1e16, 1e17): there the kernel's
    own rounding error could misplace an end.  The ends are (2m -+ 1)
    2^(e-53) for x = m 2^(e-52); in those units an end is q 5^k / 2^d with
    d = 53 - e - k and q = 2m -+ 1, so q = +-t / 5^k mod 2^d for a small odd
    t puts it t / 2^d from an integer."""
    found = []
    for k in range(20, 29):
        for e in range(-45, -10):
            d = 53 - e - k
            if not 51 <= d <= 64:
                continue
            inv = np.uint64(pow(5 ** k, -1, 1 << d))
            mask = np.uint64(2 ** d - 1)
            t = np.arange(1, 2 ** (d - 50), 2, dtype=np.uint64)
            q = np.concatenate([(t * inv) & mask, (np.uint64(0) - t * inv) & mask])
            q = q[(q > np.uint64(2 ** 53)) & (q < np.uint64(2 ** 54))]
            for m in np.concatenate([q - np.uint64(1), q + np.uint64(1)]).tolist():
                x = (m // 2) * 2.0 ** (e - 52)
                if 1e16 <= x * 10.0 ** k < 1e17:
                    found.append(x)
    return found


def test_interval_ends_near_a_decimal_are_written_as_their_repr():
    values = _near_integer_ends()
    assert len(values) > 100
    assert_same_text(np.array(values)[None, :])
    assert_same_text(-np.array(values)[:, None])


def test_edge_values_are_written_as_their_repr():
    values = _edge_values()
    assert_same_text(np.array(values)[None, :])
    assert_same_text(-np.array(values)[:, None])


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0)])
def test_empty_shapes(shape):
    assert written(np.zeros(shape)) == reference(np.zeros(shape))


def test_one_column_with_infinities_and_a_row_past_the_block():
    tau = np.array([[0.25], [math.inf], [0.5], [math.inf]])   # as in paths_tau.csv
    assert_same_text(tau)
    n_cols = 101
    rows = csvio._BLOCK_VALUES // n_cols + 1
    assert_same_text(np.random.default_rng(3).standard_normal((rows, n_cols)))
    assert_same_text(np.random.default_rng(4).standard_normal((csvio._BLOCK_VALUES + 1, 1)))


def test_most_values_take_the_fast_path(monkeypatch):
    # a kernel that sends everything to repr would pass every test above
    fallbacks = []

    def counted(value):
        fallbacks.append(value)
        return repr(value)

    monkeypatch.setattr(floatfmt, "repr", counted, raising=False)
    x = 0.01 * np.random.default_rng(7).standard_normal((1000, 100))
    assert written(x) == reference(x)
    assert len(fallbacks) <= 0.01 * x.size


def _block_with_zeros(n_zeros, rng):
    """One formatter block of hedge-like values (a full block at 101 columns)
    with ``n_zeros`` of them set to 0.0 or -0.0 at random places."""
    n_cols = 101
    x = 0.01 * rng.standard_normal(csvio._BLOCK_VALUES // n_cols * n_cols)
    at = rng.permutation(x.size)[:n_zeros]
    x[at] = np.where(rng.random(n_zeros) < 0.5, 0.0, -0.0)
    return x.reshape(-1, n_cols)


@pytest.mark.parametrize("share", ["none", "one", "below an eighth", "an eighth", "half",
                                   "all but one", "all"])
def test_blocks_with_zeros(share):
    # zeros are written without the digit kernel: a few in a block keep the
    # block whole, many make it format only its other values
    n = csvio._BLOCK_VALUES // 101 * 101
    n_zeros = {"none": 0, "one": 1, "below an eighth": n // 8 - 1, "an eighth": n // 8 + 1,
               "half": n // 2, "all but one": n - 1, "all": n}[share]
    assert_same_text(_block_with_zeros(n_zeros, np.random.default_rng(n_zeros)))


def test_zeros_next_to_values_that_go_to_repr():
    # -0.0, subnormals, powers of two and non-finite values among zeros and
    # ordinary values, in blocks that keep every value and in blocks that
    # format only their fast ones
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 0.5, -2.0,
                1024.0, 2.0 ** -30, math.inf, -math.inf, math.nan, 1e16, -3.5e200]
    rng = np.random.default_rng(12)
    for n_special in (3, 40, 2000):
        x = rng.standard_normal(4040)
        x[rng.permutation(x.size)[:n_special]] = rng.choice(specials, n_special)
        assert_same_text(x.reshape(-1, 101))
        x[rng.random(x.size) < 0.7] = 0.0
        assert_same_text(x.reshape(-1, 101))


def test_widest_texts_at_the_record_edge():
    # a record holds 23 characters after its separator: the widest fixed and
    # exponent texts of the kernel fill it, and the 24-character reprs
    # (negative, 17 digits, 3-digit exponent) are spliced in beside it, also
    # first and last in a block and next to each other
    widest = [-1.2345678901234567e-100, -1.2345678901234567e+200, -2.2250738585072014e-308]
    fills = [-1.2345678901234567e-99, -0.00012345678901234567, -1234567890123456.7,
             -1.2345678901234567e-05, 9.999999999999999e+15, -1.0000000000000002e-99]
    rng = np.random.default_rng(13)
    for text in map(repr, widest):
        assert len(text) == 24
    for text in map(repr, fills):
        assert len(text) <= 23
    x = rng.choice(widest + fills + [0.0, 0.25, 1e-5], (300, 7))
    x[0, 0], x[-1, -1], x[5, 3:5] = widest[0], widest[1], widest[2]
    assert_same_text(x)
    assert_same_text(x[:, :1])
    assert_same_text(np.array([[widest[0]]]))


@pytest.mark.parametrize("n_cols", [1, 64])
def test_rows_ending_on_a_block_boundary(n_cols):
    # 64 and 1 divide the block size: every block ends a row, and a matrix
    # of exactly two blocks, and one a row past it
    rows = 2 * csvio._BLOCK_VALUES // n_cols
    x = np.random.default_rng(n_cols).standard_normal((rows + 1, n_cols))
    x[::7] = 0.0
    assert_same_text(x[:rows])
    assert_same_text(x)


def test_blocks_of_zeros_do_not_call_the_digit_kernel(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a.size)
        return shortest(a)

    shortest = floatfmt.shortest
    monkeypatch.setattr(floatfmt, "shortest", counted)
    zeros = np.zeros((200, 101))
    zeros[::3, ::2] = -0.0
    assert written(zeros) == reference(zeros)
    assert calls == []
    # a block with a few non-zeros runs the kernel on those alone
    zeros[7, 5], zeros[150, 100] = 0.1, -2.5
    assert written(zeros) == reference(zeros)
    assert calls == [1, 1]
