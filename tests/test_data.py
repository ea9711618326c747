"""Tests for synthetic instance generation and file formats."""

import warnings

import numpy as np
import pytest

from lowrankmf import DimensionMismatchError, InvalidParameterError, ObservedMask
from lowrankmf.data import (
    ParseError,
    add_noise_snr,
    gen_lowrank,
    read_coordinate,
    read_matrix,
    read_movielens,
    sample_mask,
    write_mask_coordinate,
    write_matrix,
)

# --------------------------------------------------------------- generators


def test_gen_lowrank_rank_one_minors_vanish():
    x = gen_lowrank(2, 2, 1, "gaussian", 0)
    assert abs(x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]) < 1e-14


def test_gen_lowrank_deterministic():
    a = gen_lowrank(10, 8, 3, "uniform01", 5)
    b = gen_lowrank(10, 8, 3, "uniform01", 5)
    assert np.array_equal(a, b)
    c = gen_lowrank(10, 8, 3, "uniform01", 6)
    assert not np.array_equal(a, c)


def test_gen_lowrank_singular_values():
    x = gen_lowrank(50, 50, 5, "gaussian", 1)
    s = np.linalg.svd(x, compute_uv=False)
    assert s[4] > 1e-8
    assert s[5] < 1e-10 * s[0]


def test_gen_lowrank_uniform_nonnegative():
    x = gen_lowrank(20, 20, 4, "uniform01", 2)
    assert np.all(x >= 0)


def test_gen_lowrank_validation():
    with pytest.raises(InvalidParameterError):
        gen_lowrank(5, 5, 6, "gaussian", 0)
    with pytest.raises(InvalidParameterError):
        gen_lowrank(5, 5, 0, "gaussian", 0)
    with pytest.raises(InvalidParameterError):
        gen_lowrank(5, 5, 2, "cauchy", 0)


def test_add_noise_infinite_snr_exact_copy():
    x0 = gen_lowrank(6, 6, 2, "gaussian", 3)
    y = add_noise_snr(x0, float("inf"), 4)
    assert np.array_equal(y, x0)
    assert y is not x0


@pytest.mark.parametrize("snr_db", [float("nan"), -float("inf"), -3300.0])
def test_add_noise_without_a_finite_variance_is_refused(snr_db):
    # -3300 dB: 10^(snr/10) underflows to 0, so the variance would divide by 0
    x0 = gen_lowrank(6, 6, 2, "gaussian", 3)
    with pytest.raises(InvalidParameterError, match="snr_db"):
        add_noise_snr(x0, snr_db, 4)


def test_add_noise_beyond_the_float_range_adds_none():
    x0 = gen_lowrank(6, 6, 2, "gaussian", 3)
    assert np.array_equal(add_noise_snr(x0, 4000.0, 4), x0)


def test_add_noise_deterministic():
    x0 = gen_lowrank(6, 6, 2, "gaussian", 5)
    assert np.array_equal(add_noise_snr(x0, 10.0, 6), add_noise_snr(x0, 10.0, 6))


def test_add_noise_realized_snr():
    x0 = gen_lowrank(200, 200, 5, "gaussian", 7)
    y = add_noise_snr(x0, 20.0, 8)
    noise = y - x0
    realized = 10.0 * np.log10(np.sum(x0 * x0) / np.sum(noise * noise))
    assert abs(realized - 20.0) < 0.5


def test_sample_mask_full():
    mask = sample_mask(3, 4, 12, 0)
    assert mask.card == 12
    assert np.all(mask.to_dense_bool())


def test_sample_mask_single_entry():
    mask = sample_mask(5, 5, 1, 1)
    assert mask.card == 1
    assert mask.to_dense_bool().sum() == 1


def test_sample_mask_cardinality_and_distinctness():
    mask = sample_mask(30, 20, 240, 2)  # freedom-ratio style cardinality
    assert mask.card == 240
    flat = mask.row_idx * 20 + mask.col_idx
    assert len(set(flat.tolist())) == 240


def test_sample_mask_validation():
    with pytest.raises(InvalidParameterError):
        sample_mask(3, 3, 0, 0)
    with pytest.raises(InvalidParameterError):
        sample_mask(3, 3, 10, 0)


# ---------------------------------------------------------------- movielens


def test_read_movielens_two_lines(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("1\t2\t3\t881250949\n2\t1\t5\t891717742\n")
    data = read_movielens(p)
    assert data.mask.card == 2
    assert data.duplicates == 0
    assert data.y[0, 1] == 3.0
    assert data.y[1, 0] == 5.0
    assert data.y.shape == (2, 2)


def test_read_movielens_duplicates_last_wins(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("1\t1\t2\t0\n1\t1\t4\t1\n")
    data = read_movielens(p)
    assert data.duplicates == 1
    assert data.mask.card == 1
    assert data.y[0, 0] == 4.0


def test_read_movielens_empty_is_parse_error(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("")
    with pytest.raises(ParseError):
        read_movielens(p)


def test_read_movielens_bad_rows(tmp_path):
    for body in ("1\t2\t3\n", "1\t2\tx\t0\n", "1\t2\t9\t0\n", "0\t2\t3\t0\n"):
        p = tmp_path / "u.data"
        p.write_text(body)
        with pytest.raises(ParseError):
            read_movielens(p)


@pytest.mark.parametrize(
    "bad, message",
    [("1\t2\tx\t0", "non-integer token 'x'"), ("1\t2.5\t3\t0", "non-integer token '2.5'"),
     ("1\t2\t3\tnow", "non-integer token 'now'"), ("1\t2\t9\t0", "rating 9 outside 1..5")],
    ids=["rating", "item", "timestamp", "range"],
)
def test_read_movielens_error_names_the_offending_line(tmp_path, bad, message):
    p = tmp_path / "u.data"
    p.write_text("1\t1\t3\t0\n\n" + bad + "\n2\t2\t4\t0\n")
    with pytest.raises(ParseError, match=message) as err:
        read_movielens(p)
    assert err.value.line == 3 and err.value.path == p


def test_read_movielens_range_checks_name_the_first_offending_line(tmp_path):
    # the checks run over the whole table; the earliest line any fails is named
    p = tmp_path / "u.data"
    p.write_text("1\t1\t3\t0\n0\t1\t3\t0\n1\t2\t9\t0\n")
    with pytest.raises(ParseError, match="user/item ids must be >= 1") as err:
        read_movielens(p)
    assert err.value.line == 2


def test_read_movielens_refuses_a_grid_too_large_to_densify(tmp_path):
    # Two ratings span a 4000 x 3000 grid: 12 M cells, over DENSIFY_LIMIT.
    p = tmp_path / "u.data"
    p.write_text("4000\t3000\t5\t0\n1\t1\t3\t0\n")
    with pytest.raises(ParseError, match="too large to densify"):
        read_movielens(p)


# ---------------------------------------------------------------- matrix IO


@pytest.mark.parametrize("fmt", ["mm", "csv"])
def test_matrix_roundtrip(tmp_path, fmt):
    rng = np.random.default_rng(10)
    a = rng.standard_normal((7, 5)) * np.exp(rng.standard_normal((7, 5)) * 3)
    p = tmp_path / f"a.{fmt}"
    write_matrix(p, a, fmt)
    b = read_matrix(p, fmt)
    assert b.shape == a.shape
    assert np.max(np.abs(a - b)) < 1e-15 * np.max(np.abs(a))
    if fmt == "mm":  # a d = 0 factor as --output writes it; CSV refuses it
        for shape in ((3, 0), (0, 3), (0, 0)):
            write_matrix(p, np.zeros(shape), fmt)
            assert read_matrix(p, fmt).shape == shape


def test_writers_write_the_exact_text(tmp_path):
    # 17 significant digits, MatrixMarket arrays column-major, and a d = 0
    # factor as its size line alone (mm)
    a, p = np.array([[1.0, -0.0], [0.1, 1e300]]), tmp_path / "a"
    mm = "%%MatrixMarket matrix array real general\n"
    cases = [
        (a, "mm", mm + "2 2\n1\n0.10000000000000001\n-0\n1.0000000000000001e+300\n"),
        (a, "csv", "1,-0\n0.10000000000000001,1.0000000000000001e+300\n"),
        (np.zeros((3, 0)), "mm", mm + "3 0\n"),
    ]
    for matrix, fmt, text in cases:
        write_matrix(p, matrix, fmt)
        assert p.read_bytes() == text.encode()
    # CSV has no line for a matrix without entries (blank lines read back as
    # an empty file), so one is refused before the file is touched
    for shape in ((3, 0), (0, 3), (0, 0)):
        with pytest.raises(InvalidParameterError, match=r"csv cannot hold a .* write it as mm"):
            write_matrix(p, np.zeros(shape), "csv")
        assert p.read_bytes() == (mm + "3 0\n").encode()
    write_mask_coordinate(p, a, ObservedMask(2, 2, [1, 0], [0, 1]))
    assert p.read_bytes() == (
        b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 -0\n2 1 0.10000000000000001\n"
    )


def test_mask_writer_refuses_y_of_another_shape(tmp_path):
    # a 3 x 4 y would have its entry (0, 2) written as entry (2, 1) of the
    # 2 x 2 mask, and a 1 x 1 y would be indexed past its end
    p, mask = tmp_path / "m.mtx", ObservedMask(2, 2, [0, 1], [1, 0])
    for y in (np.arange(12.0).reshape(3, 4), np.ones((1, 1))):
        with pytest.raises(DimensionMismatchError, match=r"does not match mask \(2, 2\)"):
            write_mask_coordinate(p, y, mask)
        assert not p.exists()


def test_array_format_identity_example(tmp_path):
    p = tmp_path / "id.mtx"
    p.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n"
    )
    a = read_matrix(p, "mm")
    assert np.array_equal(a, np.eye(2))


def test_array_format_column_major(tmp_path):
    p = tmp_path / "cm.mtx"
    p.write_text(
        "%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n"
    )
    a = read_matrix(p, "mm")
    assert np.array_equal(a, np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))


def test_coordinate_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    y = rng.standard_normal((6, 5))
    mask = sample_mask(6, 5, 12, 12)
    p = tmp_path / "m.mtx"
    write_mask_coordinate(p, y, mask)
    y2, mask2 = read_coordinate(p)
    assert np.array_equal(mask.row_idx, mask2.row_idx)
    assert np.array_equal(mask.col_idx, mask2.col_idx)
    obs = mask.to_dense_bool()
    assert np.max(np.abs(y2[obs] - y[obs])) < 1e-15
    assert np.all(y2[~obs] == 0.0)


def test_coordinate_out_of_bounds_entry(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
    )
    with pytest.raises(ParseError):
        read_matrix(p, "mm")


def test_mm_header_errors(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1\n")
    with pytest.raises(ParseError):
        read_matrix(p, "mm")
    p.write_text("")
    with pytest.raises(ParseError):
        read_matrix(p, "mm")


def test_mm_token_errors(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\nx\n0\n1\n")
    with pytest.raises(ParseError):
        read_matrix(p, "mm")
    p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n0\n1\n")
    with pytest.raises(ParseError):
        read_matrix(p, "mm")
    # a ragged body is refused at its first line of another width
    p.write_text("%%MatrixMarket matrix array real general\n2 2\n1 0\n% c\n1\n1\n")
    with pytest.raises(ParseError, match=r"ragged array body \(1 vs 2 values per line\)") as err:
        read_matrix(p, "mm")
    assert err.value.line == 5


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("%%MatrixMarket matrix array real general\n% no size\n", "missing size line", None),
        (
            "%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1.0\n",
            "coordinate size line needs rows cols nnz",
            2,
        ),
        (
            "%%MatrixMarket matrix array real general\n% c\n2 2 4\n1\n",
            "array size line needs rows cols",
            3,
        ),
    ],
    ids=["missing", "coordinate", "array"],
)
def test_mm_size_line_errors(tmp_path, text, message, line):
    p = tmp_path / "s.mtx"
    p.write_text(text)
    for read in (lambda: read_matrix(p, "mm"), lambda: read_coordinate(p)):
        with pytest.raises(ParseError, match=f"{message}$") as err:
            read()
        assert err.value.line == line and err.value.path == p


def test_mm_comments_skipped(tmp_path):
    p = tmp_path / "c.mtx"
    p.write_text(
        "%%MatrixMarket matrix array real general\n% a comment\n1 1\n7.5\n"
    )
    a = read_matrix(p, "mm")
    assert a[0, 0] == 7.5


def test_csv_ragged_row(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError):
        read_matrix(p, "csv")


def test_read_matrix_rejects_nonfinite(tmp_path):
    p = tmp_path / "n.csv"
    p.write_text("1,nan\n2,3\n")
    with pytest.raises(ParseError):
        read_matrix(p, "csv")


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
@pytest.mark.parametrize(
    "name, text, line",
    [
        ("a.mtx", "%%MatrixMarket matrix array real general\n2 1\n1.0\n{}\n", 4),
        ("c.mtx", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 {}\n", 4),
        ("y.csv", "1,2\n\n3,{}\n", 3),
    ],
    ids=["array", "coordinate", "csv"],
)
def test_non_finite_token_is_parse_error_with_its_line(tmp_path, token, name, text, line):
    p = tmp_path / name
    p.write_text(text.format(token))
    fmt = "csv" if name.endswith(".csv") else "mm"
    readers = [lambda: read_matrix(p, fmt)] + ([lambda: read_coordinate(p)] if fmt == "mm" else [])
    for read in readers:
        with pytest.raises(ParseError, match=f"non-finite value '{token}'") as err:
            read()
        assert err.value.line == line and err.value.path == p


def test_read_coordinate_observes_every_entry_of_an_array_file(tmp_path):
    p = tmp_path / "a.mtx"
    y = np.arange(6.0).reshape(2, 3)
    write_matrix(p, y, "mm")
    y2, mask = read_coordinate(p)
    assert np.array_equal(y2, y)
    full = ObservedMask.full(2, 3)
    assert np.array_equal(mask.row_idx, full.row_idx)
    assert np.array_equal(mask.col_idx, full.col_idx)


def test_read_matrix_builds_no_mask(tmp_path, monkeypatch):
    p = tmp_path / "c.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 3 2\n2 1 1.5\n1 3 2.0\n")
    built, post_init = [], ObservedMask.__post_init__
    monkeypatch.setattr(ObservedMask, "__post_init__", lambda m: built.append(1) or post_init(m))
    y = read_matrix(p, "mm")
    assert built == [] and y.tolist() == [[0.0, 0.0, 2.0], [1.5, 0.0, 0.0]]
    y2, mask = read_coordinate(p)
    assert built == [1] and np.array_equal(y2, y) and mask.flat.tolist() == [2, 3]


def test_unknown_format(tmp_path):
    with pytest.raises(InvalidParameterError):
        read_matrix("whatever", "hdf5")
    with pytest.raises(InvalidParameterError, match="unknown format 'hdf5'"):
        write_matrix(tmp_path / "y.h5", np.eye(2), "hdf5")
    assert not (tmp_path / "y.h5").exists()


def test_coordinate_duplicate_entry_last_wins(tmp_path):
    p = tmp_path / "dup.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n"
        "2 1 1.0\n1 2 2.0\n2 1 3.0\n"
    )
    y, mask = read_coordinate(p)
    assert y[1, 0] == 3.0 and y[0, 1] == 2.0
    assert mask.row_idx.tolist() == [0, 1]
    assert mask.col_idx.tolist() == [1, 0]


def test_movielens_and_coordinate_files_agree(tmp_path):
    triples = [(2, 3, 4), (1, 1, 5), (3, 2, 1), (2, 3, 2), (1, 2, 3)]  # (2, 3) twice
    ml = tmp_path / "u.data"
    ml.write_text("".join(f"{i}\t{j}\t{v}\t0\n" for i, j, v in triples))
    mm = tmp_path / "u.mtx"
    mm.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 5\n"
        + "".join(f"{i} {j} {v}\n" for i, j, v in triples)
    )
    data = read_movielens(ml)
    y, mask = read_coordinate(mm)
    assert np.array_equal(data.y, y) and y[1, 2] == 2.0
    assert np.array_equal(data.mask.row_idx, mask.row_idx)
    assert np.array_equal(data.mask.col_idx, mask.col_idx)
    assert data.duplicates == 1 and len(triples) - mask.card == 1


@pytest.mark.parametrize(
    "read", [read_coordinate, lambda p: read_matrix(p, "mm")], ids=["coordinate", "matrix"]
)
def test_empty_coordinate_file_is_parse_error_naming_the_file(tmp_path, read):
    p = tmp_path / "empty.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n3 3 0\n")
    with pytest.raises(ParseError, match="no entries found") as err:
        read(p)
    assert err.value.path == p and str(p) in str(err.value)


def test_coordinate_error_names_the_offending_line(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n% comment\n2 2 1\n3 1 1.0\n"
    )
    with pytest.raises(ParseError) as err:
        read_coordinate(p)
    assert err.value.line == 4


def _bench_like_coordinate_file(path):
    # the bench's complete instance: 300 x 300, FR 0.4, 14,750 entries
    y = add_noise_snr(gen_lowrank(300, 300, 10, "gaussian", 1), 20.0, 2)
    write_mask_coordinate(path, y, sample_mask(300, 300, 14_750, 3))


def _commented_coordinate_file(path):
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n% a comment\n\n3 4 5\n"
        "1 1 0.5\n%inside the body\n\n   3 4\t-2e-3\n2 1 +7\n\n1 1 1.25\n2 3 .5\n"
    )


def _csv_file(path):
    rng = np.random.default_rng(13)
    y = rng.standard_normal((40, 30)) * np.exp(rng.standard_normal((40, 30)) * 5)
    y[0, 0], y[1, 1], y[2, 2] = -0.0, 1e300, 5e-324
    write_matrix(path, y, "csv")
    with open(path, "a") as fh:
        fh.write("\n +1, " + ",".join(["-2.5E-3 "] * 29) + "\n")


def _movielens_file(path):
    rng = np.random.default_rng(14)
    lines = [
        f"{rng.integers(1, 60)}\t{rng.integers(1, 80)}\t{rng.integers(1, 6)}\t{rng.integers(10**9)}"
        for _ in range(900)
    ]
    path.write_text("\n".join(lines) + "\n\n+7\t 3\t5\t0\n")


def _read_csv(path):
    return read_matrix(path, "csv"), None


def _read_movielens(path):
    ratings = read_movielens(path)
    return ratings.y, ratings.mask


@pytest.mark.parametrize(
    "write, read",
    [
        pytest.param(write, read, id=write.__name__)
        for write, read in [
            (_bench_like_coordinate_file, read_coordinate),
            (_csv_file, _read_csv),
            (_movielens_file, _read_movielens),
        ]
    ],
)
def test_table_pass_and_walk_agree(tmp_path, monkeypatch, write, read):
    # the one np.loadtxt pass over a table and the walk it falls back to
    # give bit-identical (y, mask), a repeated entry included
    p = tmp_path / "y.txt"
    write(p)
    loadtxt, tables = np.loadtxt, []

    def record(*args, **kwargs):
        tables.append(loadtxt(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(np, "loadtxt", record)
    y_fast, mask_fast = read(p)
    assert len(tables) == 1  # the file took the one pass

    def refuse(*args, **kwargs):
        raise ValueError("refused")

    monkeypatch.setattr(np, "loadtxt", refuse)
    y_walk, mask_walk = read(p)
    assert y_fast.shape == y_walk.shape and y_fast.tobytes() == y_walk.tobytes()
    if mask_fast is not None:
        assert (mask_fast.rows, mask_fast.cols) == (mask_walk.rows, mask_walk.cols)
        assert np.array_equal(mask_fast.flat, mask_walk.flat)


def test_a_comment_line_in_a_coordinate_body_is_walked(tmp_path, monkeypatch):
    # np.loadtxt refuses a "%" line after the size line, which standard
    # MatrixMarket does not hold there; the walk drops it and reads the rest
    p = tmp_path / "y.mtx"
    _commented_coordinate_file(p)
    loadtxt, refused = np.loadtxt, []

    def record(*args, **kwargs):
        try:
            return loadtxt(*args, **kwargs)
        except ValueError:
            refused.append(args[0])
            raise

    monkeypatch.setattr(np, "loadtxt", record)
    y, mask = read_coordinate(p)
    assert refused == [p]
    want = np.zeros((3, 4))
    want[0, 0], want[2, 3], want[1, 0], want[1, 2] = 1.25, -2e-3, 7.0, 0.5
    assert y.tobytes() == want.tobytes()
    assert (mask.rows, mask.cols) == (3, 4) and mask.flat.tolist() == [0, 4, 6, 11]


def test_an_integer_beyond_int64_is_a_located_parse_error(tmp_path):
    big = "99999999999999999999"
    p = tmp_path / "big.mtx"
    p.write_text(f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n{big} 1 1\n")
    with pytest.raises(ParseError, match=rf"index \({big}, 1\) out of bounds") as err:
        read_coordinate(p)
    assert err.value.line == 4
    p = tmp_path / "u.data"
    p.write_text(f"1\t1\t3\t0\n{big}\t1\t3\t0\n")
    with pytest.raises(ParseError):
        read_movielens(p)


@pytest.mark.parametrize(
    "name, text, read",
    [
        ("c.mtx", "%%MatrixMarket matrix coordinate real general\n3 3 0\n% none\n\n",
         read_coordinate),
        ("c.mtx", "%%MatrixMarket matrix coordinate real general\n3 3 2\n", read_coordinate),
        ("y.csv", "\n\n", lambda p: read_matrix(p, "csv")),
        ("u.data", "", read_movielens),
    ],
    ids=["coordinate-none-declared", "coordinate-two-declared", "csv", "movielens"],
)
def test_an_empty_body_is_a_parse_error_without_a_warning(tmp_path, name, text, read):
    p = tmp_path / name
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError):
            read(p)


@pytest.mark.parametrize(
    "entry, message",
    [
        ("1 2", "coordinate entry needs i j value"),
        ("1 2 3 4", "coordinate entry needs i j value"),
        ("1.0 2 3", "non-integer token '1.0'"),
        ("1 2 nan", "non-finite value 'nan'"),
        ("1 2 1e400", "non-finite value '1e400'"),
        ("1 3 1", r"index \(1, 3\) out of bounds"),
        ("0 1 1", r"index \(0, 1\) out of bounds"),
        ("1 2 x", "non-numeric token 'x'"),
    ],
)
def test_coordinate_faults_keep_their_message_and_line(tmp_path, entry, message):
    # a fault the one-pass parse meets sends the file to the line loop
    p = tmp_path / "bad.mtx"
    p.write_text(
        f"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n\n{entry}\n2 2 1\n"
    )
    with pytest.raises(ParseError, match=message) as err:
        read_coordinate(p)
    assert err.value.line == 5


def test_coordinate_declared_count_is_checked_after_the_entries(tmp_path):
    p = tmp_path / "short.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n2 2 1\n")
    with pytest.raises(ParseError, match="expected 3 entries, found 2") as err:
        read_coordinate(p)
    assert err.value.line is None


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("2.5 2 1\n1 1 1.0\n", 2, "non-integer token '2.5'"),
        ("2 -3 1\n1 1 1.0\n", 2, "negative size"),
        ("2 2 1\n1 1.5 1.0\n", 3, "non-integer token '1.5'"),
    ],
    ids=["fractional-size", "negative-size", "fractional-index"],
)
def test_mm_integer_fields_are_parse_errors_with_location(tmp_path, body, line, message):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
    with pytest.raises(ParseError, match=message) as err:
        read_coordinate(p)
    assert err.value.line == line and err.value.path == p


@pytest.mark.parametrize(
    "header, size",
    [("coordinate", "4000 4000 1\n1 1 1.0"), ("coordinate", "100000 100000 1\n1 1 1.0"),
     ("array", "4000 4000\n1.0")],
    ids=["coordinate-16M-cells", "coordinate-10G-cells", "array-16M-cells"],
)
def test_mm_size_over_densify_limit_is_refused_before_allocating(
    tmp_path, monkeypatch, header, size
):
    p = tmp_path / "big.mtx"
    p.write_text(f"%%MatrixMarket matrix {header} real general\n{size}\n")

    def refuse(*args, **kwargs):
        raise AssertionError("allocated a matrix")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(ParseError, match="too large to densify") as err:
        read_matrix(p, "mm")
    assert err.value.line == 2
