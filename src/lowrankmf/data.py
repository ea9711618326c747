"""Synthetic instance generation and matrix file formats.

Generators are deterministic functions of their parameters and seed.
File support covers MatrixMarket (array and coordinate, real general),
dense CSV, and the tab-separated MovieLens ratings format.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, InvalidParameterError, ObservedMask, as_matrix

__all__ = [
    "ParseError",
    "gen_lowrank",
    "add_noise_snr",
    "sample_mask",
    "MovielensData",
    "read_movielens",
    "read_matrix",
    "write_matrix",
    "write_mask_coordinate",
]

MM_HEADER_COORD = "%%MatrixMarket matrix coordinate real general"
MM_HEADER_ARRAY = "%%MatrixMarket matrix array real general"

# Above this cell count a ratings grid is refused instead of densified.
DENSIFY_LIMIT = 10_000_000


class ParseError(ValueError):
    """Malformed input file; carries the offending location."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = f"{path}:{line}: " if line is not None else (f"{path}: " if path else "")
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


def gen_lowrank(m: int, n: int, r: int, dist: str, seed: int) -> np.ndarray:
    """Rank-r product of random factors: Gaussian or uniform nonnegative."""
    if r < 1 or r > min(m, n):
        raise InvalidParameterError("need 1 <= r <= min(m, n)")
    rng = np.random.default_rng(seed)
    if dist == "gaussian":
        u0 = rng.standard_normal((m, r))
        v0 = rng.standard_normal((n, r))
    elif dist == "uniform01":
        u0 = rng.uniform(0.0, 1.0, (m, r))
        v0 = rng.uniform(0.0, 1.0, (n, r))
    else:
        raise InvalidParameterError(f"unknown distribution {dist!r}")
    return u0 @ v0.T


def add_noise_snr(x0, snr_db: float, seed: int) -> np.ndarray:
    """Add i.i.d. Gaussian noise with variance ||X0||_F^2 / (m n 10^(snr/10)),
    none at ``snr_db = inf``.  An ``snr_db`` that gives no finite variance
    (NaN, -inf, or so low that 10^(snr/10) underflows) is refused."""
    x0 = as_matrix(x0, "x0")
    if snr_db == math.inf:
        return x0.copy()
    m, n = x0.shape
    try:
        sigma2 = float(np.sum(x0 * x0)) / (m * n * 10.0 ** (snr_db / 10.0))
    except ZeroDivisionError:  # 10^(snr/10) underflowed to 0
        sigma2 = math.nan
    except OverflowError:  # 10^(snr/10) above the float range: no noise to add
        return x0.copy()
    if not math.isfinite(sigma2):
        raise InvalidParameterError(f"snr_db={snr_db!r} gives no finite noise variance")
    rng = np.random.default_rng(seed)
    return x0 + rng.standard_normal((m, n)) * math.sqrt(sigma2)


def sample_mask(m: int, n: int, card: int, seed: int) -> ObservedMask:
    """Uniformly random set of exactly ``card`` distinct observed entries."""
    if card < 1 or card > m * n:
        raise InvalidParameterError("need 1 <= card <= m*n")
    rng = np.random.default_rng(seed)
    flat = rng.choice(m * n, size=card, replace=False)
    ri, ci = np.divmod(flat, n)
    return ObservedMask(m, n, ri, ci)


@dataclass(frozen=True)
class MovielensData:
    """Parsed ratings: dense matrix, observed mask, and the count of
    duplicate (user, item) lines."""

    y: np.ndarray
    mask: ObservedMask
    duplicates: int


def read_movielens(path) -> MovielensData:
    """Parse tab-separated ``user  item  rating  timestamp`` lines.

    1-indexed ids map to 0-indexed rows/cols; on duplicate (user, item)
    pairs the last rating wins.  Timestamps are discarded.  A grid of more
    than ``DENSIFY_LIMIT`` cells is a :class:`ParseError`.
    """
    table = _table(path, "i8,i8,i8,i8", "\t", "expected 4 tab-separated fields, got {}")
    users, items, ratings, _ = (table[name] for name in table.dtype.names)
    checks = [
        ((ratings < 1) | (ratings > 5), lambda f: f"rating {int(f[2])} outside 1..5"),
        ((users < 1) | (items < 1), lambda f: "user/item ids must be >= 1"),
    ]
    _refuse_first(path, "\t", checks)
    rows, cols = int(users.max(initial=0)), int(items.max(initial=0))
    y, flat, duplicates = _from_triples(rows, cols, users - 1, items - 1, ratings, path)
    return MovielensData(y, ObservedMask(rows, cols, *np.divmod(flat, cols)), duplicates)


def _lines(fh):
    """(line number, stripped text) of each non-blank line of the file ``fh``."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _walk(path, skip: int = 0, comments: bool = False) -> list:
    """(line number, stripped text) of each non-blank line of ``path`` after
    its first ``skip``, lines that start with "%" left out if ``comments``."""
    with open(path) as fh:
        lines = _lines(fh)
        return [(n, t) for n, t in lines if n > skip and not (comments and t.startswith("%"))]


def _check_densify(rows: int, cols: int, path, line: int | None = None):
    if rows * cols > DENSIFY_LIMIT:
        msg = f"{rows} x {cols} exceeds {DENSIFY_LIMIT} cells; too large to densify"
        raise ParseError(msg, path, line)


def _from_triples(rows: int, cols: int, ri, ci, vals, path):
    """(y, flat, duplicates) of the 0-based ``(ri, ci, vals)`` triples of a
    rows x cols file, ``flat`` their sorted distinct offsets ``i * cols + j``:
    a repeated entry keeps its last value.  A file with no
    entries, or a grid too large to densify, is refused before allocating."""
    if len(vals) == 0:
        raise ParseError("no entries found", path)
    _check_densify(rows, cols, path)
    flat = np.asarray(ri, dtype=np.int64) * cols + np.asarray(ci, dtype=np.int64)
    # np.unique keeps each offset's first index: over the reversed list, its last
    flat, last = np.unique(flat[::-1], return_index=True)
    y = np.zeros((rows, cols))
    y.flat[flat] = np.asarray(vals, dtype=np.float64)[::-1][last]
    return y, flat, len(vals) - flat.size


def _parse_int(tok: str, path, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"non-integer token {tok!r}", path, lineno) from None


def _parse_float(tok: str, path, lineno: int) -> float:
    """``tok`` as a finite float; NaN, infinities and overflows are refused."""
    try:
        val = float(tok)
    except ValueError:
        raise ParseError(f"non-numeric token {tok!r}", path, lineno) from None
    if not math.isfinite(val):
        raise ParseError(f"non-finite value {tok!r}", path, lineno)
    return val


def _table(path, dtype, sep, width_message: str, skip: int = 0, comments: bool = False):
    """The finite fields of the non-blank lines of ``path`` after its first
    ``skip``, split at ``sep`` (None: at whitespace), lines that start with
    "%" left out if ``comments``: a record per line for a structured
    ``dtype``, else a row per line as wide as the first.

    One C pass of ``np.loadtxt`` reads them straight from the file.  Only if
    it refuses a line (a "%" line among them), reads a non-finite value or
    finds no line does a walk with ``int`` and ``float``, which accept a
    superset of its tokens and read them to the same values, read the table
    or raise the fault at its line; a line of another width gets
    ``width_message`` with its field count and the table's.  The walk clamps
    integers to the int64 range, which holds every index and id of a
    densifiable grid, so the caller's range checks still refuse them."""
    dtype = np.dtype(dtype)
    try:
        # numpy < 2 reads an integer "1.0" as 1 with a DeprecationWarning: refuse
        # it; an input without data warns as well
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("error", UserWarning)
            table = np.loadtxt(
                path, dtype, delimiter=sep, comments=None, skiprows=skip,
                encoding=None, ndmin=1 if dtype.names else 2,
            )
        fields = [table[name] for name in dtype.names] if dtype.names else [table]
        if all(np.isfinite(field).all() for field in fields):
            return table
    except (ValueError, DeprecationWarning, UserWarning):
        pass
    entries = _walk(path, skip, comments)
    int64 = np.iinfo(np.int64)
    parse = {
        "i": lambda tok, lineno: min(max(_parse_int(tok, path, lineno), int64.min), int64.max),
        "f": lambda tok, lineno: _parse_float(tok, path, lineno),
    }
    # a plain table is as wide as its first line
    width = len(dtype) or (len(entries[0][1].split(sep)) if entries else 0)
    kinds = [(dtype[k] if dtype.names else dtype).kind for k in range(width)]
    rows = []
    for lineno, text in entries:
        toks = text.split(sep)
        if len(toks) != width:
            raise ParseError(width_message.format(len(toks), width), path, lineno)
        rows.append(tuple(parse[kind](tok, lineno) for kind, tok in zip(kinds, toks)))
    return np.array(rows, dtype)


def _refuse_first(path, sep, checks, skip: int = 0, comments: bool = False) -> None:
    """Raise a :class:`ParseError` at the first line of :func:`_table`'s
    table that one of ``checks``, pairs of (bad-line mask, message from the
    line's fields), marks, with the message of the first check that marks
    it.  Only then are the lines walked, for the line and its fields."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        k = int(bad.argmax())
        lineno, text = _walk(path, skip, comments)[k]
        message = next(message for mask, message in checks if mask[k])
        raise ParseError(message(text.split(sep)), path, lineno)


def _read_mm(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse a MatrixMarket file: the dense matrix and, for a coordinate
    file, the sorted offsets of its listed entries.  The body after the size
    line is one :func:`_table` pass, walked only if it holds a "%" line,
    which standard MatrixMarket does not put there.  A size line of more
    than ``DENSIFY_LIMIT`` cells is refused before allocating."""
    with open(path) as fh:
        lines = _lines(fh)
        header_no, header = next(lines, (None, None))
        if header is None:
            raise ParseError("empty file", path)
        coordinate = header == MM_HEADER_COORD
        if not coordinate and header != MM_HEADER_ARRAY:
            raise ParseError(f"unsupported MatrixMarket header {header!r}", path, header_no)
        body = ((lineno, line) for lineno, line in lines if not line.startswith("%"))
        size_line_no, size_line = next(body, (None, None))
    if size_line is None:
        raise ParseError("missing size line", path)
    sizes = [_parse_int(t, path, size_line_no) for t in size_line.split()]
    if coordinate and len(sizes) != 3:
        raise ParseError("coordinate size line needs rows cols nnz", path, size_line_no)
    if not coordinate and len(sizes) != 2:
        raise ParseError("array size line needs rows cols", path, size_line_no)
    if min(sizes) < 0:
        raise ParseError("negative size", path, size_line_no)
    rows, cols = sizes[:2]
    _check_densify(rows, cols, path, size_line_no)
    if coordinate:
        message = "coordinate entry needs i j value"
        table = _table(path, "i8,i8,f8", None, message, size_line_no, True)
        i, j, vals = (table[name] for name in table.dtype.names)
        out = (i < 1) | (i > rows) | (j < 1) | (j > cols)
        checks = [(out, lambda f: f"index ({int(f[0])}, {int(f[1])}) out of bounds")]
        _refuse_first(path, None, checks, size_line_no, True)
        if len(table) != sizes[2]:
            raise ParseError(f"expected {sizes[2]} entries, found {len(table)}", path)
        return _from_triples(rows, cols, i - 1, j - 1, vals, path)[:2]
    ragged = "ragged array body ({} vs {} values per line)"
    values = _table(path, np.float64, None, ragged, size_line_no, True).ravel()
    if len(values) != rows * cols:
        raise ParseError(f"expected {rows * cols} values, found {len(values)}", path)
    # MatrixMarket array format is column-major.
    return np.reshape(values, (cols, rows)).T, None


def read_coordinate(path) -> tuple[np.ndarray, ObservedMask]:
    """Read a MatrixMarket file as (dense matrix, observed mask).

    A coordinate file observes its listed entries, everything else is 0;
    an array file observes every entry.
    """
    y, flat = _read_mm(path)
    flat = np.arange(y.size) if flat is None else flat
    return y, ObservedMask(*y.shape, *np.divmod(flat, y.shape[1]))


def read_matrix(path, fmt: str) -> np.ndarray:
    """Read a dense matrix from a MatrixMarket (``mm``) or ``csv`` file."""
    if fmt == "mm":
        return _read_mm(path)[0]
    if fmt != "csv":
        raise InvalidParameterError(f"unknown format {fmt!r}")
    table = _table(path, np.float64, ",", "ragged row ({} vs {} columns)")
    if table.size == 0:
        raise ParseError("empty file", path)
    return table


def write_matrix(path, a, fmt: str) -> None:
    """Write a dense matrix with full round-trip precision.  CSV has no line
    for a matrix without entries, so one with a zero dimension needs ``mm``."""
    a = as_matrix(a)
    if fmt == "mm":
        header = f"{MM_HEADER_ARRAY}\n{a.shape[0]} {a.shape[1]}"
        np.savetxt(path, a.ravel(order="F"), "%.17g", header=header, comments="")
    elif fmt == "csv":
        if a.size == 0:
            raise InvalidParameterError(f"csv cannot hold a {a.shape} matrix; write it as mm")
        np.savetxt(path, a, "%.17g", delimiter=",")
    else:
        raise InvalidParameterError(f"unknown format {fmt!r}")


def write_mask_coordinate(path, y, mask: ObservedMask) -> None:
    """Write observed entries as a MatrixMarket coordinate file."""
    y = as_matrix(y, "y")
    shape = (mask.rows, mask.cols)
    if y.shape != shape:
        raise DimensionMismatchError(f"y shape {y.shape} does not match mask {shape}")
    entries = np.rec.fromarrays((mask.row_idx + 1, mask.col_idx + 1, y.flat[mask.flat]))
    header = f"{MM_HEADER_COORD}\n{mask.rows} {mask.cols} {mask.card}"
    np.savetxt(path, entries, "%d %d %.17g", header=header, comments="")
