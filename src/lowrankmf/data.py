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

from .core import InvalidParameterError, ObservedMask, as_matrix

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
# One entry line of a coordinate file: 1-based row and column, value.
COORDINATE_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])

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
    users, items, ratings = [], [], []
    for lineno, line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(parts)}", path, lineno)
        user, item, rating, _ = (_parse_int(t, path, lineno) for t in parts)
        if not 1 <= rating <= 5:
            raise ParseError(f"rating {rating} outside 1..5", path, lineno)
        if user < 1 or item < 1:
            raise ParseError("user/item ids must be >= 1", path, lineno)
        users.append(user - 1)
        items.append(item - 1)
        ratings.append(rating)
    rows, cols = max(users, default=-1) + 1, max(items, default=-1) + 1
    y, flat, duplicates = _from_triples(rows, cols, users, items, ratings, path)
    return MovielensData(y, ObservedMask(rows, cols, *np.divmod(flat, cols)), duplicates)


def _lines(path):
    """(line number, stripped text) of each non-blank line of ``path``."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield lineno, line


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


def _coordinate_table(entries, rows: int, cols: int, count: int):
    """0-based ``(ri, ci, vals)`` of the coordinate ``entries`` ((line
    number, text) pairs) parsed in one C pass of ``np.loadtxt``, or None
    unless there are ``count`` lines, each ``i j value`` with integer
    indices in bounds and a finite value.  The parser accepts a subset of
    the tokens ``int`` and ``float`` accept and reads them to the same
    values, so the triples equal those of the line loop of :func:`_read_mm`."""
    if count == 0 or len(entries) != count:
        return None
    try:
        # numpy < 2 reads an index "1.0" as 1 with a DeprecationWarning: refuse it
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(
                [entry for _, entry in entries], dtype=COORDINATE_ENTRY, comments=None, ndmin=1
            )
    except (ValueError, DeprecationWarning):
        return None
    ri, ci, vals = table["i"] - 1, table["j"] - 1, table["v"]
    in_bounds = min(ri.min(), ci.min()) >= 0 and ri.max() < rows and ci.max() < cols
    return (ri, ci, vals) if in_bounds and np.isfinite(vals).all() else None


def _read_mm(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse a MatrixMarket file in one pass: the dense matrix and, for a
    coordinate file, the sorted offsets of its listed entries.  A size line
    of more than ``DENSIFY_LIMIT`` cells is refused before allocating."""
    lines = _lines(path)
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
        entries = list(body)
        triples = _coordinate_table(entries, rows, cols, sizes[2])
        if triples is not None:
            return _from_triples(rows, cols, *triples, path)[:2]
        # the line loop finds the fault and reports it with its line
        ri, ci, vals = [], [], []
        for lineno, entry in entries:
            toks = entry.split()
            if len(toks) != 3:
                raise ParseError("coordinate entry needs i j value", path, lineno)
            i, j = _parse_int(toks[0], path, lineno), _parse_int(toks[1], path, lineno)
            val = _parse_float(toks[2], path, lineno)
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise ParseError(f"index ({i}, {j}) out of bounds", path, lineno)
            ri.append(i - 1)
            ci.append(j - 1)
            vals.append(val)
        if len(vals) != sizes[2]:
            raise ParseError(f"expected {sizes[2]} entries, found {len(vals)}", path)
        return _from_triples(rows, cols, ri, ci, vals, path)[:2]
    values = [_parse_float(tok, path, lineno) for lineno, entry in body for tok in entry.split()]
    if len(values) != rows * cols:
        raise ParseError(f"expected {rows * cols} values, found {len(values)}", path)
    # MatrixMarket array format is column-major.
    return np.array(values).reshape((cols, rows)).T, None


def _read_csv(path):
    rows = []
    width = None
    for lineno, line in _lines(path):
        toks = line.split(",")
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise ParseError(f"ragged row ({len(toks)} vs {width} columns)", path, lineno)
        rows.append([_parse_float(t, path, lineno) for t in toks])
    if not rows:
        raise ParseError("empty file", path)
    return np.array(rows)


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
    if fmt == "csv":
        return _read_csv(path)
    raise InvalidParameterError(f"unknown format {fmt!r}")


def write_matrix(path, a, fmt: str) -> None:
    """Write a dense matrix with full round-trip precision."""
    a = as_matrix(a)
    rows, cols = a.shape
    if fmt == "mm":
        with open(path, "w") as fh:
            fh.write(MM_HEADER_ARRAY + "\n")
            fh.write(f"{rows} {cols}\n")
            for j in range(cols):
                for i in range(rows):
                    fh.write(f"{a[i, j]:.17g}\n")
    elif fmt == "csv":
        with open(path, "w") as fh:
            for i in range(rows):
                fh.write(",".join(f"{x:.17g}" for x in a[i]) + "\n")
    else:
        raise InvalidParameterError(f"unknown format {fmt!r}")


def write_mask_coordinate(path, y, mask: ObservedMask) -> None:
    """Write observed entries as a MatrixMarket coordinate file."""
    y = as_matrix(y, "y")
    with open(path, "w") as fh:
        fh.write(MM_HEADER_COORD + "\n")
        fh.write(f"{mask.rows} {mask.cols} {mask.card}\n")
        for i, j in zip(mask.row_idx, mask.col_idx):
            fh.write(f"{i + 1} {j + 1} {y[i, j]:.17g}\n")
