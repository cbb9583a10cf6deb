"""CSV tables: the one module that knows the file format.

Every file is a header row followed by data rows, written by the csv
module (rows end in CRLF) with numbers formatted as FMT:

    truth.csv           t,x_1,...,x_d            one row per time 0, dt, ..., T
    obs.csv             t,y,dz                   one row per time dt, ..., T
    fpf_trace.csv       t,dz,mean_1..mean_d,cov_11..cov_dd,h_hat,n_flagged
                        (cov_1_1..cov_d_d for d >= 10, read by position)
                                                 one row per time 0, dt, ..., T
    compare.csv         t, then for each filter in the order fpf, kb, bpf,
                        grid: <filter>_mean_1..<filter>_mean_d,
                        <filter>_var_1..<filter>_var_d (posterior marginal
                        moments; kb only for affine models, grid only for
                        d = 1 with a single column pair)
                                                 one row per time 0, dt, ..., T
    verify_<suite>.csv  check,point,residual,tolerance,pass

Numeric tables are read back as finite floats only. ModelValidationError
rejects a file that does not decode as CSV text or has no data rows, a
row whose field count differs from the header, and a non-numeric or NaN/inf
field.
"""

from __future__ import annotations

import csv
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .model import ModelValidationError

__all__ = ["FMT", "read_table", "write_table"]

FMT = "%.12g"


def write_table(path: str, header: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Write a header row and data rows, from a 2-D array a row at a time;
    str cells are written as they are, numbers with FMT."""
    if isinstance(rows, np.ndarray):
        rows = map(np.ndarray.tolist, rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cell if isinstance(cell, str) else FMT % cell
                          for cell in row] for row in rows)


def read_table(path: str) -> Tuple[List[str], np.ndarray]:
    """The header and a (rows, columns) float array of a numeric table."""
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ModelValidationError(f"{path}: {exc}") from None
    if len(rows) < 2:
        raise ModelValidationError(f"{path}: no data rows")
    header, body = rows[0], rows[1:]
    for line, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ModelValidationError(
                f"{path} line {line}: {len(row)} fields, header has "
                f"{len(header)}")
    try:
        data = np.array([[float(v) for v in row] for row in body])
    except ValueError as exc:
        raise ModelValidationError(f"{path}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if len(bad):
        raise ModelValidationError(
            f"{path} line {bad[0] + 2}: non-finite value")
    return header, data
