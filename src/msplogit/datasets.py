"""Data loading and the bundled example data.

The sea-star predation experiment: a randomized complete block design
with four symbiont treatments (none, crabs, shrimp, both), ten temporal
blocks, and two replicates per block and treatment, for 80 binary
predation outcomes.  One observation is atypical: zero predation in
block 10 under no symbionts.  Analyses conventionally drop it.
"""

from __future__ import annotations

import csv
from importlib import resources
from types import SimpleNamespace

import numpy as np

from .model import ClusteredDataset, DataError

__all__ = ["load_csv", "culcita_path", "culcita_columns", "culcita", "CULCITA_ATYPICAL_ROW"]

# (block, treatment, replicate) of the atypical observation.
CULCITA_ATYPICAL_ROW = ("10", "none", 2)


def load_csv(path: str, config) -> ClusteredDataset:
    """Read a UTF-8 CSV with a header row into a clustered dataset.

    ``config`` names the columns through its ``response``, ``cluster``,
    ``fixed``, ``random`` and ``intercept`` attributes, as
    ``cli.RunConfig`` does; nothing else of it is read.  Rows are
    grouped by the cluster column, and the groups stacked in order of
    each label's first appearance.  When ``config.intercept`` is set, a
    column of ones is prepended to both the fixed-effects and the
    random-effects designs.
    Structural problems raise ``DataError`` naming the offending line.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise DataError(f"cannot open {path}: {err}") from err
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        needed = [config.response, config.cluster] + config.fixed + config.random
        for col in needed:
            if col not in header:
                raise DataError(f"{path}: column {col!r} not found in header")
        col_idx = {name: header.index(name) for name in needed}

        labels: list[str] = []
        groups: dict[str, list[tuple[float, list[float], list[float]]]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")

            def cell(col):
                return row[col_idx[col]].strip()

            raw = cell(config.response)
            try:
                resp = float(raw)
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: response {raw!r} is not a number"
                ) from None
            if resp not in (0.0, 1.0):
                raise DataError(f"{path}: line {lineno}: response {raw!r} is not 0 or 1")

            def covariate(col):
                text = cell(col)
                try:
                    value = float(text)
                except ValueError:
                    raise DataError(
                        f"{path}: line {lineno}: column {col!r} value {text!r} is not numeric"
                    ) from None
                if not np.isfinite(value):
                    raise DataError(
                        f"{path}: line {lineno}: column {col!r} value {text!r} is not finite"
                    )
                return value

            xrow = ([1.0] if config.intercept else []) + [covariate(c) for c in config.fixed]
            zrow = ([1.0] if config.intercept else []) + [covariate(c) for c in config.random]
            label = cell(config.cluster)
            if label not in groups:
                labels.append(label)
                groups[label] = []
            groups[label].append((resp, xrow, zrow))

    if not labels:
        raise DataError(f"{path}: no data rows")
    rows = [row for label in labels for row in groups[label]]
    try:
        return ClusteredDataset(
            np.array([r[0] for r in rows]),
            np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows]),
            [len(groups[label]) for label in labels],
        )
    except DataError as err:
        raise DataError(f"{path}: {err}") from None


def culcita_path() -> str:
    """Filesystem path of the bundled predation CSV."""
    return str(resources.files("msplogit").joinpath("data/culcita.csv"))


def culcita_columns() -> dict:
    """The column settings ``load_csv`` needs for the bundled predation CSV."""
    return dict(
        response="predation",
        fixed=["crabs", "shrimp", "both"],
        random=[],
        cluster="block",
        intercept=True,
    )


def culcita(drop_atypical: bool = False) -> ClusteredDataset:
    """The predation data as a clustered dataset (p = 4 with intercept, q = 1).

    With ``drop_atypical`` the block-10 no-symbiont zero response is
    removed, leaving 79 rows; a cluster left without rows is dropped.
    """
    data = load_csv(culcita_path(), SimpleNamespace(**culcita_columns()))
    if not drop_atypical:
        return data
    keep = []
    with open(culcita_path(), encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        i_block = header.index("block")
        i_treat = header.index("treatment")
        i_rep = header.index("replicate")
        for line in handle:
            cells = line.strip().split(",")
            keep.append(
                (cells[i_block], cells[i_treat], int(cells[i_rep])) != CULCITA_ATYPICAL_ROW
            )
    keep = np.array(keep)
    sizes = np.bincount(data.row_cluster[keep], minlength=data.k)
    return ClusteredDataset(data.y[keep], data.X[keep], data.Z[keep], sizes[sizes > 0])
