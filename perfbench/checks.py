"""Checks on what one CLI command printed.

Every function returns a list of problems; an empty list means the output
passed.  ``check_csv`` holds a weighted single-run CSV (``count --runs 1`` or
``sample``) to what the CLI promises:

* the fixed header, and one row per shape, sorted by estimate, then key;
* every key parses with ``key_from_text`` at order k, is already in
  canonical form, and is connected on all k vertices;
* the samples column adds up to the budget;
* relative frequencies sum to 1 within 1e-9, and each one prints exactly
  as inv_sigma_sum over its column total does;
* colorful_estimate / inv_sigma_sum is the same W/(kK) on every row.

The last two tie the columns together, so a changed digit anywhere but in a
key shows up.  A changed key digit can still spell another valid shape;
the benchmark catches that by comparing output digests across commands.
"""

import json
import math
import os
from fractions import Fraction

from hypergraphlets.canonlab import canonical_key, key_from_text, key_to_hypergraphlet
from hypergraphlets.cli import CSV_HEADER


def check_csv(text, k, expected_samples):
    lines = text.split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        return ["header %r != %r" % (lines[0] if lines else "", CSV_HEADER)]
    if len(lines) < 2:
        return ["no rows"]
    problems = []
    rows = []
    for ln, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != 5:
            problems.append("line %d: %d cells, want 5" % (ln, len(cells)))
            continue
        try:
            key = key_from_text(cells[0])
            row = (key, int(cells[1]), Fraction(cells[2]), Fraction(cells[3]),
                   float(cells[4]), cells[4])
        except (ValueError, ZeroDivisionError):
            problems.append("line %d: a cell does not parse: %r" % (ln, line))
            continue
        order, masks = key
        if order != k:
            problems.append("line %d: key order %d != k=%d" % (ln, order, k))
        elif any(not 0 < m < 1 << k for m in masks) or (
                canonical_key(key_to_hypergraphlet(key)) != key):
            problems.append("line %d: key %r is not canonical" % (ln, cells[0]))
        elif not _connected(k, masks):
            problems.append("line %d: key %r is not connected" % (ln, cells[0]))
        if not 0 < row[2] <= row[1]:
            problems.append("line %d: inv_sigma_sum outside (0, samples]" % ln)
        rows.append(row)
    if problems:
        return problems
    samples = sum(r[1] for r in rows)
    if samples != expected_samples:
        problems.append("samples column sums to %d, want %d"
                        % (samples, expected_samples))
    if not math.isclose(sum(r[4] for r in rows), 1.0, rel_tol=0.0, abs_tol=1e-9):
        problems.append("relative_frequency does not sum to 1")
    inv_total = sum(r[2] for r in rows)
    scale = rows[0][3] / rows[0][2]
    for ln, (_key, _s, inv, est, _rel, rel_text) in enumerate(rows, 2):
        if rel_text != repr(float(inv / inv_total)):
            problems.append("line %d: relative_frequency is not inv_sigma_sum "
                            "over its total" % ln)
        if est != scale * inv:
            problems.append("line %d: colorful_estimate is not W/(kK) times "
                            "inv_sigma_sum" % ln)
    order = sorted(rows, key=lambda r: (-r[3], r[0]))
    if [r[0] for r in order] != [r[0] for r in rows]:
        problems.append("rows are not sorted by estimate, then key")
    if len({r[0] for r in rows}) != len(rows):
        problems.append("a key appears twice")
    return problems


def _connected(k, masks):
    reach = 1
    grew = True
    while grew:
        grew = False
        for m in masks:
            if m & reach and m | reach != reach:
                reach |= m
                grew = True
    return reach == (1 << k) - 1


def check_build(text, k, n, table_path):
    """build prints one JSON object describing the table it wrote."""
    try:
        info = json.loads(text)
    except ValueError:
        return ["build output is not JSON"]
    problems = []
    if info.get("k") != k or info.get("n") != n:
        problems.append("build reports k=%r n=%r, want %d and %d"
                        % (info.get("k"), info.get("n"), k, n))
    if info.get("table") != table_path or not os.path.exists(table_path):
        problems.append("table %r was not written" % info.get("table"))
    W = info.get("W")
    if not (isinstance(W, str) and W.isdigit() and int(W) > 0):
        problems.append("W %r is not a positive integer" % W)
    return problems


def check_stats(text, n, m):
    try:
        info = json.loads(text)
    except ValueError:
        return ["stats output is not JSON"]
    if info.get("vertices") != n or info.get("edges") != m:
        return ["stats reports %r vertices and %r edges, want %d and %d"
                % (info.get("vertices"), info.get("edges"), n, m)]
    return []
