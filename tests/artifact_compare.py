"""Field-by-field comparison of two covrecon artifact directories.

    python tests/artifact_compare.py OLD_DIR NEW_DIR [--moved] [--max-rel X]

Every primary artifact found under OLD_DIR (all files but the *.meta.json
sidecars) is read with the artifacts.read_* readers, as is its namesake
under NEW_DIR.  The '# covrecon' and '# config' header lines of the CSV and
text artifacts, and their JSON counterparts, the top-level "version" and
"config" keys, are skipped, so two versions of the library compare on their
numbers alone.  One row is printed per field: the file, the field, its
value count, how many values differ and the largest relative move
|a - b| / max(|a|, |b|).  Fields are JSON key paths (list elements folded
into "[]") and CSV columns (numbered columns such as v_1, v_2, ... folded
into "v_*").  A value that is not a number moves by 0 when equal and by inf
otherwise, as does a NaN against a number; two NaNs are equal.  A sign flip
moves by 2.  The v_* columns of spectrum*.csv, whose rows are eigenvectors,
move instead by |a - b| over the largest |component| of the row in either
file, so that a component at roundoff, say 1e-17 against -1e-17, moves by as
little as it is small against its vector.  With --max-rel X the exit code is
1, and every field that moves by more than X is named on standard error,
when any does.  A primary artifact found under one directory only (each
one, in either direction) is named on standard error instead of a table,
and the exit code is 1.  Two namesakes compare on the fields they both
hold, matched by name; each field that one of them lacks, and each shared
field whose value count differs between them, is named on standard error
after the table, and the exit code is 1.
"""

import argparse
import math
import os
import re
import sys

try:
    from covrecon import artifacts
except ImportError:  # run as a script from a source checkout
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from covrecon import artifacts

_NUMBERED = re.compile(r"^(.*)_\d+$")
# the JSON keys that repeat the CSV header lines
_HEADER_KEYS = ("version", "config")


def _number(value):
    """value as a float, or None when it is not a number."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def relative_move(a, b, scale=None):
    """|a - b| / max(|a|, |b|) of two scalars, or |a - b| / scale when a
    scale is given; 0 for equal values, inf for unequal non-numbers and for
    a NaN against a number."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return 0.0 if a == b else math.inf
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    if x == y:
        return 0.0
    return abs(x - y) / (max(abs(x), abs(y)) if scale is None else scale)


def _magnitude(value):
    x = _number(value)
    return 0.0 if x is None or math.isnan(x) else abs(x)


def _json_fields(doc, path=""):
    """(field, value, None) triples of the leaves of a JSON document."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            if path or key not in _HEADER_KEYS:
                yield from _json_fields(doc[key],
                                        "%s.%s" % (path, key) if path else key)
    elif isinstance(doc, list):
        for item in doc:
            yield from _json_fields(item, path + "[]")
    else:
        yield path, doc, None


def _csv_fields(path):
    columns, rows = artifacts.read_csv(path)
    names = [_NUMBERED.sub(r"\1_*", c) for c in columns]
    vectors = os.path.basename(path).startswith("spectrum")
    for i, row in enumerate(rows):
        for name, value in zip(names, row):
            yield name, value, i if vectors and name == "v_*" else None


def _covariance_fields(path):
    cov = artifacts.read_covariance(path)
    yield ("header", (cov.dof_count, cov.estimator_kind, cov.tau, cov.alpha),
           None)
    for v in cov.matrix.ravel():
        yield "matrix", float(v), None


def _batch_fields(path):
    for v in artifacts.read_batch_csv(path).ravel():
        yield "coeffs", float(v), None


def fields_of(path):
    """The (field, value, vector) triples of one primary artifact, in file
    order; vector is the row of an eigenvector component (the v_* columns
    of spectrum*.csv), and None for every other value."""
    name = os.path.basename(path)
    if name.endswith(".json"):
        return list(_json_fields(artifacts.read_json(path)))
    if name == "covariance.txt":
        return list(_covariance_fields(path))
    if name == "batch.csv":
        return list(_batch_fields(path))
    return list(_csv_fields(path))


def _primary(root):
    found = []
    for here, _, names in os.walk(root):
        for name in names:
            if not name.endswith(".meta.json"):
                found.append(os.path.relpath(os.path.join(here, name), root))
    return sorted(found)


def _by_field(triples):
    """{field: [(value, vector), ...]} of fields_of triples, in file
    order."""
    fields = {}
    for field, value, row in triples:
        fields.setdefault(field, []).append((value, row))
    return fields


def compare(old_dir, new_dir):
    """(rows, unmatched).  rows holds (file, field, count, changed, largest
    relative move) for every field that a primary artifact and its namesake
    both hold, matched by name, in file and field order.  Files found under
    one directory only raise ValueError, one line "REL is missing under DIR"
    each (those of old_dir first).  A field that one file lacks, or that
    holds another value count in the two, gets no row but one line of
    unmatched: "REL: FIELD is missing under DIR" (those of old_dir first) or
    "REL: FIELD holds A values under OLD_DIR and B under NEW_DIR"."""
    old_files, new_files = _primary(old_dir), _primary(new_dir)
    missing = (["%s is missing under %s" % (rel, new_dir)
                for rel in old_files if rel not in new_files]
               + ["%s is missing under %s" % (rel, old_dir)
                  for rel in new_files if rel not in old_files])
    if missing:
        raise ValueError("\n".join(missing))
    rows, lines = [], []
    for rel in old_files:
        old = _by_field(fields_of(os.path.join(old_dir, rel)))
        new = _by_field(fields_of(os.path.join(new_dir, rel)))
        lines += (["%s: %s is missing under %s" % (rel, f, new_dir)
                   for f in old if f not in new]
                  + ["%s: %s is missing under %s" % (rel, f, old_dir)
                     for f in new if f not in old])
        for field, a in old.items():
            b = new.get(field)
            if b is None:
                continue
            if len(a) != len(b):
                lines.append("%s: %s holds %d values under %s and %d under "
                             "%s" % (rel, field, len(a), old_dir, len(b),
                                     new_dir))
                continue
            # the largest |component| of each eigenvector in either file
            scale = {}
            for (x, row), (y, _) in zip(a, b):
                if row is not None:
                    scale[row] = max(scale.get(row, 0.0), _magnitude(x),
                                     _magnitude(y))
            moves = [relative_move(x, y, scale.get(row))
                     for (x, row), (y, _) in zip(a, b)]
            rows.append((rel, field, len(moves),
                         sum(move > 0.0 for move in moves), max(moves)))
    return rows, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_dir")
    parser.add_argument("new_dir")
    parser.add_argument("--moved", action="store_true",
                        help="print only the fields with a changed value")
    parser.add_argument("--max-rel", type=float, default=None, metavar="X",
                        help="exit 1 when a field moves by more than X")
    args = parser.parse_args(argv)
    try:
        rows, unmatched = compare(args.old_dir, args.new_dir)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    print("| file | field | values | changed | largest relative move |")
    print("|---|---|---|---|---|")
    beyond = []
    for rel, field, count, changed, worst in rows:
        if changed or not args.moved:
            print("| %s | %s | %d | %d | %.2g |"
                  % (rel, field, count, changed, worst))
        if args.max_rel is not None and not worst <= args.max_rel:
            beyond.append("%s %s (%.2g)" % (rel, field, worst))
    for line in unmatched:
        print(line, file=sys.stderr)
    for line in beyond:
        print("moved beyond %g: %s" % (args.max_rel, line), file=sys.stderr)
    return 1 if unmatched or beyond else 0


if __name__ == "__main__":
    sys.exit(main())
