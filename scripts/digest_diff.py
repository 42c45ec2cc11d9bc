"""List the differences between two report digests (scripts/report_digest.py).

Usage: python scripts/digest_diff.py A B

For each op whose line differs, prints the op's tag and both exit codes (or
error classes), then one indented line per JSON path whose value differs,
with the value in A and the value in B. An op present in one digest only is
listed with `-` for the missing side. The last line counts the ops that
differ.

Exits 0 when the digests are identical or differ only in float values, 1
when anything else differs (an exit code, an error class, a key, a string,
a boolean, an integer, a list length or an op), and 2 on a usage error.
"""

import json
import sys

ABSENT = object()  # the side of a key that one report lacks, printed as -


def parse(path):
    """{tag: (code, JSON text)} of a digest file, in file order."""
    ops = {}
    with open(path) as fh:
        for line in fh:
            tag, code, rest = line.rstrip("\n").split(" ", 2)
            ops[tag] = (code, rest)
    return ops


def _leaf(value):
    return "-" if value is ABSENT else json.dumps(value, sort_keys=True)


def diff_values(a, b, path=""):
    """Yield (path, a, b, float_only) for each leaf where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}/{key}"
            if key not in a or key not in b:
                yield sub, a.get(key, ABSENT), b.get(key, ABSENT), False
            else:
                yield from diff_values(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (u, v) in enumerate(zip(a, b)):
            yield from diff_values(u, v, f"{path}/{i}")
    elif _leaf(a) != _leaf(b):
        yield path or "/", a, b, isinstance(a, float) and isinstance(b, float)


def diff_digests(A, B):
    """Yield (tag, code_a, code_b, differences, float_only) per op that differs."""
    for tag in list(A) + [t for t in B if t not in A]:
        if A.get(tag) == B.get(tag):
            continue
        if tag not in A or tag not in B:
            yield tag, A.get(tag, "-")[0], B.get(tag, "-")[0], [], False
            continue
        (code_a, text_a), (code_b, text_b) = A[tag], B[tag]
        diffs = list(diff_values(json.loads(text_a), json.loads(text_b)))
        float_only = code_a == code_b and bool(diffs) and all(d[3] for d in diffs)
        yield tag, code_a, code_b, diffs, float_only


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    A, B = parse(argv[0]), parse(argv[1])
    ops = floats = 0
    for tag, code_a, code_b, diffs, float_only in diff_digests(A, B):
        ops += 1
        floats += float_only
        print(f"{tag} {code_a} {code_b}")
        for path, u, v, _ in diffs:
            print(f"  {path}: {_leaf(u)} {_leaf(v)}")
    print(f"{ops} of {len(A.keys() | B.keys())} ops differ, {floats} in float values only")
    return 0 if ops == floats else 1


if __name__ == "__main__":
    sys.exit(main())
