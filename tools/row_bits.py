"""Print the float bits of every frozen benchmark row, recomputed by a tree.

    python3 tools/row_bits.py [TREE] > rows.txt

TREE (default: the checkout this script sits in) is a levypide checkout.
Its src/ and bench/ are imported and nothing is written inside it: every
row of bench/references.json is recomputed through bench/workloads.make_item
in a temporary directory.  Each line reads `kind row size value`, the value
as float.hex; a CLI row adds the bits of its manifest's cross_check_gap
(None unless the row is cross-checked, as the kou rows are), the only
output of the other scheme's solve.  Two trees print identical lines
(176 rows, about a minute each) exactly when every row keeps its bits.
"""
import json
import sys
import tempfile
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    tree = Path(argv[0] if argv else Path(__file__).resolve().parents[1])
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads
    refs = workloads.load_references()
    with tempfile.TemporaryDirectory() as tmp:
        for names in workloads.WORKLOADS.values():
            for kind in names:
                rows = refs[workloads.table_of(kind)]["rows"]
                for i, row in enumerate(rows):
                    for size in ("tiny", "full"):
                        item = workloads.make_item(kind, i, row["params"],
                                                   None, size, Path(tmp))
                        line = [kind, i, size,
                                float(item.value(item.call())).hex()]
                        manifest = Path(tmp, "out", kind, "manifest.json")
                        if manifest.exists():
                            gap = json.loads(manifest.read_text())["stats"][
                                "cross_check_gap"]
                            line.append(None if gap is None
                                        else float.hex(gap))
                        print(*line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
