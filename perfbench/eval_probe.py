"""Time the ``poolnet eval`` path in a fresh interpreter and print the result.

Usage: eval_probe.py SRC_DIR MANIFEST PRED_DIR OUT_CSV SECONDS

Prints one JSON line: ``maps_per_s`` (median over the passes), ``max_f``
and ``mae``.  Exits with code 1 if the evaluation fails.
"""

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    src, manifest, pred_dir, out_csv, seconds = argv
    sys.path[:0] = [src, str(Path(__file__).resolve().parent)]
    import poolnet.data
    import workloads

    ledger = workloads.Ledger()
    record, rate = workloads.evaluate(poolnet.data.load_manifest(manifest, "saliency"),
                                      Path(pred_dir), Path(out_csv), float(seconds), ledger)
    if ledger.failed:
        print("; ".join(ledger.notes), file=sys.stderr)
        return 1
    print(json.dumps({"maps_per_s": rate, "max_f": record.max_f, "mae": record.mae}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
