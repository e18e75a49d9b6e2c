"""Record the regression goldens in goldens.json from the current code.

These digests have no independent answer: they pin the outputs of the
commit they were recorded at, so a later change that alters them shows
up as a regression, not as a wrong answer.  Re-record only when such a
change is intended, and say so.

    python3 perfbench/record_goldens.py
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from fusioncalc import calgebra, mll, realizability  # noqa: E402
from fusioncalc.pwf import pwf_str  # noqa: E402


def main() -> None:
    listings = [workloads.digest(workloads.cli_reduce(literal, steps)[1])
                for literal, steps, _ in workloads.REDUCE_ANCHORS]
    model = calgebra.parse_model(
        workloads.boolean_model_text(random.Random(0), 3))
    ccpa = workloads.report_rows(calgebra.check_ccpa(model))
    realizers = {label: pwf_str(mll.evaluate_realizer(
        mll.extract_realizer(proof)))
        for label, proof in mll.load_corpus().items()}
    goldens = {
        "label": "regression goldens, recorded at the commit named in "
                 "recorded_at; not independent answers",
        "recorded_at": sys.argv[1] if len(sys.argv) > 1 else "unknown",
        "reduce_listings": listings,
        "ccpa_rows": ccpa,
        "realizers": realizers,
        "table_hits": workloads.table_hits(realizability.Universe(
            workloads.sandbox_members(), realizability.pole_always)),
    }
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1) + "\n")


if __name__ == "__main__":
    main()
