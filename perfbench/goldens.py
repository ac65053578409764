"""Regenerate goldens.json: outputs of the default seed's inputs.

    python3 perfbench/goldens.py

Run from the root of a checkout.  Every value comes from the package in
``src/``; values of degree <= 5 are confirmed by the subset oracle, which
shares no projection code path with ``renormalize``.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, SRC

DEFAULT_SEED = 0


def main() -> int:
    sys.path.insert(0, str(SRC))
    import forestren

    import inputs
    import workloads

    workdir = OUT / "goldens-work"
    runner = workloads.Runner(SRC, workdir)
    goldens = {"seed": DEFAULT_SEED, "values": {}, "numeric": {}, "cli": {}}
    items = [it for w in inputs.WORKLOADS for it in inputs.generate(w, DEFAULT_SEED)]
    items += inputs.probe_inputs()
    try:
        runner.write_files(items)
        results = runner.timed_pass(items).results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def confirm(text: str) -> str:
        forest, Q = forestren.parse_forest(text)
        value = str(forestren.renormalize(forest, Q).exact)
        if forest.degree() <= 5:
            ref = str(forestren.renorm_subset_oracle(forest, Q))
            if ref != value:
                raise SystemExit(f"subset oracle {ref} != {value} on {text}")
        return value

    for item, _, out in results:
        kind = item["kind"]
        if out[0] == "error":
            raise SystemExit(f"{item['id']}: {out[1]}")
        if kind == "renorm":
            if confirm(item["text"]) != out[0]:
                raise SystemExit(f"{item['id']}: unstable value")
            goldens["values"][item["text"]], goldens["numeric"][item["text"]] = out
        elif kind in ("subset", "telescoping"):
            if out[0] != out[1] or confirm(item["text"]) != out[1]:
                raise SystemExit(f"{item['id']}: references disagree")
            goldens["values"][item["text"]] = out[1]
        elif kind == "cli":
            rc, stdout, stderr = out
            if rc or stderr:
                raise SystemExit(f"{item['id']}: exit {rc} {stderr}")
            for text in item["files"].values():
                value = confirm(text)
                if item["argv"][0] == "renorm" and value not in stdout:
                    raise SystemExit(f"{item['id']}: {value} not in {stdout!r}")
            goldens["cli"][workloads.cli_key(item)] = stdout
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDENS}: {len(goldens['values'])} values, "
          f"{len(goldens['cli'])} CLI outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
