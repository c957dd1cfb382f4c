"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py

Runs each workload's pipeline once on each of the N_CORPORA corpora and
writes ``perfbench/reference.json`` afresh, with array-valued references
(the extracted features) in ``perfbench/reference.npz``. Run it only at a
commit whose outputs are trusted: later runs must match these values to
1e-9 relative.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    refs: dict[str, dict] = {name: {} for name in workloads.WORKLOADS}
    arrays: dict[str, np.ndarray] = {}
    work = run.HERE / ".work" / "reference"
    for index in range(run.N_CORPORA):
        shutil.rmtree(work, ignore_errors=True)
        (work / "out").mkdir(parents=True)
        try:
            run.generate_corpus(index, work / "corpus")
            for name, wl in workloads.WORKLOADS.items():
                state = wl.setup(work / "corpus", index)
                outputs = wl.run(state, work / "out")
                ref = wl.reference(outputs)
                for key in [k for k, v in ref.items() if isinstance(v, np.ndarray)]:
                    arrays[run.array_key(name, index, key)] = ref.pop(key)
                refs[name][str(index)] = ref
                print(f"corpus {index}: {name} recorded", flush=True)
                del state, outputs
        finally:
            shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps({"workloads": refs}, indent=1) + "\n")
    np.savez_compressed(run.HERE / "reference.npz", **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
