"""Rewrite pins.json: every workload's answers at workloads.PIN_SEED,
as the current program gives them.  Run it only at a commit whose
answers are trusted, and review the diff:

    python3 bench/pin.py
"""

import json
import os
import re
import shutil
import sys
import tempfile

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    os.makedirs(os.path.join(run.HERE, ".tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="pin", dir=os.path.join(run.HERE, ".tmp"))
    pins = {}
    try:
        for name, spec in workloads.WORKLOADS.items():
            p3 = run.load_p3game()
            graph_dir = os.path.join(tmp, name)
            os.makedirs(graph_dir)
            tasks, files = workloads.build(p3, spec, workloads.PIN_SEED, graph_dir)
            workloads.write_files(files)
            answers = workloads.run_pass(
                p3, tasks, os.path.join(tmp, name + "-cache"))[0]
            pins[name] = workloads.pins_from_answers(tasks, answers)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(run.HERE, "pins.json"), "w", encoding="utf-8") as fh:
        text = json.dumps(pins, indent=1, sort_keys=True)
        # one verdict per line
        fh.write(re.sub(r"\[[^\[\]{}]*\]",
                        lambda m: " ".join(m.group().split()), text) + "\n")


if __name__ == "__main__":
    main()
