"""One cold set-up of a workload, in the fresh process that runs this file.

Started by ``run.py`` once per set-up repetition::

    python3 perfbench/setup_probe.py --workload advise-short --seed 1 --rep 0

It imports the program, generates the workload's inputs and runs one
warm-up op, then prints ``ready``; the parent's wall clock from process
start to that line is one ``setup_s`` sample. The op's check follows,
and a failed check exits non-zero.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.run import import_program, make_workload, set_up_once  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    arguments = parser.parse_args(argv)
    error = import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workload = make_workload(arguments.workload, arguments.seed)
    try:
        set_up_once(workload, arguments.rep, ready=lambda: print("ready", flush=True))
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
