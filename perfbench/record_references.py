#!/usr/bin/env python3
"""Write perfbench/references.json: the checked parts of each benchmark
command's result document (see run.summarize), at seed 0, from the hhkt
sources of this checkout.

Usage:
    python3 perfbench/record_references.py

Re-record only when a change is meant to alter hhkt's results; a speed-up
must leave the references as they are.
"""

import json
import shutil
import sys
import time

import run


def main():
    jobs = list(dict.fromkeys(job for jobs in run.WORKLOADS.values()
                              for job in jobs))
    references = {}
    shutil.rmtree(run.WORK, ignore_errors=True)
    try:
        inputs = run.write_inputs(jobs, 0)
        deadline = time.monotonic() + len(jobs) * run.COMMAND_TIMEOUT_S
        for command, name in jobs:
            cmd = run.Command(command, name)
            run.run_command(cmd, inputs.get(name), 0, "record", 0, deadline)
            if not cmd.ok:
                sys.exit(f"{cmd.key}: {cmd.status}")
            summary = run.summarize(command,
                                    json.loads(cmd.stdout.read_bytes()))
            problem = run.invariant_failure(command, summary)
            if problem:
                sys.exit(f"{cmd.key}: {problem}")
            references[cmd.key] = summary
            print(f"{cmd.key:36s} {cmd.wall_s:8.3f} s  "
                  f"{run.work_counts(command, summary)}", flush=True)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(references, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
