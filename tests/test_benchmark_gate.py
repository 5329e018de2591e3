"""The benchmark's output gate, run in-process.

perfbench/run.py marks a run incorrect when a command's summarized
document differs from perfbench/references.json or breaks an invariant
(an oracle disagreement, a failed seven-term triple, a verify check that
did not pass).  This test applies the same gate to every (command, input)
job of every workload, at one nonzero seed so that the generators are
shuffled, through `hhkt.cli.main` instead of one process per command.
It reads perfbench/ and writes only under the test's temporary directory.
"""

import importlib.util
import json
import pathlib

from hhkt.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 3


def _load_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_every_workload_job_matches_its_reference(tmp_path, monkeypatch,
                                                  capsys):
    run = _load_run()
    monkeypatch.setattr(run, "WORK", tmp_path)
    jobs = list(dict.fromkeys(job for jobs in run.WORKLOADS.values()
                              for job in jobs))
    inputs = run.write_inputs(jobs, SEED)
    references = json.loads(run.REFERENCES.read_text())
    for command, name in jobs:
        key = f"{command}:{name}" if name else command
        argv = [command, "--format", "json"]
        argv += ["--input", str(inputs[name])] if name \
            else ["--seed", str(SEED)]
        assert main(argv) == 0, key
        summary = run.summarize(command, json.loads(capsys.readouterr().out))
        assert run.invariant_failure(command, summary) is None, key
        assert summary == references[key], key
