"""A served classify answer that disagrees with the reference fails the
run: it counts as failed and the command exits non-zero."""

import json
import subprocess
import sys

from bench.common import ROOT, SRC

#: Runs bench/run.py after patching the service's classify handler to
#: answer a class the formula does not have.
_PATCHED_RUN = """
import runpy, sys
sys.path.insert(0, {src!r})
from repro.ltl.classify import PropertyClass
from repro.service import handlers

real = handlers.classify_formula

def wrong(formula, alphabet):
    kind = real(formula, alphabet)
    return (PropertyClass.SAFETY if kind is PropertyClass.NEITHER
            else PropertyClass.NEITHER)

handlers.classify_formula = wrong
sys.argv = [{run!r}, "--workload", "hot-inproc", "--seed", "1",
            "--seconds", "1", "--trace", "0", "--record", {record!r}]
runpy.run_path({run!r}, run_name="__main__")
"""


def test_wrong_classify_answer_fails_the_run(tmp_path):
    code = _PATCHED_RUN.format(src=str(SRC),
                               run=str(ROOT / "bench" / "run.py"),
                               record=str(tmp_path / "record.json"))
    finished = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              text=True, stdout=subprocess.PIPE, timeout=300)
    assert finished.returncode != 0
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
