"""rv-stream's answer check covers exactly the batches the engine took."""

from bench import inputs
from bench.workloads import RvWorkload


def _opened(seed=1):
    workload = RvWorkload(seed)
    return workload, workload.open()


def _feed(workload, run, batches) -> None:
    op = workload.op(run)
    for item in batches:
        workload.note(None, item, op(item))


def test_an_epoch_cut_short_checks_only_the_batches_sent():
    workload, run = _opened()
    try:
        epoch = run.stream.take(64)
        _feed(workload, run, epoch[:21])  # the deadline falls here
    finally:
        workload.close(run)
    assert run.taken == inputs.SESSIONS // inputs.WINDOW + 21
    undecided = [v for v in run.engine.verdicts().values()
                 if v.name == "UNKNOWN"]
    assert undecided, "the cut must leave sessions whose verdict can change"
    checked, wrong, notes = run.verify()
    assert checked >= inputs.SESSIONS
    assert wrong == 0, notes


def test_the_check_sees_events_the_engine_never_got():
    workload, run = _opened()
    try:
        _feed(workload, run, run.stream.take(64)[:21])
    finally:
        workload.close(run)
    run.taken += 43  # claim the rest of the epoch was sent too
    _, wrong, _ = run.verify()
    assert wrong > 0


def test_a_refused_batch_is_left_out_of_the_reference():
    workload, run = _opened()
    try:
        first, refused, third = run.stream.take(3)
        _feed(workload, run, [first, third])
    finally:
        workload.close(run)
    assert run.skipped == [refused[0]]
    _, wrong, notes = run.verify()
    assert wrong == 0, notes


def test_sessions_decided_by_a_batch_are_replaced_and_sampled():
    workload, run = _opened()
    try:
        _feed(workload, run, run.stream.take(512))
    finally:
        workload.close(run)
    assert run.closed, "no closed session was sampled"
    assert len(run.engine.verdicts()) == inputs.SESSIONS
    _, wrong, notes = run.verify()
    assert wrong == 0, notes
