"""Pickles of Büchi automata carry the dataclass fields only.

The sharded tier moves reply values as pickles and a shard reuses a
cached value's pickle for every later hit, so a pickle must be a
function of the automaton's value: no memo (the dense form, seeded by
the kernel or set by ``to_dense()``) may ride along, and the receiver
must rebuild the same dense numbering from the fields alone.
"""

import pickle

import pytest

from repro.analysis import decompose
from repro.buchi.random_automata import random_automaton

SEEDS = range(24)


def _subjects(seed):
    """A random automaton, plus the safety and liveness parts that
    ``decompose()`` returns for it (their dense forms are seeded)."""
    automaton = random_automaton(seed, 1 + seed % 7, name=f"R{seed}")
    parts = decompose(automaton)
    assert "_dense_form" in vars(parts.safety)
    assert "_dense_form" in vars(parts.liveness)
    return [("random", automaton), ("safety", parts.safety),
            ("liveness", parts.liveness)]


@pytest.mark.parametrize("seed", SEEDS)
def test_round_trip_carries_fields_only(seed):
    for label, automaton in _subjects(seed):
        form = automaton.to_dense()
        assert "_dense_form" not in automaton.__getstate__(), label
        copy = pickle.loads(pickle.dumps(automaton))
        assert "_dense_form" not in vars(copy), label
        assert copy == automaton, label
        assert copy.name == automaton.name, label
        assert hash(copy) == hash(automaton), label
        rebuilt = copy.to_dense()
        assert rebuilt.core == form.core, label
        assert hash(rebuilt.core) == hash(form.core), label
        assert rebuilt.states == form.states, label
        assert rebuilt.symbols == form.symbols, label
        assert copy.canonical_key() == automaton.canonical_key(), label


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_pickle_bytes_ignore_memos(seed):
    """The same automaton pickles to the same bytes before and after its
    memos are filled — the property a stored reply encoding relies on."""
    automaton = random_automaton(seed, 5, name=f"R{seed}")
    before = pickle.dumps(automaton)
    automaton.to_dense()
    decompose(automaton)
    assert pickle.dumps(automaton) == before



@pytest.mark.parametrize("seed", SEEDS[:8])
def test_key_memo_stays_out_of_pickles_and_replies(seed):
    """``canonical_key()`` is memoized beside the dense form: the pickle,
    the wire's reply encoding, ``==`` and ``hash`` read the same before
    and after the key is read."""
    from repro.service.wire import encode_value

    automaton = random_automaton(seed, 1 + seed % 7, name=f"R{seed}")
    parts = decompose(automaton)
    parts_encoded = encode_value(parts)
    for label, subject in [("random", automaton), ("safety", parts.safety),
                           ("liveness", parts.liveness)]:
        twin = pickle.loads(pickle.dumps(subject))
        before = pickle.dumps(subject)
        encoded = encode_value(subject)
        digest = hash(subject)
        key = subject.canonical_key()
        assert vars(subject)["_canonical_key"] == key, label
        assert subject.canonical_key() is key, label
        assert "_canonical_key" not in subject.__getstate__(), label
        assert pickle.dumps(subject) == before, label
        assert encode_value(subject) == encoded, label
        assert hash(subject) == digest == hash(twin), label
        assert subject == twin and twin == subject, label
        assert twin._structural_key() == key, label
    assert encode_value(parts) == parts_encoded
