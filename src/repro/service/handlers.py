"""Request interpretation: canonical cache keys and compute functions.

Every request kind maps to (a) a *cache key* — a renaming-invariant
structural hash of everything the answer depends on — and (b) a
*compute* closure over the unified :func:`repro.analysis.decompose`
facade and the :mod:`repro.analysis.classify` functions.

Key-building rules (documented for users in DESIGN.md §8):

* Büchi / Rabin subjects: the automaton's ``canonical_key()`` — the
  alphabet, initial/accepting structure, and full transition relation
  up to state renaming.  For Büchi subjects both the key and the
  compute path run over one memoized dense core
  (``BuchiAutomaton.to_dense()``): the canonical key hashes the dense
  int graph, and the decomposition kernels reuse the same core plus its
  cached reachable/live masks, so a cache miss never re-interns.
* Formulas: the formula's structural ``canonical_key()`` plus the
  sorted alphabet (the same formula over different alphabets denotes
  different languages).
* Lattice elements: a *concrete* (identity-preserving) hash of the
  whole context — element tokens, Hasse diagram, both closure tables,
  and the subject.  Deliberately NOT canonicalized up to renaming: the
  answer is made of concrete elements of the caller's lattice, and in a
  lattice with a nontrivial automorphism fixing bottom/top and
  commuting with the closures (atom-swap on a Boolean algebra under a
  symmetric closure, say), an invariant key would alias two distinct
  subjects onto one line and hand one caller the other's elements.
  Renaming-invariant keys are sound only when the answer is itself
  invariant (languages, classifications) — element-valued answers need
  concrete keys.
* Anything the canonicalizer gives up on (budget exhaustion) — and any
  request carrying sample trees or witnesses — is *uncacheable*: the
  key is ``None`` and the service computes without memoizing.  A cache
  miss, never a wrong answer.
"""

from __future__ import annotations

import functools

from repro.analysis.classify import (
    classify_automaton,
    classify_element,
    classify_formula,
    classify_rabin_on_samples,
)
from repro.analysis.decompose import _closure_pair, decompose
from repro.buchi.automaton import BuchiAutomaton
from repro.canonical import CanonicalizationError, digest, stable_token
from repro.ltl.syntax import Formula

from .requests import (
    CheckRequest,
    ClassifyRequest,
    DecomposeRequest,
    MonitorRequest,
    Request,
)


def _is_rabin(subject) -> bool:
    from repro.rabin.automaton import RabinTreeAutomaton

    return isinstance(subject, RabinTreeAutomaton)


def _lattice_context_key(cl1, cl2, subject) -> str:
    """A concrete hash of (lattice, cl1, cl2, subject).

    Identity-preserving on purpose: the decomposition's ``.element`` /
    ``.safety`` / ``.liveness`` are elements *of this lattice*, so two
    contexts may only share a cache line when they are equal on the
    nose.  (A canonical-graph key would conflate subjects swapped by a
    lattice automorphism that fixes bottom/top and commutes with the
    closures, returning one subject's decomposition for the other.)"""
    lattice = cl1.lattice
    if subject not in lattice:
        raise KeyError(f"{subject!r} not in lattice")
    elements = sorted(lattice.elements, key=stable_token)
    context = (
        tuple(stable_token(x) for x in elements),
        tuple(sorted(
            stable_token((lo, hi)) for lo, hi in lattice.poset.hasse_edges()
        )),
        tuple(stable_token((x, cl1(x))) for x in elements),
        tuple(stable_token((x, cl2(x))) for x in elements),
        stable_token(subject),
    )
    return "latctx:" + digest(stable_token(context))


@functools.lru_cache(maxsize=256)
def _alphabet_digest(alphabet: frozenset, identity: int) -> str:
    """The digest of an alphabet's sorted symbol tokens, memoized per
    alphabet *object* (``identity`` is its ``id``): the formula key is
    memoized on the formula, and a resent formula request would
    otherwise re-sort and re-hash its alphabet every time.  Never by
    value alone: ``{1, "a"}`` and ``{True, "a"}`` are equal sets with
    different tokens.  The entry holds its alphabet, so no other object
    takes that id while the entry lives."""
    return digest(",".join(sorted(stable_token(a) for a in alphabet)))


def _subject_key(request: Request) -> str | None:
    """The canonical key of the request's subject + context, or ``None``
    when the request is uncacheable."""
    subject = request.subject
    if isinstance(subject, BuchiAutomaton):
        return subject.canonical_key()
    if isinstance(subject, Formula):
        if request.alphabet is None:
            # Let compute() raise the facade's helpful TypeError.
            return None
        alphabet = frozenset(request.alphabet)
        return (subject.canonical_key() + "@"
                + _alphabet_digest(alphabet, id(alphabet)))
    if _is_rabin(subject):
        return subject.canonical_key()
    if request.closure is not None:
        cl1, cl2 = _closure_pair(request.closure)
        return _lattice_context_key(cl1, cl2, subject)
    return None


def request_keys(request: Request) -> tuple[str | None, str | None]:
    """The request's cache key and its placement key, from one subject
    key.

    The cache key is request kind + subject/context hash.  Requests
    carrying unhashable extras (Rabin sample trees, check witnesses) are
    uncacheable — their answers depend on data we do not canonicalize.

    The placement key is what the sharded tier's consistent hashing
    spreads across shards.  For most requests it is the cache key
    (answers live on the shard that caches them).  Monitor requests are
    placed by *policy* — the formula + alphabet, ignoring trace and
    horizon — so every trace monitored against one policy lands on the
    shard whose compile cache already holds its tables, instead of
    scattering one policy's monitor across the fleet."""
    if isinstance(request, ClassifyRequest) and request.samples:
        return None, None
    if isinstance(request, CheckRequest) and request.witness is not None:
        return None, None
    try:
        subject_key = _subject_key(request)
    except CanonicalizationError:
        return None, None
    if subject_key is None:
        return None, None
    kind = request.kind
    if isinstance(request, MonitorRequest):
        # The answer depends on the trace and the horizon too; the
        # compiled monitor itself is shared across both (the rv compile
        # cache keys on formula + alphabet only).
        placement = f"{kind}:{subject_key}"
        try:
            trace_token = stable_token(tuple(request.events))
        except CanonicalizationError:
            return None, placement
        horizon = "none" if request.horizon is None else str(request.horizon)
        return f"{placement}@h={horizon}@{digest(trace_token)}", placement
    if getattr(request, "certify", False):
        # Certified results carry a sealed proof payload the plain ones
        # lack; give them their own cache line so the two never alias.
        kind += "+cert"
    key = f"{kind}:{subject_key}"
    return key, key


def cache_key(request: Request) -> str | None:
    """The request's cache key (:func:`request_keys`)."""
    return request_keys(request)[0]


def compute(request: Request):
    """Actually run the analysis a request names (no caching here)."""
    subject = request.subject
    if isinstance(request, DecomposeRequest):
        return _facade_decompose(request)
    if isinstance(request, MonitorRequest):
        # Imported here, not at module top: repro.rv sits *above* the
        # analysis facade this module otherwise serves, and only the
        # monitor verb needs it.
        from repro.rv.compile import compile_formula

        if not isinstance(subject, Formula):
            raise TypeError(
                "MonitorRequest needs an LTL formula subject (monitors "
                f"compile from formulas, not {type(subject).__name__!r})"
            )
        if request.alphabet is None:
            raise TypeError("MonitorRequest(formula) needs alphabet=")
        alphabet = frozenset(request.alphabet)
        for event in request.events:
            if event not in alphabet:
                raise ValueError(f"event {event!r} outside the alphabet")
        monitor = compile_formula(subject, alphabet)
        return monitor.run_finitary(request.events, horizon=request.horizon)
    if isinstance(request, ClassifyRequest):
        if isinstance(subject, BuchiAutomaton):
            return classify_automaton(subject)
        if isinstance(subject, Formula):
            if request.alphabet is None:
                raise TypeError("ClassifyRequest(formula) needs alphabet=")
            return classify_formula(subject, request.alphabet)
        if _is_rabin(subject):
            if not request.samples:
                raise TypeError(
                    "ClassifyRequest(rabin automaton) needs samples= — "
                    "exact Rabin classification is not available"
                )
            return classify_rabin_on_samples(subject, request.samples)
        if request.closure is None:
            raise TypeError(
                f"don't know how to classify {type(subject).__name__!r}: "
                f"lattice elements need closure="
            )
        cl1, cl2 = _closure_pair(request.closure)
        if cl1 is not cl2:
            raise TypeError(
                "ClassifyRequest takes a single closure; classification "
                "has no two-closure variant"
            )
        return classify_element(cl1.lattice, cl1, subject)
    if isinstance(request, CheckRequest):
        decomposition = _facade_decompose(request)
        if _is_rabin(subject):
            return decomposition.verify(request.witness)
        if request.witness is None:
            return decomposition.verify()
        return decomposition.verify(request.witness)
    raise TypeError(f"unknown request type {type(request).__name__!r}")


def _facade_decompose(request: Request):
    kwargs = {}
    if request.closure is not None:
        kwargs["closure"] = request.closure
    if request.alphabet is not None:
        kwargs["alphabet"] = request.alphabet
    if getattr(request, "certify", False):
        kwargs["certify"] = True
    return decompose(request.subject, **kwargs)
