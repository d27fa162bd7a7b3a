"""The long-lived embedding query service.

The FFC algorithm is, operationally, a *reconfiguration service*: a faulty
``B(d, n)`` network asks "what fault-free ring do I run on now?" and wants
the answer fast, repeatedly, for fault sets that often differ only
cosmetically.  :class:`EmbeddingService` packages the Chapter 2 machinery
behind exactly that API:

* **Canonical normalisation** — the FFC result depends only on *which
  necklaces* are faulty, so every request's fault set is reduced to sorted
  canonical necklace representatives before the cache lookup.  Requests
  whose faults are rotations of each other hit the same entry.
* **Bounded caches** — recent ``(d, n, necklaces, root_hint) -> cycle``
  answers are held in an LRU cache of fixed size (see
  :mod:`repro.engine.cache`), and the per-graph codec tables come from the
  bounded :func:`~repro.words.codec.get_codec` cache, so a resident process
  serves hot traffic from memory without unbounded growth.
* **Counters** — hit/miss rates and latency totals are exposed via
  :meth:`EmbeddingService.stats`, alongside the process-wide cache audit of
  :mod:`repro.engine.caches`.

The guarantee fields are computed per request from the *requested* fault
count (Propositions 2.2/2.3 count faulty processors, not necklaces), so two
requests sharing one cached cycle can still report different bounds.

Next to the ring queries sits the **topology-generic measurement API**:
:meth:`EmbeddingService.measure` answers "how large is the fault-free
region around the root, and how many broadcast steps does it take?" for
*any* backend of the :mod:`repro.topology` registry — De Bruijn, Kautz,
hypercube, shuffle-exchange — normalising the fault set to canonical
fault-unit representatives (necklaces where the backend has them) before
the cache lookup, exactly as the ring cache does.  The measurement is split
into a normalise step (:meth:`EmbeddingService.measure_query`) and a respond
step (:meth:`EmbeddingService.measure_response`) so the
:mod:`repro.server` gateway can put its micro-batcher between the two: the
service stays the one owner of the normalisation, the answer cache and the
response of every ``/measure``.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..core.ffc import find_fault_free_cycle, guaranteed_cycle_length
from ..exceptions import FaultBudgetExceededError, InvalidParameterError
from ..obs import MetricsRegistry
from ..topology import DEFAULT_TOPOLOGY, Topology, get_topology
from ..words.alphabet import Word, integers, validate_word
from ..words.codec import WordCodec, get_codec
from .cache import LRUCache
from .executor import KernelExecutor, cached_executor

__all__ = [
    "EmbeddingRequest",
    "EmbeddingResponse",
    "MeasureQuery",
    "MeasureResponse",
    "EmbeddingService",
]

#: ``(region_size, root_eccentricity, measured root code)`` of one measurement
Measured = tuple[int, int, int | None]


@dataclass
class _ChurnSession:
    """Mutable per-(d, n, root_hint) state of one dynamic-fault stream.

    ``rep_key`` is the sorted canonical necklace representative set of the
    current faults — the only input the FFC cycle depends on (besides the
    root hint), which is exactly what makes the incremental decision sound:
    an event that leaves ``rep_key`` unchanged provably leaves the cycle
    unchanged, so the previous one is reused bit-for-bit.
    """

    faults: set[Word] = field(default_factory=set)
    rep_key: tuple[int, ...] = ()
    cycle: tuple[Word, ...] = ()
    last_seq: int | None = None
    last_event: "tuple[str, Word] | None" = None
    last_response: "EmbeddingResponse | None" = None
    started: bool = False


@dataclass(frozen=True)
class EmbeddingRequest:
    """One embedding query: which graph, which faulty processors, which root."""

    d: int
    n: int
    faults: tuple[Word, ...] = ()
    root_hint: Word | None = None

    @classmethod
    def make(
        cls,
        d: int,
        n: int,
        faults: Iterable[Sequence[int]] = (),
        root_hint: Sequence[int] | None = None,
    ) -> "EmbeddingRequest":
        d, n = integers((d, n), "d and n")
        return cls(
            d=d,
            n=n,
            faults=tuple(integers(w, "fault digits") for w in faults),
            root_hint=None if root_hint is None else integers(root_hint, "root_hint digits"),
        )


@dataclass(frozen=True)
class EmbeddingResponse:
    """Everything a reconfiguring network needs from one query.

    Attributes
    ----------
    faulty_necklaces:
        The canonical representatives of the necklaces the faults kill —
        the normalised form actually used as the cache key.
    guarantee_bound:
        The applicable worst-case cycle-length bound (Proposition 2.2/2.3),
        or ``None`` when the fault count is outside every guaranteed regime.
    meets_guarantee:
        ``length >= guarantee_bound`` (vacuously True with no bound: the
        cycle always spans all of ``B*``).
    cached:
        True when the cycle came from the answer cache.
    elapsed_s:
        Wall-clock service time of this request (cache hits included).
    """

    d: int
    n: int
    faults: tuple[Word, ...]
    faulty_necklaces: tuple[Word, ...]
    cycle: tuple[Word, ...]
    length: int
    guarantee_bound: int | None
    meets_guarantee: bool
    cached: bool
    elapsed_s: float

    def as_dict(self, include_cycle: bool = True) -> dict:
        data = {
            "d": self.d,
            "n": self.n,
            "faults": [list(w) for w in self.faults],
            "faulty_necklaces": [list(w) for w in self.faulty_necklaces],
            "length": self.length,
            "guarantee_bound": self.guarantee_bound,
            "meets_guarantee": self.meets_guarantee,
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
        }
        if include_cycle:
            data["cycle"] = [list(w) for w in self.cycle]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EmbeddingResponse":
        """Rebuild a response from :meth:`as_dict` output (e.g. CLI ``--json``).

        Lossless inverse of :meth:`as_dict`: every field round-trips, with
        and without the cycle payload — a dict written with
        ``include_cycle=False`` yields a response whose ``cycle`` is empty
        while ``length`` still reports the true ring length.
        """
        bound = data["guarantee_bound"]
        return cls(
            d=int(data["d"]),
            n=int(data["n"]),
            faults=tuple(tuple(int(x) for x in w) for w in data["faults"]),
            faulty_necklaces=tuple(
                tuple(int(x) for x in w) for w in data["faulty_necklaces"]
            ),
            cycle=tuple(tuple(int(x) for x in w) for w in data.get("cycle", ())),
            length=int(data["length"]),
            guarantee_bound=None if bound is None else int(bound),
            meets_guarantee=bool(data["meets_guarantee"]),
            cached=bool(data["cached"]),
            elapsed_s=float(data["elapsed_s"]),
        )


@dataclass(frozen=True)
class MeasureResponse:
    """One topology-generic measurement: the fault-free region around a root.

    ``region_size`` and ``root_eccentricity`` are exactly the two columns of
    the Tables 2.1/2.2 sweeps (component size and broadcast steps for the De
    Bruijn graph), measured once for an explicit fault set instead of over
    random trials.  ``fault_units`` holds the canonical representatives of
    the removed units — the normalised form used as the cache key.  ``root``
    is the node the measurement actually ran from: the requested (or
    default) root if it survived, otherwise the sweep protocol's
    neighbouring-root fallback; ``None`` when every node was removed.

    A ``degraded`` response is the gateway's bound-only answer to a
    saturated shard: the measured fields are ``None`` and only the analytic
    ones (reference size, guarantee bound) are filled in.
    """

    topology: str
    d: int
    n: int
    faults: tuple[Word, ...]
    fault_units: tuple[Word, ...]
    root: Word | None
    region_size: int | None
    root_eccentricity: int | None
    reference_size: int
    guarantee_bound: int | None
    cached: bool
    elapsed_s: float
    degraded: bool = False

    def as_dict(self) -> dict:
        data = {
            "topology": self.topology,
            "d": self.d,
            "n": self.n,
            "faults": [list(w) for w in self.faults],
            "fault_units": [list(w) for w in self.fault_units],
            "root": None if self.root is None else list(self.root),
            "region_size": self.region_size,
            "root_eccentricity": self.root_eccentricity,
            "reference_size": self.reference_size,
            "guarantee_bound": self.guarantee_bound,
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
        }
        if self.degraded:
            data["degraded"] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MeasureResponse":
        """Lossless inverse of :meth:`as_dict`."""
        bound, size, ecc = (
            data["guarantee_bound"], data["region_size"], data["root_eccentricity"]
        )
        return cls(
            topology=str(data["topology"]),
            d=int(data["d"]),
            n=int(data["n"]),
            faults=tuple(tuple(int(x) for x in w) for w in data["faults"]),
            fault_units=tuple(tuple(int(x) for x in w) for w in data["fault_units"]),
            root=None if data["root"] is None else tuple(int(x) for x in data["root"]),
            region_size=None if size is None else int(size),
            root_eccentricity=None if ecc is None else int(ecc),
            reference_size=int(data["reference_size"]),
            guarantee_bound=None if bound is None else int(bound),
            cached=bool(data["cached"]),
            elapsed_s=float(data["elapsed_s"]),
            degraded=bool(data.get("degraded", False)),
        )


class MeasureQuery(NamedTuple):
    """One normalised ``/measure`` query, between the normalise and respond steps.

    Built by :meth:`EmbeddingService.measure_query`.  ``cached`` is the
    answer-cache hit, ``None`` on a miss; a miss is measured from
    :meth:`removed_mask` and ``root_code`` by ``executor`` (directly, or
    through the server's micro-batcher over the same executor) and handed to
    :meth:`EmbeddingService.measure_response`.  ``root_code`` is the
    requested root, encoded once (the backend's default when none was given).
    """

    topology: Topology
    executor: KernelExecutor
    root_code: int
    fault_codes: list[int]
    rep_codes: list[int]
    key: tuple
    cached: Measured | None
    start: float

    def removed_mask(self) -> np.ndarray:
        """The ``bool[num_nodes]`` mask of every node in a faulty unit."""
        return self.topology.fault_unit_mask(np.asarray(self.fault_codes, dtype=np.int64))


class EmbeddingService:
    """Resident query API over the FFC algorithm (see the module docstring).

    Parameters
    ----------
    max_cached_answers:
        Bound on the ``(d, n, necklaces, root_hint) -> cycle`` LRU and on the
        measurement-answer LRU.
    registry:
        The :class:`~repro.obs.MetricsRegistry` this service reports to.  By
        default each service owns a private registry (exposed as
        :attr:`registry`) so concurrent instances never share counters; the
        server gateway passes its own so ``/metrics`` covers the service.
    """

    def __init__(
        self,
        max_cached_answers: int = 256,
        registry: MetricsRegistry | None = None,
        max_churn_sessions: int = 32,
    ) -> None:
        self._answers = LRUCache(max_cached_answers, name="engine.embedding_answers")
        self._measurements = LRUCache(
            max_cached_answers, name="engine.measurement_answers"
        )
        #: per-(d, n, root_hint) dynamic-fault streams (see apply_event);
        #: bounded so abandoned streams age out instead of accumulating
        self._churn_sessions = LRUCache(max_churn_sessions, name="engine.churn_sessions")
        self._churn_lock = threading.RLock()
        #: this service's metrics (request/compute latency histograms) — the
        #: single backing store for the scalar counters :meth:`stats` reports
        self.registry = registry if registry is not None else MetricsRegistry()
        request_seconds = self.registry.histogram(
            "repro_service_request_seconds",
            "End-to-end service time per query (cache hits included)",
            labelnames=("endpoint",),
        )
        compute_seconds = self.registry.histogram(
            "repro_service_compute_seconds",
            "Service time of cache-missing queries only",
            labelnames=("endpoint",),
        )
        self._obs_request_seconds = {
            endpoint: request_seconds.labels(endpoint)
            for endpoint in ("embed", "measure")
        }
        self._obs_compute_seconds = {
            endpoint: compute_seconds.labels(endpoint)
            for endpoint in ("embed", "measure")
        }
        churn_events = self.registry.counter(
            "repro_service_churn_events_total",
            "Churn events applied, by re-embedding decision",
            labelnames=("decision",),
        )
        self._obs_churn = {
            decision: churn_events.labels(decision)
            for decision in ("incremental", "full", "replayed")
        }

    # -- queries --------------------------------------------------------------
    def embed(
        self,
        d: int,
        n: int,
        faults: Iterable[Sequence[int]] = (),
        root_hint: Sequence[int] | None = None,
    ) -> EmbeddingResponse:
        """Answer one reconfiguration query."""
        return self.submit(EmbeddingRequest.make(d, n, faults, root_hint))

    def embed_batch(self, requests: Iterable[EmbeddingRequest]) -> list[EmbeddingResponse]:
        """Answer a batch of queries (shared caches make repeats nearly free)."""
        return [self.submit(request) for request in requests]

    def submit(self, request: EmbeddingRequest) -> EmbeddingResponse:
        """Answer one pre-built :class:`EmbeddingRequest`."""
        start = time.perf_counter()
        codec = self._codec(request.d, request.n)
        fault_words = self._validated_faults(codec, request.faults)
        rep_codes = sorted({int(codec.rep[codec.encode(w)]) for w in fault_words})
        key = (codec.d, codec.n, tuple(rep_codes), request.root_hint)

        cycle = self._answers.get(key)
        cached = cycle is not None
        if not cached:
            result = find_fault_free_cycle(
                codec.d, codec.n, fault_words, root_hint=request.root_hint
            )
            cycle = result.cycle
            self._answers.put(key, cycle)
        return self._ring_response(codec, fault_words, rep_codes, cycle, cached, start)

    def _ring_response(
        self, codec: WordCodec, fault_words: Sequence[Word], rep_codes: Iterable[int],
        cycle: tuple[Word, ...], cached: bool, start: float,
    ) -> EmbeddingResponse:
        """Observe one answered ring query and build its response."""
        bound = self._guarantee_bound(codec.d, codec.n, len(set(fault_words)))
        elapsed = time.perf_counter() - start
        self._observe("embed", elapsed, cached)
        return EmbeddingResponse(
            d=codec.d,
            n=codec.n,
            faults=tuple(fault_words),
            faulty_necklaces=tuple(codec.decode(code) for code in rep_codes),
            cycle=cycle,
            length=len(cycle),
            guarantee_bound=bound,
            meets_guarantee=True if bound is None else len(cycle) >= bound,
            cached=cached,
            elapsed_s=elapsed,
        )

    # -- dynamic faults (churn) ------------------------------------------------
    def apply_event(
        self,
        d: int,
        n: int,
        op: str,
        node: Sequence[int],
        root_hint: Sequence[int] | None = None,
        seq: int | None = None,
    ) -> EmbeddingResponse:
        """Apply one churn event and return the (possibly repaired) ring.

        The service keeps one session per ``(d, n, root_hint)`` holding the
        current fault set and the previous fault-free cycle.  The FFC cycle
        depends only on the *canonical necklace representative set* of the
        faults (plus the root hint), so an event that leaves that set
        unchanged — faulting another node of an already-faulty necklace, or
        healing a node whose necklace stays faulty through a sibling — is
        answered **incrementally** by reusing the previous cycle, which is
        bit-for-bit what a full recomputation would return.  Any event that
        changes the representative set takes the **full** path through
        :meth:`submit` (the batch recomputation, LRU-backed).  The
        incremental-vs-full decision counters are exported on
        :meth:`stats` under ``churn`` and on ``/metrics`` as
        ``repro_service_churn_events_total``.

        ``seq`` makes event delivery idempotent over lossy transports:
        events must arrive with consecutive sequence numbers (starting at 0
        for a fresh session); redelivering the *last applied* ``seq``
        returns the stored response without re-applying the event, so a
        client may safely retry after a dropped response.  Out-of-order or
        gapped sequence numbers are rejected.
        """
        start = time.perf_counter()
        if op not in ("fault", "heal"):
            raise InvalidParameterError(
                f"churn op must be 'fault' or 'heal', got {op!r}"
            )
        codec = self._codec(d, n)
        (word,) = self._validated_faults(codec, [node])
        hint = None if root_hint is None else integers(root_hint, "root_hint digits")
        if seq is not None:
            (seq,) = integers((seq,), "churn seq")
        key = (codec.d, codec.n, hint)
        with self._churn_lock:
            session = self._churn_sessions.get_or_create(key, _ChurnSession)
            if seq is not None:
                if session.last_seq is not None and seq == session.last_seq:
                    if session.last_response is None:  # pragma: no cover
                        raise InvalidParameterError(
                            f"churn seq {seq} already applied but no stored response"
                        )
                    if session.last_event != (op, word):
                        raise InvalidParameterError(
                            f"churn seq {seq} was already applied with a "
                            f"different event than {(op, word)!r}; replays "
                            "must redeliver the same event"
                        )
                    self._obs_churn["replayed"].inc()
                    return session.last_response
                expected = 0 if session.last_seq is None else session.last_seq + 1
                if seq != expected:
                    raise InvalidParameterError(
                        f"churn event out of order for B({d},{n}) session: "
                        f"got seq {seq}, expected {expected} (replays of seq "
                        f"{session.last_seq} are the only redelivery allowed)"
                    )
            if op == "fault":
                if word in session.faults:
                    raise InvalidParameterError(
                        f"churn fault on {word}: node is already faulty"
                    )
                session.faults.add(word)
            else:
                if word not in session.faults:
                    raise InvalidParameterError(
                        f"churn heal on {word}: node is not faulty"
                    )
                session.faults.discard(word)
            fault_words = sorted(session.faults)
            rep_key = tuple(
                sorted({int(codec.rep[codec.encode(w)]) for w in fault_words})
            )
            if session.started and rep_key == session.rep_key:
                # the representative set is untouched: the previous cycle IS
                # the full recomputation's answer (same cache key), reuse it
                response = self._ring_response(
                    codec, fault_words, rep_key, session.cycle, True, start
                )
                self._obs_churn["incremental"].inc()
            else:
                response = self.submit(
                    EmbeddingRequest(
                        d=codec.d,
                        n=codec.n,
                        faults=tuple(fault_words),
                        root_hint=hint,
                    )
                )
                self._obs_churn["full"].inc()
            session.rep_key = rep_key
            session.cycle = response.cycle
            session.started = True
            if seq is not None:
                session.last_seq = seq
                session.last_event = (op, word)
                session.last_response = response
            return response

    def reset_churn(
        self, d: int, n: int, root_hint: Sequence[int] | None = None
    ) -> None:
        """Drop the churn session of ``(d, n, root_hint)``: next event starts
        from an empty fault set at seq 0."""
        hint = None if root_hint is None else integers(root_hint, "root_hint digits")
        codec = self._codec(d, n)
        with self._churn_lock:
            self._churn_sessions.put((codec.d, codec.n, hint), _ChurnSession())

    def measure(
        self,
        d: int,
        n: int,
        faults: Iterable[Sequence[int]] = (),
        root: Sequence[int] | None = None,
        topology: str = DEFAULT_TOPOLOGY,
    ) -> MeasureResponse:
        """Measure the fault-free region around the root on any topology.

        The fault set is normalised to canonical fault-unit representatives
        (necklace representatives for the De Bruijn family, the nodes
        themselves for single-node-unit backends) before the cache lookup,
        so requests whose faults kill the same units hit the same entry.
        The measurement itself is one dispatch through the process-wide
        shared :class:`~repro.engine.executor.KernelExecutor` and follows
        the sweep protocol exactly, including the neighbouring-root fallback
        when the requested root lies in a faulty unit — the response's
        ``root`` reports the node actually measured from.
        """
        query = self.measure_query(d, n, faults, root, topology)
        measured = query.cached
        if measured is None:
            measured = query.executor.measure_mask_with_root(
                query.removed_mask(), query.root_code
            )
        return self.measure_response(query, measured)

    def measure_query(
        self,
        d: int,
        n: int,
        faults: Iterable[Sequence[int]] = (),
        root: Sequence[int] | None = None,
        topology: str = DEFAULT_TOPOLOGY,
    ) -> MeasureQuery:
        """The normalise step of :meth:`measure`: validate, key, look up.

        Encodes the faults and the root, reduces the faults to canonical
        fault-unit representatives, resolves the shared executor of
        ``(topology, d, n)`` and looks the answer up in the measurement
        cache.  Every number must be integer-valued (``1.7`` is rejected,
        never truncated).
        """
        start = time.perf_counter()
        d, n = integers((d, n), "d and n")
        topo = get_topology(topology, d, n)
        fault_codes = [topo.encode(integers(w, "fault digits")) for w in faults]
        rep_codes = topo.fault_unit_reps(fault_codes)
        root = None if root is None else integers(root, "root digits")
        root_code = topo.default_root_code if root is None else topo.encode(root)
        executor = cached_executor(topo.d, topo.n, topo.key)
        key = (topo.key, topo.d, topo.n, tuple(rep_codes), root_code)
        return MeasureQuery(
            topo, executor, root_code, fault_codes, rep_codes, key,
            self._measurements.get(key), start,
        )

    def measure_response(
        self, query: MeasureQuery, measured: Measured | None
    ) -> MeasureResponse:
        """The respond step of :meth:`measure`: cache, observe, build the answer.

        ``measured`` is the cache hit or the executor's answer to the miss.
        ``None`` builds the degraded bound-only answer of a saturated shard,
        which is neither cached nor counted as a served measurement.
        """
        topo = query.topology
        cached = query.cached is not None
        size, ecc, root = (None, None, None) if measured is None else measured
        f = len(set(query.fault_codes))
        elapsed = time.perf_counter() - query.start
        if measured is not None:
            if not cached:
                self._measurements.put(query.key, measured)
            self._observe("measure", elapsed, cached)
        return MeasureResponse(
            topology=topo.key,
            d=topo.d,
            n=topo.n,
            faults=tuple(topo.decode(c) for c in query.fault_codes),
            fault_units=tuple(topo.decode(c) for c in query.rep_codes),
            root=None if root is None else topo.decode(root),
            region_size=None if size is None else int(size),
            root_eccentricity=None if ecc is None else int(ecc),
            reference_size=topo.reference_size(f),
            guarantee_bound=topo.guarantee_bound(f),
            cached=cached,
            elapsed_s=elapsed,
            degraded=measured is None,
        )

    # -- observability ---------------------------------------------------------
    def _observe(self, endpoint: str, elapsed: float, cached: bool) -> None:
        """Record one answered query into this service's registry."""
        self._obs_request_seconds[endpoint].observe(elapsed)
        if not cached:
            self._obs_compute_seconds[endpoint].observe(elapsed)

    def stats(self) -> dict:
        """Service counters plus the bounded-cache audit of this process.

        The scalar counters are *views* over the service's metrics registry
        (the request/compute latency histograms); the key set is the stable
        ``/stats`` schema and must not change.
        """
        from .caches import cache_stats  # local import: caches pulls many modules

        process_caches = cache_stats()
        requests = sum(
            child.count for child in self._obs_request_seconds.values()
        )
        total_latency = sum(
            child.sum for child in self._obs_request_seconds.values()
        )
        compute_latency = sum(
            child.sum for child in self._obs_compute_seconds.values()
        )
        return {
            "requests": requests,
            "total_latency_s": total_latency,
            "compute_latency_s": compute_latency,
            "avg_latency_s": total_latency / requests if requests else 0.0,
            "answers": self._answers.stats().as_dict(),
            "measurements": self._measurements.stats().as_dict(),
            "codecs": process_caches["words.get_codec"],
            "churn": {
                "incremental": int(self._obs_churn["incremental"].value()),
                "full": int(self._obs_churn["full"].value()),
                "replayed": int(self._obs_churn["replayed"].value()),
                "sessions": len(self._churn_sessions),
            },
            "process_caches": process_caches,
        }

    def clear(self, include_process_caches: bool = False) -> None:
        """Evict the service caches (optionally every audited process cache too)."""
        self._answers.clear()
        self._measurements.clear()
        with self._churn_lock:
            self._churn_sessions.clear()
        if include_process_caches:
            from .caches import clear_caches

            clear_caches()

    # -- internals -------------------------------------------------------------
    @staticmethod
    def _codec(d: int, n: int) -> WordCodec:
        return get_codec(*integers((d, n), "d and n"))

    def _validated_faults(
        self, codec: WordCodec, faults: Iterable[Sequence[int]]
    ) -> list[Word]:
        words = [validate_word(w, codec.d) for w in faults]
        for w in words:
            if len(w) != codec.n:
                raise InvalidParameterError(
                    f"fault {w} has length {len(w)}, expected {codec.n} "
                    f"for B({codec.d},{codec.n})"
                )
        return words

    @staticmethod
    def _guarantee_bound(d: int, n: int, f: int) -> int | None:
        try:
            return guaranteed_cycle_length(d, n, f)
        except FaultBudgetExceededError:
            return None
