"""repro — Fault-tolerant ring embedding in De Bruijn networks.

A complete, from-scratch reproduction of *Fault-Tolerant Ring Embedding in
De Bruijn Networks* (Rowley & Bose, ICPP 1991 / OSU thesis 1993).

Layered architecture (lowest first):

* :mod:`repro.words` — d-ary word and necklace combinatorics.
* :mod:`repro.gf` — finite fields, primitive polynomials, shift registers.
* :mod:`repro.graphs` — De Bruijn, butterfly, hypercube, Kautz and
  shuffle-exchange topologies plus connectivity analysis.
* :mod:`repro.topology` — the ``Topology`` protocol and string-keyed
  registry (``debruijn``, ``kautz``, ``hypercube``, ``shuffle_exchange``,
  ``undirected_debruijn``) that puts every backend behind one sweep/serve
  API: integer node coding, BFS gather tables, fault-unit closure,
  measurement conventions.
* :mod:`repro.core` — the paper's algorithms: the fault-free-cycle (FFC)
  algorithm for node failures, disjoint Hamiltonian cycles and edge-fault
  Hamiltonian embedding, Hamiltonian decompositions, necklace counting and
  the theoretical bound tables.
* :mod:`repro.network` — a synchronous message-passing simulator and the
  distributed protocols of Section 2.4.
* :mod:`repro.analysis` — experiment harnesses reproducing every table and
  figure of the paper's evaluation.
* :mod:`repro.engine` — the execution/orchestration subsystem: the shared
  :class:`~repro.engine.executor.KernelExecutor` (tables, kernel scratch
  and batch-vs-scalar dispatch in one place), the resident
  :class:`~repro.engine.service.EmbeddingService`, the multiprocess
  :class:`~repro.engine.sweep.ParallelSweepEngine` (deterministic for any
  worker count, JSON checkpoint/resume) and the bounded-cache audit.
* :mod:`repro.server` — the async micro-batching serving front-end
  (``python -m repro serve``): concurrent embed/measure requests coalesced
  into up to 64-lane kernel launches, bounded-queue backpressure and
  ``/stats`` metrics.
* :mod:`repro.cli` — the ``python -m repro`` / ``repro`` command line
  (``experiment``, ``sweep``, ``embed``, ``serve``, ``churn``, ``stats``,
  ``lint``), topology-selectable via ``--topology``.
"""

from ._version import __version__

__all__ = ["__version__"]
