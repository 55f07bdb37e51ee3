"""Benchmark configuration (paper Section 2 and the Section 5 variations).

One :class:`BenchmarkConfig` fixes both the database extension (size,
generation probabilities, fanout, sightseeing bound, seed) and the
engine configuration (page size, buffer capacity, replacement policy).
The experiment modules build the paper's variations from
:data:`DEFAULT_CONFIG` via :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import BenchmarkError, ConfigError
from repro.storage.backends import BACKEND_NAMES
from repro.storage.buffer import POLICY_NAMES
from repro.storage.constants import DEFAULT_BUFFER_PAGES, PAGE_SIZE


@dataclass(frozen=True)
class BenchmarkConfig:
    """All knobs of one benchmark setup."""

    #: Number of Station objects ("Our database extension consists of
    #: 1500 complex objects").
    n_objects: int = 1500

    #: Sub-object fanout: possible platforms per station, railroads per
    #: platform, and connections per railroad (default 2; the data-skew
    #: experiment of Section 5.5 uses 8).
    fanout: int = 2

    #: Independent generation probability of each potential sub-object
    #: (default 0.8; the data-skew experiment uses 0.2).  Expected
    #: children per station = (fanout * probability)^3.
    probability: float = 0.8

    #: Upper bound of the uniform Sightseeing count (default 15;
    #: Figure 5 varies it over 0 / 15 / 30).
    max_sightseeing: int = 15

    #: Seed of the database generator.
    seed: int = 42

    #: Seed of the query root-selection sequence (kept separate so every
    #: storage model sees the identical access pattern).
    query_seed: int = 4242

    # -- engine -----------------------------------------------------------

    page_size: int = PAGE_SIZE
    buffer_pages: int = DEFAULT_BUFFER_PAGES

    #: Buffer replacement policy: "lru" (the DASDBS-like default),
    #: "fifo", "clock", "random", "lru-k" (LRU-2) or "2q"; the
    #: sensitivity sweeps (:mod:`repro.experiments.sweep`) cross this
    #: axis against buffer capacities and workloads.
    policy: str = "lru"

    #: Disk backend: "memory" (the simulator, default), "file" (real
    #: ``pread``/``pwrite`` against a backing file), "mmap" (the backing
    #: file memory-mapped; zero-copy reads), "direct" (``O_DIRECT``
    #: through an aligned bounce pool, page cache excluded; falls back
    #: to buffered I/O where the filesystem refuses), or "trace" (memory
    #: plus a replayable JSONL call trace).  Metrics are identical
    #: across backends; see :mod:`repro.storage.backends`.
    backend: str = "memory"

    #: Backend path: backing file for "file"/"mmap"/"direct", JSONL
    #: output for "trace".  When several models run (one engine each)
    #: this is treated as a directory and each engine writes
    #: ``<path>/<model>.jsonl`` / ``<path>/<model>.pages``.  None =
    #: anonymous temp file / no file.
    backend_path: str | None = None

    #: Coalesce backend I/O across serving sessions (default off): wrap
    #: each engine's backend in an
    #: :class:`~repro.storage.iosched.IOScheduler`, which sorts and
    #: merges read runs and defers/merges write runs below the
    #: accounting layer — fewer, larger real calls, bit-identical paper
    #: counters (the sweep JSON never encodes this knob, so CI can
    #: byte-diff scheduler-on vs scheduler-off runs).  Refuses to
    #: combine with fault injection: the scheduler's RAM-staged writes
    #: would survive a simulated crash.
    io_scheduler: bool = False

    #: Build-once/clone-many extension snapshots (default on): the
    #: runner builds each (model, data knobs, page size) extension once
    #: in a process-wide :class:`~repro.benchmark.snapshots.SnapshotStore`
    #: and serves every further request with a restored clone —
    #: bit-identical page bytes and counters, a fraction of the wall
    #: clock.  ``False`` rebuilds per request (the pre-snapshot
    #: behaviour); the trace backend always rebuilds so its recorded
    #: call traces stay complete and replayable.
    snapshots: bool = True

    #: Reclustering mode applied to workload replays: "none"
    #: (insertion-order placement, the default and the paper's regime),
    #: "affinity" (greedy co-access chaining) or "hotcold" (heat
    #: segregation) — both offline: the model first replays the trace
    #: unmeasured to collect access statistics, rewrites its shared
    #: pages into the derived placement, and only then runs the measured
    #: replay — or "online": no pre-training rewrite at all; an
    #: :class:`~repro.clustering.online.OnlineRecluster` controller
    #: watches the measured replay and moves bounded page batches at
    #: deterministic trigger points (its I/O lands in the counters).
    #: Honoured by the workload paths (``run_workload``/``run_trace``,
    #: the serving runs and the sweep grid).  The paper's fixed query
    #: suites ignore this knob — they *are* the insertion-order
    #: baseline.
    recluster: str = "none"

    #: Page budget of one online move batch, per shared segment
    #: (``max_moves_per_trigger`` of the controller).  0 disables moves
    #: entirely — "online" then runs counter-identically to "none", the
    #: equivalence the golden parity suite pins.
    online_move_pages: int = 8

    #: Operations between online-recluster triggers (deterministic:
    #: derived from operation counts, never wall clock).
    online_trigger_ops: int = 50

    #: Fault-injection spec for the storage stack, as parsed by
    #: :meth:`repro.fault.plan.FaultPlan.parse` — e.g.
    #: ``"seed=7,torn=0.05,read=0.1"`` or ``"seed=1,crash_at=120"``.
    #: "none" (the default) injects nothing and leaves every counter
    #: and output byte identical to a build without this knob.  When
    #: set, the runner wraps each engine's backend in a
    #: :class:`~repro.fault.backend.FaultyBackend`, enables journaling
    #: and page checksums, arms the plan only around the measured
    #: workload replay, and disables extension snapshots (a faulted
    #: build is not reusable).
    faults: str = "none"

    #: Number of independent ``StorageEngine`` shards the extension's
    #: OID space is partitioned across (default 1 = the classic
    #: unsharded engine; every output stays byte-identical).  For N>1
    #: the workload paths build N full replica engines — each with its
    #: own buffer slice, disk backend, and counters — behind a
    #: :class:`~repro.sharding.ShardedModel` facade that routes
    #: single-object operations to their owning shard and
    #: scatter-gathers scans over disjoint page partitions.  Refused in
    #: combination with ``faults`` (crash points would fire on one
    #: shard only), ``recluster`` (rid forwarding is per-engine) and
    #: the ``trace`` backend (one JSONL stream cannot interleave N
    #: engines replayably).
    shards: int = 1

    #: OID-space partitioning policy: "hash" (seeded crc32 scatter,
    #: independent of ``PYTHONHASHSEED``) or "range" (contiguous
    #: equal-width OID blocks).  Ignored when ``shards`` is 1.
    shard_policy: str = "hash"

    # -- query workload -----------------------------------------------------

    #: Loops of queries 2b/3b; None = n_objects // 5 (the paper executes
    #: "the query loop 1/5 * 'database size' times", Section 5.4).
    loops: int | None = None

    #: Sample size of query 1a (single-object retrievals, averaged).
    q1a_sample: int = 100

    #: Sample size of query 1b (value selections, averaged).
    q1b_sample: int = 3

    #: Independent single loops averaged for queries 2a/3a (one random
    #: root has huge variance; the mean estimates the expected cost).
    q2a_sample: int = 15

    def __post_init__(self) -> None:
        if self.n_objects < 1:
            raise BenchmarkError("n_objects must be positive")
        if not 0.0 <= self.probability <= 1.0:
            raise BenchmarkError("probability must be within [0, 1]")
        if self.fanout < 0:
            raise BenchmarkError("fanout must be non-negative")
        if self.max_sightseeing < 0:
            raise BenchmarkError("max_sightseeing must be non-negative")
        if self.loops is not None and self.loops < 1:
            raise BenchmarkError("loops must be positive when given")
        if self.buffer_pages < 1:
            raise BenchmarkError("buffer_pages must be at least 1")
        if self.policy not in POLICY_NAMES:
            raise BenchmarkError(
                f"unknown replacement policy {self.policy!r} "
                f"(known: {', '.join(POLICY_NAMES)})"
            )
        if self.backend not in BACKEND_NAMES:
            raise BenchmarkError(
                f"unknown backend {self.backend!r} (known: {', '.join(BACKEND_NAMES)})"
            )
        if self.online_move_pages < 0:
            raise BenchmarkError("online_move_pages must be non-negative")
        if self.online_trigger_ops < 1:
            raise BenchmarkError("online_trigger_ops must be at least 1")
        # Deferred import: the clustering package reaches back into the
        # benchmark layer (its driver replays workload traces), so a
        # module-level import here would couple the two load orders.
        from repro.clustering.placement import validate_mode

        validate_mode(self.recluster)
        # Validate eagerly so a bad spec fails at configuration time,
        # not deep inside a build.  (Deferred import keeps the fault
        # package optional for config-only consumers.)
        from repro.fault.plan import FaultPlan

        FaultPlan.parse(self.faults)
        if self.io_scheduler and self.faults != "none":
            raise ConfigError(
                "io_scheduler cannot be combined with fault injection: "
                "deferred writes staged in the scheduler's RAM would "
                "survive a simulated crash, breaking the crash model "
                "(only what reached the backend may survive)"
            )
        # Deferred import: the sharding package builds on the storage
        # layer and must stay importable without the benchmark package.
        from repro.sharding.router import SHARD_POLICIES

        if self.shards < 1:
            raise ConfigError("shards must be at least 1")
        if self.shard_policy not in SHARD_POLICIES:
            raise ConfigError(
                f"unknown shard policy {self.shard_policy!r} "
                f"(known: {', '.join(SHARD_POLICIES)})"
            )
        if self.shards > 1:
            if self.faults != "none":
                raise ConfigError(
                    "shards cannot be combined with fault injection: a "
                    "crash point would fire on a single shard while its "
                    "siblings keep serving, which the single-engine "
                    "crash model cannot describe"
                )
            if self.recluster != "none":
                raise ConfigError(
                    "shards cannot be combined with reclustering: rid "
                    "forwarding is per-engine and would desynchronise "
                    "the shard replicas from the routing table"
                )
            if self.backend == "trace":
                raise ConfigError(
                    "shards cannot be combined with the trace backend: "
                    "one JSONL stream cannot interleave N engines' "
                    "calls replayably"
                )

    @property
    def effective_loops(self) -> int:
        """Loop count of queries 2b/3b."""
        if self.loops is not None:
            return self.loops
        return max(1, self.n_objects // 5)

    @property
    def expected_children(self) -> float:
        """Expected outgoing references per station: (fanout·p)³."""
        return (self.fanout * self.probability) ** 3

    @property
    def expected_platforms(self) -> float:
        """Expected platforms per station: fanout·p."""
        return self.fanout * self.probability

    @property
    def expected_sightseeings(self) -> float:
        """Expected sightseeings per station: uniform 0..max."""
        return self.max_sightseeing / 2.0

    def with_changes(self, **changes) -> "BenchmarkConfig":
        """A modified copy (convenience over :func:`dataclasses.replace`)."""
        return replace(self, **changes)


#: The paper's default setup.
DEFAULT_CONFIG = BenchmarkConfig()

#: The data-skew setup of Section 5.5 (same means, higher variance).
SKEWED_CONFIG = DEFAULT_CONFIG.with_changes(probability=0.2, fanout=8)
