"""The three seeded workloads: inputs, set-up, the measured loop, checks.

Every workload turns ``seed`` into its inputs (relations, query lists,
stream batches) before anything is timed, and hands the program only
those generated inputs.  A run records one :class:`Outcome` per request
(a query, or a stream tick); answers are checked against the numpy
oracle after the measured loop, so the oracle's cost never lands inside
a timed region.

Query classes are fixed by each workload's template list; a seed
changes constants and data, never the mix of classes.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np

from oracle import CNF, Cmp, Range, aggregate, mask, same, to_repro, where_sql

from repro.data import make_census, make_retail, make_tcpip
from repro.errors import ReproError
from repro.faults import ResilientExecutor
from repro.service import QueryService
from repro.sql import Database, Device
from repro.streams import ContinuousQuery, StreamEngine

#: Record count of the paper-scale relation (paper section 5.1 uses 10^6).
PAPER_RECORDS = 1 << 20
#: Set-ups per run; ``setup_s`` is their median and the last one serves.
SETUPS = 3

#: paper-olap numbers a query ``round * ROUND_STRIDE + position``.
ROUND_STRIDE = 100

SCAN, ORDER_STAT, SUM = "scan", "order_stat", "sum"
CLASSES = (SCAN, ORDER_STAT, SUM)


@dataclasses.dataclass(frozen=True)
class Query:
    """One generated request: a SQL statement, or (``func == "KTH"``) a
    k-th largest through the engine API, which SQL does not express."""

    cls: str
    template: str
    table: str
    func: str  # COUNT | SUM | AVG | MAX | MEDIAN | KTH | PROJECT
    columns: tuple[str, ...]
    where: CNF
    device: Device = Device.AUTO
    k: int | None = None

    @property
    def sql(self) -> str:
        if self.func == "PROJECT":
            items = ", ".join(self.columns)
        elif self.func == "COUNT":
            items = "COUNT(*)"
        else:
            items = f"{self.func}({self.columns[0]})"
        text = f"SELECT {items} FROM {self.table}"
        return f"{text} WHERE {where_sql(self.where)}" if self.where else text


@dataclasses.dataclass
class Outcome:
    """What one request did, as the program reported it."""

    cls: str
    template: str
    session: int
    seq: int
    latency_s: float
    value: object = None
    modeled_ms: float = 0.0
    passes: int = 0
    route: str = ""
    queued_s: float = 0.0
    #: The program's own result object (PipelineStats and friends).
    result: object = None
    error: str | None = None
    #: The request: a :class:`Query`, or a tick index on stream-window.
    request: object = None
    #: The ``PipelineStats`` window of a stream tick.
    stats: object = None


def _pick(rng: np.random.Generator, values: np.ndarray) -> int:
    """A constant drawn from the column itself, so a ``>=``/``<=``
    literal built on it selects at least one record."""
    return int(values[rng.integers(values.size)])


def _top(rng: np.random.Generator, values: np.ndarray) -> int:
    """A threshold near the top percent of a column (for projections)."""
    return int(values[rng.integers(values.size, size=64)].max())


def _arrays(relation) -> dict[str, np.ndarray]:
    return {
        name: np.asarray(relation.column(name).values, dtype=np.int64)
        for name in relation.column_names
    }


def run_query(db: Database, query: Query) -> tuple:
    """Send one query; returns ``(value, modeled_ms, passes, route,
    result)``."""
    if query.func == "KTH":
        engine = db.gpu_engine(query.table)
        result = engine.kth_largest(
            query.columns[0], query.k, to_repro(query.where)
        )
        return result.value, result.time_ms, result.pass_count, "gpu", result
    result = db.query(query.sql, device=query.device)
    return _value(query, result), result.time_ms, result.pass_count, \
        result.device.value, result


def _value(query: Query, result):
    if query.func == "PROJECT":
        return result.rows
    return result.scalar


def expected(query: Query, arrays: dict[str, np.ndarray]):
    selected = mask(query.where, arrays)
    if query.func == "PROJECT":
        picked = [arrays[name][selected].tolist() for name in query.columns]
        return list(zip(*picked))
    if query.func == "COUNT":
        return int(np.count_nonzero(selected))
    values = arrays[query.columns[0]][selected]
    return aggregate(query.func, values, query.k)


def check_queries(outcomes, tables: dict[str, dict[str, np.ndarray]]):
    """Oracle check of every answered query; returns mismatch texts."""
    mismatches = []
    for outcome in outcomes:
        if outcome.error is not None:
            continue
        query = outcome.request
        want = expected(query, tables[query.table])
        if query.func == "PROJECT":
            ok = want == outcome.value
        else:
            ok = same(want, outcome.value)
        if not ok:
            mismatches.append(
                f"{query.template} [{query.sql}]: expected "
                f"{_short(want)}, got {_short(outcome.value)}"
            )
    return mismatches


def _short(value) -> str:
    if isinstance(value, list):
        return f"{len(value)} rows"
    return repr(value)


class PaperOlap:
    """One closed-loop client, forced GPU, 2^20 TCP/IP records.

    A round is one query of every template below, in a seeded order, with
    fresh constants; whole rounds repeat until the time is up.  Columns recur across
    templates, so depth-copy fusion acts as it would in real use, while
    fresh constants keep the stencil cache from answering repeats.
    """

    name = "paper-olap"
    clients = 1
    answers_per_request = 1
    #: Rounds whose modeled cost and pass counts are reported (always run).
    model_rounds = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.relation = make_tcpip(PAPER_RECORDS, seed=seed)
        self.arrays = _arrays(self.relation)
        self.sorted_count = np.sort(self.arrays["data_count"])
        #: One warm query per class, run by every set-up.
        self.warm = [
            q for q in self.round(np.random.default_rng([seed, 1 << 20]))
            if q.template in ("predicate", "median", "sum")
        ]
        self.db: Database | None = None

    def setup(self) -> None:
        db = Database(shards=1)
        db.register(self.relation)
        for query in self.warm:
            run_query(db, query)
        self.db = db
        self.next_round = 0

    def round(self, rng: np.random.Generator) -> list[Query]:
        """One query per template with fresh constants, in a seeded order
        (which decides where depth copies can be shared)."""
        a = self.arrays
        pick = lambda name: _pick(rng, a[name])  # noqa: E731
        ge = lambda name: ((Cmp(name, ">=", pick(name)),),)  # noqa: E731
        le = lambda name: ((Cmp(name, "<=", pick(name)),),)  # noqa: E731
        t = "tcpip"
        lo, hi = sorted((pick("flow_rate"), pick("flow_rate")))
        # About 1% of the records: the projection returns ~10^4 rows.
        top = int(self.sorted_count[-int(rng.integers(
            PAPER_RECORDS // 200, PAPER_RECORDS * 3 // 200))])
        kth_where = ge("data_loss")
        kth_count = int(np.count_nonzero(mask(kth_where, a)))
        queries = [
            Query(SCAN, "predicate", t, "COUNT", (), ge("data_count")),
            Query(SCAN, "range", t, "COUNT", (),
                  ((Range("flow_rate", lo, hi),),)),
            Query(SCAN, "cnf", t, "COUNT", (), (
                (Cmp("data_count", ">=", pick("data_count")),
                 Cmp("data_loss", ">=", pick("data_loss"))),
                le("flow_rate")[0],
                ge("retransmissions")[0],
            )),
            Query(SCAN, "semilinear", t, "COUNT", (), (
                (Cmp("data_loss", "<", "retransmissions"),),
                ge("flow_rate")[0],
            )),
            Query(SCAN, "projection", t, "PROJECT",
                  ("data_count", "flow_rate"),
                  ((Cmp("data_count", ">=", top),),)),
            # Each class's templates cost about the same, so a class
            # median lands inside one cluster of latencies, not between.
            Query(ORDER_STAT, "median", t, "MEDIAN", ("data_count",),
                  ge("flow_rate")),
            Query(ORDER_STAT, "max", t, "MAX", ("data_count",),
                  le("flow_rate")),
            Query(ORDER_STAT, "kth", t, "KTH", ("data_count",), kth_where,
                  k=int(rng.integers(1, kth_count + 1))),
            Query(SUM, "sum", t, "SUM", ("data_loss",), ge("flow_rate")),
            Query(SUM, "avg", t, "AVG", ("data_loss",), ge("data_count")),
            Query(SUM, "sum2", t, "SUM", ("data_loss",),
                  ge("retransmissions")),
        ]
        queries = [dataclasses.replace(q, device=Device.GPU) for q in queries]
        return [queries[i] for i in rng.permutation(len(queries))]

    def run(self, seconds: float) -> list[Outcome]:
        """Whole rounds until ``seconds`` have passed; a later call goes
        on with the next round."""
        outcomes: list[Outcome] = []
        started = time.perf_counter()
        done = 0
        while done < self.model_rounds or (
            time.perf_counter() - started < seconds
        ):
            index = self.next_round
            rng = np.random.default_rng([self.seed, index])
            for seq, query in enumerate(self.round(rng)):
                outcomes.append(
                    serve(self.db, query, 0, index * ROUND_STRIDE + seq))
            self.next_round += 1
            done += 1
        self.last_wall_s = time.perf_counter() - started
        return outcomes

    def model_prefix(self, outcomes):
        first = outcomes[0].seq // ROUND_STRIDE
        return [o for o in outcomes
                if o.seq // ROUND_STRIDE < first + self.model_rounds]

    def check(self, outcomes) -> list[str]:
        return check_queries(outcomes, {"tcpip": self.arrays})

    def close(self) -> None:
        pass


def busy_seconds(workload, outcomes) -> float:
    """Time the system was answering: the summed latencies for a single
    closed-loop client, the loop's wall time when clients overlap."""
    if workload.clients > 1:
        return workload.last_wall_s
    return sum(o.latency_s for o in outcomes)


def serve(db, query: Query, session: int, seq: int, service_session=None):
    """Run one query (directly or through a service session) and time it;
    typed errors become failed outcomes."""
    outcome = Outcome(query.cls, query.template, session, seq, 0.0,
                      request=query)
    started = time.perf_counter()
    try:
        if service_session is None:
            value, modeled, passes, route, result = run_query(db, query)
        else:
            result = service_session.query(query.sql, device=query.device)
            value = _value(query, result)
            modeled, passes = result.time_ms, result.pass_count
            route = result.device.value
            outcome.queued_s = result.queued_s
    except ReproError as error:
        outcome.latency_s = time.perf_counter() - started
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome
    outcome.latency_s = time.perf_counter() - started
    outcome.value, outcome.modeled_ms, outcome.passes = value, modeled, passes
    outcome.route, outcome.result = route, result
    return outcome


#: service-mix tables: name -> (columns, a semi-linear column pair).
SERVICE_TABLES = {
    "tcpip": (("data_count", "data_loss", "flow_rate", "retransmissions"),
              ("data_loss", "retransmissions")),
    "census": (("monthly_income", "age", "hours_per_week",
                "education_years"), ("education_years", "age")),
    "orders": (("customer_id", "amount", "items"), ("items", "customer_id")),
}
#: Sessions that pin MEDIAN/MAX to the GPU (one per client thread).
PINNED_SESSIONS = (3, 7)
SESSIONS = 8
CLIENT_THREADS = 2


class ServiceMix:
    """A ``QueryService`` over ``Database(shards=2)``: 8 sessions, each
    cycling through its own template list, driven by 2 closed-loop
    client threads (sessions 0-3 on one, 4-7 on the other)."""

    name = "service-mix"
    clients = CLIENT_THREADS
    answers_per_request = 1
    #: Leading queries per session whose modeled cost is reported.
    model_queries = 8
    queries_per_session = 512

    def __init__(self, seed: int):
        self.seed = seed
        orders, _customers = make_retail(1 << 15, seed=seed + 2)
        self.relations = [
            make_tcpip(1 << 17, seed=seed),
            make_census(1 << 16, seed=seed + 1),
            orders,
        ]
        self.tables = {r.name: _arrays(r) for r in self.relations}
        self.lists = [
            self.session_queries(session) for session in range(SESSIONS)
        ]
        self.service: QueryService | None = None
        self.sessions: list = []

    def session_queries(self, session: int) -> list[Query]:
        rng = np.random.default_rng([self.seed, session])
        names = list(SERVICE_TABLES)
        pinned = session in PINNED_SESSIONS
        queries = []
        # Every cycle of eight holds each template once, in seeded order.
        positions = np.concatenate([
            rng.permutation(8) for _ in range(self.queries_per_session // 8)
        ])
        for pos in positions:
            table = names[(session + pos) % 3]
            cols, (left, right) = SERVICE_TABLES[table]
            a = self.tables[table]
            c = lambda i: cols[(session + pos + i) % len(cols)]  # noqa: E731
            pick = lambda name: _pick(rng, a[name])  # noqa: E731
            ge = lambda name: ((Cmp(name, ">=", pick(name)),),)  # noqa: E731
            if pos == 0:
                q = Query(SCAN, "predicate", table, "COUNT", (), ge(c(0)))
            elif pos == 1:
                lo, hi = sorted((pick(c(1)), pick(c(1))))
                q = Query(SCAN, "range", table, "COUNT", (),
                          ((Range(c(1), lo, hi),),))
            elif pos == 2 and pinned:
                q = Query(ORDER_STAT, "max", table, "MAX", (c(0),), ge(c(1)),
                          Device.GPU)
            elif pos == 2:
                q = Query(SUM, "sum", table, "SUM", (c(0),), ge(c(1)))
            elif pos == 3:
                q = Query(SCAN, "cnf", table, "COUNT", (), (
                    (Cmp(c(0), ">=", pick(c(0))),
                     Cmp(c(1), "<=", pick(c(1)))),
                    (Cmp(c(2), ">=", pick(c(2))),),
                ))
            elif pos == 4:
                q = Query(ORDER_STAT, "median", table, "MEDIAN", (c(0),),
                          ge(c(1)), Device.GPU if pinned else Device.AUTO)
            elif pos == 5:
                q = Query(SCAN, "projection", table, "PROJECT", (c(0),),
                          ((Cmp(c(0), ">=", _top(rng, a[c(0)])),),))
            elif pos == 6:
                q = Query(SUM, "avg", table, "AVG", (c(2),), ge(c(1)))
            else:
                q = Query(SCAN, "semilinear", table, "COUNT", (), (
                    (Cmp(left, "<", right),), ge(c(0))[0],
                ))
            queries.append(q)
        return queries

    def setup(self) -> None:
        db = Database(shards=2, executor=ResilientExecutor())
        for relation in self.relations:
            db.register(relation)
        service = QueryService(db, max_in_flight=SESSIONS)
        sessions = [service.session(f"s{i}") for i in range(SESSIONS)]
        gpu = Device.GPU
        # Make every texture resident (so no measured query pays an
        # upload) and open every session's contexts.
        for table, (cols, (left, right)) in SERVICE_TABLES.items():
            for name in cols:
                sessions[0].query(
                    f"SELECT COUNT(*) FROM {table} WHERE {name} >= 1",
                    device=gpu,
                )
            sessions[0].query(
                f"SELECT COUNT(*) FROM {table} WHERE {left} < {right}",
                device=gpu,
            )
            for session in sessions[1:]:
                session.query(
                    f"SELECT COUNT(*) FROM {table} WHERE {cols[0]} >= 2",
                    device=gpu,
                )
        # One warm query per class.
        sessions[0].query("SELECT MEDIAN(age) FROM census", device=gpu)
        sessions[0].query("SELECT SUM(amount) FROM orders")
        self.service, self.sessions = service, sessions
        self.next_seq = [0] * SESSIONS

    def run(self, seconds: float) -> list[Outcome]:
        """Both client threads run until ``seconds`` have passed and each
        of their sessions has issued at least ``model_queries`` queries;
        a later call goes on where every session stopped."""
        started = time.perf_counter()
        results: list[list[Outcome]] = [[] for _ in range(CLIENT_THREADS)]
        errors: list[BaseException] = []
        per_thread = SESSIONS // CLIENT_THREADS

        def client(thread: int) -> None:
            mine = range(thread * per_thread, (thread + 1) * per_thread)
            n = 0
            try:
                while n < self.model_queries or (
                    time.perf_counter() - started < seconds
                ):
                    for session in mine:
                        seq = self.next_seq[session]
                        self.next_seq[session] += 1
                        query = self.lists[session][
                            seq % self.queries_per_session
                        ]
                        results[thread].append(serve(
                            None, query, session, seq,
                            self.sessions[session],
                        ))
                    n += 1
            except BaseException as error:  # re-raised by the host thread
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(i,), name=f"client-{i}")
            for i in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        self.last_wall_s = time.perf_counter() - started
        outcomes = [o for part in results for o in part]
        outcomes.sort(key=lambda o: (o.session, o.seq))
        return outcomes

    def model_prefix(self, outcomes):
        first = {}
        for o in outcomes:
            first.setdefault(o.session, o.seq)
        return [
            o for o in outcomes
            if o.seq - first[o.session] < self.model_queries
        ]

    def check(self, outcomes) -> list[str]:
        return check_queries(outcomes, self.tables)

    def close(self) -> None:
        for session in self.sessions:
            session.close()


#: stream-window schema: the TCP/IP attributes and their bit widths.
STREAM_SCHEMA = (("data_count", 19), ("data_loss", 10), ("flow_rate", 16),
                 ("retransmissions", 8))
WINDOW = 1 << 17
BATCH = 1 << 13


class StreamWindow:
    """A ``StreamEngine`` with a pre-filled 2^17-record window; every
    tick appends 2^13 records and re-evaluates four continuous queries.
    A tick is the request: its four answers arrive together."""

    name = "stream-window"
    clients = 1
    answers_per_request = 4
    #: Leading ticks whose modeled cost is reported (always run).
    model_ticks = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.prefill = self.batch(-1, WINDOW)
        rng = np.random.default_rng([seed, 1 << 21])
        # The COUNT's conjunction has a seeded number of literals.
        hot = tuple(
            (Cmp(name, ">=", _pick(rng, self.prefill[name])),)
            for name, _bits in STREAM_SCHEMA[: int(rng.integers(2, 4))]
        )
        self.cqs = [
            (ContinuousQuery("hot", "count"), "COUNT", None, hot),
            (ContinuousQuery("median", "median", column="data_count"),
             "MEDIAN", "data_count", ()),
            (ContinuousQuery("loss", "sum", column="data_loss"), "SUM",
             "data_loss",
             ((Cmp("flow_rate", ">=", _pick(rng, self.prefill["flow_rate"])),),)),
            (ContinuousQuery("peak", "maximum", column="flow_rate"), "MAX",
             "flow_rate",
             ((Cmp("data_loss", "<=", _pick(rng, self.prefill["data_loss"])),),)),
        ]
        self.engine: StreamEngine | None = None

    def batch(self, tick: int, size: int = BATCH) -> dict[str, np.ndarray]:
        state = np.random.SeedSequence([self.seed, tick + 2]).generate_state(1)
        return _arrays(make_tcpip(size, seed=int(state[0])))

    def setup(self) -> None:
        engine = StreamEngine(list(STREAM_SCHEMA), capacity=WINDOW,
                              executor=ResilientExecutor())
        for cq, _func, _column, where in self.cqs:
            predicate = to_repro(where) if where else None
            engine.register(dataclasses.replace(cq, predicate=predicate))
        engine.append(self.prefill)
        self.engine = engine
        self.ticks = 0

    def run(self, seconds: float) -> list[Outcome]:
        """Ticks until ``seconds`` have passed; a later call goes on with
        the next tick."""
        outcomes: list[Outcome] = []
        started = time.perf_counter()
        while len(outcomes) < self.model_ticks or (
            time.perf_counter() - started < seconds
        ):
            outcomes.append(self.tick(self.ticks, self.batch(self.ticks)))
            self.ticks += 1
        self.last_wall_s = time.perf_counter() - started
        return outcomes

    def tick(self, tick: int, batch: dict[str, np.ndarray]) -> Outcome:
        """Append one batch (the request) and time it."""
        outcome = Outcome("tick", "tick", 0, tick, 0.0, request=tick)
        started = time.perf_counter()
        try:
            result = self.engine.append(batch)
        except ReproError as error:
            outcome.latency_s = time.perf_counter() - started
            outcome.error = f"{type(error).__name__}: {error}"
            return outcome
        outcome.latency_s = time.perf_counter() - started
        outcome.value = result.results
        outcome.modeled_ms = result.gpu_ms
        outcome.passes = self.engine.device.stats.num_passes
        outcome.route = "gpu"
        outcome.result = result
        outcome.stats = self.engine.device.stats.snapshot()
        return outcome

    def model_prefix(self, outcomes):
        return outcomes[: self.model_ticks]

    def check(self, outcomes) -> list[str]:
        """Replay the stream in numpy and compare every tick's answers."""
        mismatches = []
        history = [self.prefill]
        last = max((o.seq for o in outcomes), default=-1)
        wanted = {o.seq: o for o in outcomes}
        for tick in range(last + 1):
            history.append(self.batch(tick))
            outcome = wanted.get(tick)
            if outcome is None or outcome.error is not None:
                continue
            window = {
                name: np.concatenate([b[name] for b in history])[-WINDOW:]
                for name, _bits in STREAM_SCHEMA
            }
            for cq, func, column, where in self.cqs:
                selected = mask(where, window)
                if func == "COUNT":
                    want = int(np.count_nonzero(selected))
                else:
                    want = aggregate(func, window[column][selected])
                got = outcome.value.get(cq.name)
                if not same(want, got):
                    mismatches.append(
                        f"tick {tick} {cq.name}: expected {want!r}, got {got!r}"
                    )
            history = [
                {name: np.concatenate([b[name] for b in history])[-WINDOW:]
                 for name, _bits in STREAM_SCHEMA}
            ]
        return mismatches

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (PaperOlap, ServiceMix, StreamWindow)}
