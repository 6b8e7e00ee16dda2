"""Seeded inputs of the broker benchmark.

Every input — contracts, attributes, the query pool, the operation
sequence and the stream records — is a pure function of the workload
name, the seed, the size preset and this file.  Nothing here imports the
package under test: the pattern templates below are LTL *text*, so a
change to the translator, the parser or the package's own workload
generator cannot change what the benchmark feeds it.  No filter goes
through the translator, for the same reason.

The templates are the Dwyer–Avrunin–Corbett specification patterns (five
behaviors × four scopes) the paper samples its workloads from (§7.2),
weighted by the occurrence counts of that survey.

A workload's *data* — its contracts with their attributes, and its query
pool with the filters — is drawn once from :data:`UNIVERSE_SEED`, like a
fixed dataset.  The run's seed draws the *traffic* over that data:
serve's operation sequence and stream records, churn's arrival order of
fresh contracts and its query picks.  Query and registration costs are
heavy-tailed in the events a pattern is filled with (one 3-pattern query
can cost a hundred times the median), so data drawn per seed made a
run's figures depend on which handful of expensive items the seed drew.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

VOCABULARY = tuple(f"e{i}" for i in range(12))

#: behavior -> (placeholders, {scope: (extra placeholders, LTL text)})
_SCOPED = {
    "absence": ("p", {
        "global": ((), "G !{p}"),
        "before": (("r",), "F {r} -> (!{p} U {r})"),
        "after": (("q",), "G({q} -> G !{p})"),
        "between": (("q", "r"), "G(({q} && !{r} && F {r}) -> (!{p} U {r}))"),
    }),
    "existence": ("p", {
        "global": ((), "F {p}"),
        "before": (("r",), "!{r} W ({p} && !{r})"),
        "after": (("q",), "G !{q} || F({q} && F {p})"),
        "between": (("q", "r"),
                    "G(({q} && !{r}) -> (!{r} W ({p} && !{r})))"),
    }),
    "universality": ("p", {
        "global": ((), "G {p}"),
        "before": (("r",), "F {r} -> ({p} U {r})"),
        "after": (("q",), "G({q} -> G {p})"),
        "between": (("q", "r"), "G(({q} && !{r} && F {r}) -> ({p} U {r}))"),
    }),
    "precedence": ("ps", {
        "global": ((), "F {p} -> (!{p} U ({s} || G !{p}))"),
        "before": (("r",), "F {r} -> (!{p} U ({s} || {r}))"),
        "after": (("q",), "G !{q} || F({q} && (!{p} U ({s} || G !{p})))"),
        "between": (("q", "r"),
                    "G(({q} && !{r} && F {r}) -> (!{p} U ({s} || {r})))"),
    }),
    "response": ("ps", {
        "global": ((), "G({p} -> F {s})"),
        "before": (("r",), "F {r} -> (({p} -> (!{r} U ({s} && !{r}))) U {r})"),
        "after": (("q",), "G({q} -> G({p} -> F {s}))"),
        "between": (("q", "r"), "G(({q} && !{r} && F {r}) -> "
                                "(({p} -> (!{r} U ({s} && !{r}))) U {r}))"),
    }),
}

#: occurrence counts of the pattern survey the paper samples by (§7.2)
BEHAVIOR_WEIGHTS = {"response": 245, "universality": 119, "absence": 85,
                    "existence": 27, "precedence": 26}
SCOPE_WEIGHTS = {"global": 447, "before": 25, "after": 55, "between": 28}

REGIONS = ("eu", "us", "apac", "latam")
TIERS = ("basic", "plus", "premium")


@dataclass(frozen=True)
class Sizes:
    """How much of everything one run generates."""

    corpus: int            # live contracts
    patterns: tuple        # (min, max) patterns per contract
    query_pool: int        # distinct queries (serve, sharded)
    hot_pool: int          # distinct queries (churn)
    ops: int               # length of the serve operation sequence
    warmup: int            # serve operations run by the warm-up pass
    zipf_block: int        # serve queries per stratified Zipf block
    ingest_every: int      # every Nth serve operation is an ingest batch
    ingest_batch: int      # records per ingest batch
    churn_queries: int     # queries per churn cycle
    checkpoint_every: int  # churn mutations between checkpoints
    fresh: int             # distinct fresh contracts churn cycles through
                           # (one lap per checkpoint interval)
    check_sample: int      # distinct queries checked against the scan
    trace_ops: int         # serve operations of each traced-run pass
    trace_cycles: int      # churn cycles of each traced-run pass
    min_queries: int       # a window runs at least this many queries
    min_registers: int     # ... and (churn) this many registrations


#: Where each value comes from (a measurement of the package, the paper,
#: or an assumption with its measured sensitivity) is tabled in
#: ``perfbench/WORKLOADS.md``.
SIZES = {
    "full": Sizes(corpus=48, patterns=(3, 4), query_pool=512, hot_pool=24,
                  ops=8000, warmup=200, zipf_block=1800, ingest_every=10,
                  ingest_batch=64, churn_queries=8, checkpoint_every=96,
                  fresh=48, check_sample=48, trace_ops=1200,
                  trace_cycles=64, min_queries=1000, min_registers=100),
    "tiny": Sizes(corpus=6, patterns=(2, 3), query_pool=24, hot_pool=4,
                  ops=60, warmup=10, zipf_block=48, ingest_every=5,
                  ingest_batch=8, churn_queries=2, checkpoint_every=4,
                  fresh=10, check_sample=6, trace_ops=30,
                  trace_cycles=6, min_queries=20, min_registers=5),
}

#: Zipf exponent of query popularity over the serve pool's ranks
ZIPF_EXPONENT = 0.6

#: Each response pattern in a conjunction adds pending-obligation states
#: to its automaton.  Two response patterns that both carry a scope make
#: rare queries whose translation alone takes seconds (12 s against a
#: median of 1 ms for the rest of a 512-query pool); every compile-cache
#: eviction of one would stall the client that long.  A contract or query
#: therefore holds at most this many response patterns, at most one of
#: them scoped.  The rule looks at the pattern kinds only, never at the
#: translated automaton.
MAX_RESPONSES = 2

UNIVERSE_SEED = "perfbench-universe-1"


def sample_template(rng: random.Random) -> tuple[str, str]:
    behavior = rng.choices(list(BEHAVIOR_WEIGHTS),
                           list(BEHAVIOR_WEIGHTS.values()))[0]
    scope = rng.choices(list(SCOPE_WEIGHTS), list(SCOPE_WEIGHTS.values()))[0]
    return behavior, scope


def sample_clauses(rng: random.Random, low: int, high: int) -> list[str]:
    """Clause texts of one conjunction of ``low``..``high`` patterns, with
    at most :data:`MAX_RESPONSES` response patterns and at most one
    scoped response pattern; each pattern's placeholders get distinct
    events."""
    count = rng.randint(low, high)
    while True:
        shape = [sample_template(rng) for _ in range(count)]
        scopes = [scope for behavior, scope in shape if behavior == "response"]
        if (len(scopes) <= MAX_RESPONSES
                and sum(scope != "global" for scope in scopes) <= 1):
            break
    clauses = []
    for behavior, scope in shape:
        own, scopes = _SCOPED[behavior]
        extra, text = scopes[scope]
        names = tuple(own) + extra
        events = rng.sample(VOCABULARY, len(names))
        clauses.append(text.format(**dict(zip(names, events))))
    return clauses


def contracts(role: str, prefix: str, count: int, patterns) -> list[dict]:
    rng = random.Random(f"{UNIVERSE_SEED}:{role}")
    return [
        {
            "name": f"{prefix}{i:04d}",
            "clauses": sample_clauses(rng, *patterns),
            "attributes": {
                "price": rng.randrange(100, 1000),
                "rating": rng.randint(1, 5),
                "region": rng.choice(REGIONS),
                "tier": rng.choice(TIERS),
            },
        }
        for i in range(count)
    ]


def queries(role: str, count: int) -> list[dict]:
    """Pool entries: 1–3-pattern query text plus ``AttributeFilter.
    from_list`` rows (no filter for about half)."""
    rng = random.Random(f"{UNIVERSE_SEED}:{role}")
    return [
        {"query": " && ".join(f"({c})" for c in sample_clauses(rng, 1, 3)),
         "filter": sample_filter(rng)}
        for _ in range(count)
    ]


def sample_filter(rng: random.Random) -> list:
    if rng.random() < 0.5:
        return []
    kind = rng.randrange(3)
    if kind == 0:
        return [["price", "<=", rng.randrange(300, 1000, 50)]]
    if kind == 1:
        return [["region", "in", sorted(rng.sample(REGIONS, 2))]]
    return [["rating", ">=", rng.randint(2, 4)],
            ["tier", "!=", rng.choice(TIERS)]]


def stratified(weights: list[float], size: int) -> list[int]:
    """A block of ``size`` indices holding index ``i`` in proportion to
    ``weights[i]`` (largest-remainder rounding).  Traffic is drawn as
    shuffled copies of such a block rather than as independent draws, so
    how often each query runs in a window barely depends on the seed."""
    total = sum(weights)
    quotas = [w * size / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[:size - sum(counts)]:
        counts[i] += 1
    return [i for i, count in enumerate(counts) for _ in range(count)]


def ingest_batch(rng: random.Random, names: list[str], size: int) -> list:
    """Stream records of zero to two events each: about a quarter
    broadcast to the fleet, the rest addressed to one contract each."""
    return [
        {"events": sorted(rng.sample(VOCABULARY, rng.randint(0, 2))),
         "contract": None if rng.random() < 0.25 else rng.choice(names)}
        for _ in range(size)
    ]


def generate(workload: str, seed: int, scale: str = "full") -> dict:
    """All inputs of one run.  ``sharded`` generates exactly ``serve``'s
    inputs, so that their answers can be compared."""
    sizes = SIZES[scale]
    family = "serve" if workload == "sharded" else workload
    if family not in ("serve", "churn"):
        raise ValueError(f"unknown workload {workload!r}")
    corpus = contracts(f"{family}:corpus", "c", sizes.corpus, sizes.patterns)
    inputs = {"workload": family, "seed": seed, "scale": scale,
              "sizes": asdict(sizes), "corpus": corpus}
    rng = random.Random(f"{family}:{seed}")
    if family == "serve":
        # pool position = popularity rank
        pool = queries("serve:pool", sizes.query_pool)
        block = stratified(
            [rank ** -ZIPF_EXPONENT for rank in range(1, len(pool) + 1)],
            sizes.zipf_block)
        draws: list[int] = []
        names = [c["name"] for c in corpus]
        ops = []
        for i in range(1, sizes.ops + 1):
            if i % sizes.ingest_every == 0:
                ops.append(["ingest",
                            ingest_batch(rng, names, sizes.ingest_batch)])
                continue
            if not draws:
                draws = rng.sample(block, len(block))
            ops.append(["query", draws.pop()])
        inputs.update(pool=pool, ops=ops)
    else:
        fresh = contracts("churn:fresh", "f", sizes.fresh, sizes.patterns)
        rng.shuffle(fresh)  # arrival order
        pool = queries("churn:pool", sizes.hot_pool)
        picks = [i for _ in range(sizes.fresh * sizes.churn_queries
                                  // len(pool))
                 for i in rng.sample(range(len(pool)), len(pool))]
        inputs.update(pool=pool, fresh=fresh, picks=picks)
    return inputs


def digest(doc) -> str:
    """sha256 of a JSON document in canonical form."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
