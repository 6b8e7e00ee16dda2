"""Translation and projection output must not depend on the hash seed.

States are numbered with ints in discovery order right after
translation, and discovery order follows printed formula order, so
``PYTHONHASHSEED`` (which permutes set iteration over formulas) must not
change a translated automaton or a stored projection.  A second check
pins down the reason: every state the ``_state_key`` order sees from
translation and registration on is an int.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.automata import buchi, encode
from repro.automata.ltl2ba import translate
from repro.broker.database import ContractDatabase
from repro.ltl.patterns import TEMPLATES

ROOT = Path(__file__).resolve().parents[2]

#: multi-clause contracts; the first has obligation sets of several
#: formulas, whose printed (and so sorted) order once followed the seed
CONTRACTS = (
    ["F e3 -> ((e7 -> (!e3 U (e4 && !e3))) U e3)", "G(e1 -> F e7)", "G e2"],
    ["G(a -> F b)", "G(c -> !a)"],
    ["G(request -> F grant)", "!grant U request", "F done"],
)

PROGRAM = """
import hashlib, json
from repro.automata.ltl2ba import translate
from repro.automata.serialize import automaton_to_dict
from repro.ltl.parser import parse_clauses
from repro.ltl.patterns import TEMPLATES
from repro.projection.store import ProjectionStore

names = dict(p="p", s="s", t="t", q="q", r="r", z="z")
out = []
for key in sorted(TEMPLATES, key=lambda k: (k[0].value, k[1].value)):
    template = TEMPLATES[key]
    formula = template.instantiate(
        **{name: names[name] for name in template.placeholders})
    out.append(automaton_to_dict(translate(formula), canonicalize=False))
for clauses in json.loads(%r):
    store = ProjectionStore(translate(parse_clauses(clauses)))
    doc = store.to_dict()
    doc.pop("stats")  # build timings
    out.append(doc)
print(hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest())
"""


def _run(seed: str) -> str:
    import json

    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM % json.dumps(CONTRACTS)],
        capture_output=True, text=True, env=env, check=True, cwd=ROOT,
    )
    return result.stdout.strip()


def test_output_identical_across_hash_seeds():
    digests = {seed: _run(seed) for seed in ("0", "12345")}
    assert len(set(digests.values())) == 1, digests


@pytest.fixture
def state_key_types(monkeypatch):
    """Record the type of every state ``_state_key`` orders."""
    seen: set[type] = set()
    original = buchi._state_key

    def recording(state):
        seen.add(type(state))
        return original(state)

    monkeypatch.setattr(buchi, "_state_key", recording)
    monkeypatch.setattr(encode, "_state_key", recording)
    return seen


def test_translate_orders_only_int_states(state_key_types):
    for template in TEMPLATES.values():
        translate(template.instantiate(
            **{name: name for name in template.placeholders}))
    assert state_key_types == {int}


def test_register_orders_only_int_states(state_key_types):
    db = ContractDatabase()
    for i, clauses in enumerate(CONTRACTS):
        db.register(f"c{i}", clauses)
    assert state_key_types == {int}
