"""Differential test: the indexed RTA builder against the original fixpoint.

Both builders must emit the *same ordered* edge list — not just the same
set — because ``targets_of_site`` order decides which contexts survive
``max_contexts_per_site`` truncation, and edge order decides the order
``reachable_methods()`` reports.  The oracle is
:func:`tests.callgraph.reference_rta.reference_rta`.

Tier-1 covers the corpus, memocache ×1/×12/×40, mysql-connector-j ×4 and
random programs at the ``ci`` profile; ``HYPOTHESIS_PROFILE=nightly``
adds every corpus app at ×12 (the nightly workflow runs this module that
way).
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.apps import build_app, corpus_names
from repro.bench.scale import build_scaled
from repro.callgraph.rta import build_rta
from repro.lang import parse_program

from tests.callgraph.reference_rta import reference_rta
from tests.properties.strategies import (
    inference_programs,
    resource_loop_programs,
    rich_loop_programs,
)

# Example count comes from the hypothesis profile (see conftest.py).
_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_NIGHTLY = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"

_TILINGS = {("memocache", 1), ("memocache", 12), ("memocache", 40),
            ("mysql-connector-j", 4)}
if _NIGHTLY:
    _TILINGS |= {(name, 12) for name in corpus_names()}


def _assert_same_graph(program):
    new, old = build_rta(program), reference_rta(program)
    assert _edges(new) == _edges(old)
    assert _order(new) == _order(old)


def _edges(graph):
    return [(e.caller.sig, e.invoke.uid, e.callee.sig) for e in graph.edges]


def _order(graph):
    return [m.sig for m in graph.reachable_methods()]


#: Classes instantiated against name order, a subclass inheriting its
#: target, and a late class that several pending invokes of two names
#: wait for: the orderings the corpus barely exercises.
_DISPATCH_ORDER = """
entry Main.main;
class Main {
  static method main() {
    z = new Zed @sz;
    b = new Beta @sb;
    a = new Alpha @sa;
    call z.m() @c1;
    call a.n() @c2;
    call b.m() @c3;
    call z.late() @c4;
  }
}
class Alpha { method m() { return; } method n() { return; } }
class Beta extends Alpha { method n() { return; } }
class Zed {
  method m() { return; }
  method late() { l = new Late @sl; call l.n() @c5; }
}
class Late extends Zed {
  method n() { call this.m() @c6; }
  method m() { return; }
}
"""


def test_dispatch_order():
    _assert_same_graph(parse_program(_DISPATCH_ORDER))


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_app(name):
    _assert_same_graph(build_app(name).program)


@pytest.mark.parametrize("base,factor", sorted(_TILINGS))
def test_tiling(base, factor):
    _assert_same_graph(parse_program(build_scaled(base, factor).source))


@_SETTINGS
@given(
    st.one_of(
        rich_loop_programs(),
        inference_programs(),
        resource_loop_programs().map(lambda drawn: drawn[0]),
    )
)
def test_random_programs(source):
    _assert_same_graph(parse_program(source))
