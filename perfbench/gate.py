"""Correctness gate on the engine's end state, run outside the timed region."""
from __future__ import annotations

import math
import traceback
from typing import List, Tuple

from repro.core import SpadeEngine, metric_by_name
from repro.spark.streaming import replay
from tests.helpers import assert_engine_valid

State = Tuple[int, float, float, frozenset]


def state_of(eng) -> State:
    return eng.n_edges, eng.f_total, eng.best_density, frozenset(eng.community_external())


def check(w, inp, states: List[State], last_engine) -> List[str]:
    """Failures of the gate; empty when the end state is correct.

    * the last round's engine is a valid greedy peel whose community
      reaches the maximum suffix density (the checks of the test suite);
    * every round applied every edge exactly once and ended in the same
      state (rounds are identical work on identical inputs);
    * for the stream, the end state equals an in-process ``replay``.
    """
    errors: List[str] = []
    try:
        assert_engine_valid(last_engine)
    except AssertionError as e:
        where = traceback.extract_tb(e.__traceback__)[-1].line
        errors.append(f"end state fails assert_engine_valid: {where} {e}")
    expected = len(inp.data.initial) + len(inp.rows)
    for i, s in enumerate(states):
        if s[0] != expected:
            errors.append(f"round {i}: {s[0]} edges in the engine, expected {expected}")
        if s != states[-1]:
            errors.append(f"round {i}: end state differs from round {len(states) - 1}")
    if w.mode == "stream":
        ref = SpadeEngine(metric_by_name(w.metric))
        ref.bulk_load(
            list(inp.data.initial[["src", "dst", "amount"]].itertuples(index=False, name=None)),
            priors=inp.priors,
        )
        replay(ref, inp.window, batch_size=math.ceil(len(inp.rows) / w.files))
        n, f, g, _ = states[-1]
        if n != ref.n_edges:
            errors.append(f"stream applied {n} edges, replay {ref.n_edges}")
        if not math.isclose(f, ref.f_total, rel_tol=1e-9):
            errors.append(f"stream f_total {f} != replay {ref.f_total}")
        if not math.isclose(g, ref.best_density, rel_tol=1e-9):
            errors.append(f"stream best_density {g} != replay {ref.best_density}")
    return errors
