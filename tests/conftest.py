import json
import math
import threading

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from cforbit.cfe import ReducedFraction

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


@st.composite
def reduced_fractions(draw, max_q: int = 3000):
    q = draw(st.integers(min_value=2, max_value=max_q))
    p = draw(st.integers(min_value=1, max_value=q - 1))
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q == 1:
        p, q = 1, 2
    return ReducedFraction(p, q)


def read_rows(text: str) -> tuple[tuple[str, ...], list[dict]]:
    """Columns and rows of a CLI output, CSV or JSON lines, each row a {column: value} dict.

    A CSV cell reads as the JSON value it spells (true, 3, 0.25) or else as
    its text; a JSON row keeps its histogram payload.
    """
    lines = text.splitlines()
    if lines[0].startswith("{"):
        columns = tuple(json.loads(lines[0])["columns"])
        return columns, [json.loads(line) for line in lines[1:]]
    body = [line for line in lines if not line.startswith("#")]
    columns = tuple(body[0].split(","))
    return columns, [dict(zip(columns, map(_cell, line.split(",")))) for line in body[1:]]


def _cell(text: str) -> object:
    try:
        return json.loads(text)
    except ValueError:
        return text


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started during the test, in order; a ninth start is refused, so no test starts thousands."""
    asked = []
    start = threading.Thread.start

    def counted_start(self):
        asked.append(self)
        if len(asked) > 8:
            raise AssertionError("more than 8 threads asked for")
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    return asked
