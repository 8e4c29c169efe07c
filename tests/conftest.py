"""Shared test plumbing: acceptance criteria get one PASS/FAIL line each in
the terminal summary, whether or not output capturing is on; graphs that
several test modules use."""

from pebblekit.graphs import Graph, Original

_ACCEPTANCE_LINES: list[tuple[int, str, bool]] = []


def record_criterion(num: int, description: str, ok: bool) -> None:
    _ACCEPTANCE_LINES.append((num, description, ok))
    assert ok, f"criterion {num} failed: {description}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num, description, ok in sorted(_ACCEPTANCE_LINES):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{verdict} criterion {num}: {description}")


def petersen() -> Graph:
    """Outer 5-cycle v0..v4, spokes v_i v_{i+5}, inner pentagram v5..v9."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph([Original(i) for i in range(10)], edges)


def asymmetric_graph() -> Graph:
    """A triangle v0 v1 v2 with a 2-edge tail v0-v3-v5 and a 1-edge tail
    v1-v4: six vertices and no automorphism but the identity."""
    return Graph([Original(i) for i in range(6)],
                 [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)])
