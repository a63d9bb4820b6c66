import pytest


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


@pytest.fixture
def acceptance(request):
    """Record one pass/fail line for a criterion, then assert it."""

    def record(name: str, ok: bool, detail: str = "") -> None:
        status = "pass" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        request.config._acceptance_lines.append(f"{status}  {name}{suffix}")
        assert ok, f"{name}: {detail or 'failed'}"

    return record


@pytest.fixture
def packed_operands(monkeypatch):
    """Start recording the length of every operand packed, and every
    (k, n) asked of grassmannian; returns the two lists."""
    from curvebetti import catalog, pipelines, polyring

    def start() -> tuple[list[int], list[tuple[int, int]]]:
        lengths, asked = [], []
        pack, gr = polyring._pack, catalog.grassmannian

        def recording_pack(cs, *args):
            lengths.append(len(cs))
            return pack(cs, *args)

        def recording_grassmannian(k, n):
            asked.append((k, n))
            return gr(k, n)

        monkeypatch.setattr(polyring, "_pack", recording_pack)
        for module in (catalog, pipelines):
            monkeypatch.setattr(module, "grassmannian", recording_grassmannian)
        return lengths, asked

    return start
