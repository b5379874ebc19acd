"""The `repro.perf` layer (counters), the `profile` command, doc pointers."""

import re
from pathlib import Path

import pytest

import repro.perf
from repro.__main__ import main
from repro.chemistry.tasks import synthetic_task_graph
from repro.core import MACHINE_PRESETS
from repro.exec_models import make_model
from repro.perf import run_counters

ROOT = Path(__file__).resolve().parents[2]


class TestCounters:
    @pytest.fixture(scope="class")
    def result(self):
        graph = synthetic_task_graph(200, 8, seed=3)
        machine = MACHINE_PRESETS["commodity"](8)
        return make_model("work_stealing").run(graph, machine, seed=5)

    def test_run_counters_includes_engine_and_model(self, result):
        counters = run_counters(result)
        assert counters["sim_events"] > 0
        assert 0 < counters["sim_ready_events"] <= counters["sim_events"]
        assert counters["trace_records"] > 0
        assert counters["n_tasks"] == 200.0
        assert any(key.startswith("model.steal") for key in counters)
        assert any(key.startswith("network.") for key in counters)

    def test_counters_deterministic_across_runs(self, result):
        graph = synthetic_task_graph(200, 8, seed=3)
        machine = MACHINE_PRESETS["commodity"](8)
        again = make_model("work_stealing").run(graph, machine, seed=5)
        assert run_counters(again) == run_counters(result)


class TestSurface:
    """`bench/` is the one measuring instrument; `repro.perf` only counts."""

    def test_package_exports_only_run_counters(self):
        assert repro.perf.__all__ == ["run_counters"]

    def test_bench_command_is_gone_profile_stays(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2  # argparse: invalid choice
        capsys.readouterr()
        assert main(["profile", "quick", "--counters"]) == 0
        assert "hot-path counters" in capsys.readouterr().out


def _slug(heading: str) -> str:
    """GitHub's anchor for a heading: lower-case, punctuation dropped,
    each space a hyphen."""
    text = re.sub(r"[^\w\- ]", "", heading.strip().lower())
    return text.replace(" ", "-")


def _headings(path: Path) -> list[str]:
    body = re.sub(r"^```.*?^```", "", path.read_text(encoding="utf-8"), flags=re.M | re.S)
    return [m.group(1).strip() for m in re.finditer(r"^#{1,6} +(.+?) *$", body, re.M)]


class TestPointers:
    """Every path, link, anchor and quoted section title that prose or a
    source comment points at exists."""

    LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    PATH = re.compile(r"\b(benchmarks/results/[\w.\-]+\.txt|docs/[\w\-]+\.md)\b")
    SECTION = re.compile(r"\b(docs/[\w\-]+\.md),?\s+\"([^\"]+)\"")

    def test_doc_links_and_anchors_resolve(self):
        stale = []
        for doc in sorted((ROOT / "docs").glob("*.md")):
            for target in self.LINK.findall(doc.read_text(encoding="utf-8")):
                if re.match(r"[a-z][a-z0-9+.\-]*:", target):
                    continue  # http:, mailto:, ...
                rel, _, anchor = target.partition("#")
                dest = (doc.parent / rel).resolve() if rel else doc
                if not dest.exists():
                    stale.append(f"{doc.name}: {target} (no such file)")
                elif anchor and dest.suffix == ".md":
                    if anchor not in {_slug(h) for h in _headings(dest)}:
                        stale.append(f"{doc.name}: {target} (no such heading)")
        assert not stale, "\n".join(stale)

    def test_named_paths_and_sections_exist(self):
        stale = []
        sources = [ROOT / "README.md", ROOT / "EXPERIMENTS.md"]
        sources += sorted((ROOT / "docs").glob("*.md"))
        sources += sorted(p for p in (ROOT / "src").rglob("*") if p.suffix in (".py", ".c"))
        for source in sources:
            # Comment leaders go, so a pointer may wrap inside a comment.
            text = re.sub(
                r"^\s*(#:?|\*|//) ?", "", source.read_text(encoding="utf-8"), flags=re.M
            )
            where = source.relative_to(ROOT)
            for path in set(self.PATH.findall(text)):
                if not (ROOT / path).exists():
                    stale.append(f"{where}: {path}")
            for path, title in self.SECTION.findall(text):
                title = " ".join(title.split())
                if (ROOT / path).exists() and title not in _headings(ROOT / path):
                    stale.append(f'{where}: {path}, "{title}"')
        assert not stale, "\n".join(stale)
