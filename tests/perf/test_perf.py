"""The `repro.perf` layer (counters), the retired measuring commands, doc pointers."""

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

    def test_bench_and_profile_commands_are_gone(self, capsys):
        # `python3 bench/run.py` measures; `python -m cProfile -m repro
        # study ...` profiles; `repro.perf.run_counters` counts.
        for command in ("bench", "profile"):
            with pytest.raises(SystemExit) as exc:
                main([command])
            assert exc.value.code == 2  # argparse: invalid choice
        capsys.readouterr()


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

    IMPORT = re.compile(r"^\s*from (repro[\w.]*) import (\([^)]*\)|.*)$", re.M)
    API_NAME = re.compile(r"\bapi\.(?!py\b)([A-Za-z_]\w*)")  # not the file api.py

    def test_documented_names_resolve(self):
        """A doc cannot name a deleted symbol: every ``from repro... import``
        name and every ``api.<name>`` in README, DESIGN and docs/ exists."""
        import importlib

        from repro import api

        stale, checked = [], 0
        for doc in [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]:
            text = re.sub(r"#.*", "", doc.read_text(encoding="utf-8"))
            for module, names in self.IMPORT.findall(text):
                mod = importlib.import_module(module)
                for name in names.strip("()").replace("\n", " ").split(","):
                    name = name.split(" as ")[0].strip()
                    if name:
                        checked += 1
                        if not hasattr(mod, name):
                            stale.append(f"{doc.name}: from {module} import {name}")
            for name in set(self.API_NAME.findall(text)):
                checked += 1
                if not hasattr(api, name):
                    stale.append(f"{doc.name}: api.{name}")
        assert checked > 50
        assert not stale, "\n".join(stale)
