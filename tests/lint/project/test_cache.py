"""ProjectCache: keying, tolerance, invalidation digests."""

import json

import pytest

from repro.lint.project.cache import CACHE_VERSION, ProjectCache, content_hash
from repro.lint.project.graph import ModuleGraph
from repro.lint.project.symbols import ModuleSummary
from tests.lint.project.projutil import run_rules, write_project


def test_summary_roundtrip(tmp_path):
    path = tmp_path / "cache.json"
    cache = ProjectCache(path)
    sha = content_hash(b"x = 1\n")
    cache.store_summary("src/a.py", sha, {"module": "a"})
    cache.save()

    loaded = ProjectCache.load(path)
    assert loaded.summary_for("src/a.py", sha) == {"module": "a"}
    # A different content hash is a miss, never a stale hit.
    assert loaded.summary_for("src/a.py", content_hash(b"x = 2\n")) is None


def test_missing_and_corrupt_files_load_empty(tmp_path):
    assert ProjectCache.load(tmp_path / "nope.json").summaries == {}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert ProjectCache.load(bad).summaries == {}


def test_version_mismatch_discards(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(
        json.dumps(
            {
                "version": CACHE_VERSION + 1,
                "summaries": {"a.py": {"sha": "x", "summary": {}}},
                "envs": {},
            }
        ),
        encoding="utf-8",
    )
    assert ProjectCache.load(path).summaries == {}


def test_version_4_cache_with_flow_facts_is_rebuilt(tmp_path):
    # Version-4 summaries still carry the dropped `flow` key, which
    # ModuleSummary(**data) rejects: the whole file must be discarded
    # and every summary recomputed, never deserialised.
    write_project(
        tmp_path,
        {"src/repro/net/__init__.py": "", "src/repro/net/mod.py": "X = 1\n"},
    )
    run_rules(tmp_path, ["layer-cycle"], use_cache=True)
    cache_file = tmp_path / ".cache.json"
    data = json.loads(cache_file.read_text(encoding="utf-8"))
    assert data["version"] == CACHE_VERSION
    data["version"] = 4
    for entry in data["summaries"].values():
        entry["summary"]["flow"] = {"locks": {"LOCK": {"kind": "Lock"}}}
    cache_file.write_text(json.dumps(data), encoding="utf-8")
    stale = next(iter(data["summaries"].values()))["summary"]
    with pytest.raises(TypeError):
        ModuleSummary.from_dict(stale)

    assert ProjectCache.load(cache_file).summaries == {}
    _f, _s, stats = run_rules(tmp_path, ["layer-cycle"], use_cache=True)
    assert stats.cache_hits == 0
    assert stats.parsed == stats.files == 2


def test_prune_drops_dead_entries(tmp_path):
    cache = ProjectCache(tmp_path / "cache.json")
    cache.store_summary("a.py", "s1", {})
    cache.store_summary("gone.py", "s2", {})
    cache.store_env("mod.a", "d1", {})
    cache.store_env("mod.gone", "d2", {})
    cache.prune({"a.py"}, {"mod.a"})
    assert set(cache.summaries) == {"a.py"}
    assert set(cache.envs) == {"mod.a"}


def test_closure_digest_changes_when_a_dependency_changes():
    graph = ModuleGraph({"phy": {"frames"}, "frames": {"constants"}, "constants": set()})
    sha_before = {"phy": "p1", "frames": "f1", "constants": "c1"}
    sha_after = dict(sha_before, constants="c2")

    digest_before = ProjectCache.closure_digest("phy", graph, sha_before)
    digest_after = ProjectCache.closure_digest("phy", graph, sha_after)
    assert digest_before != digest_after

    # Unrelated modules keep their digest.
    lone = ModuleGraph({"other": set()})
    assert ProjectCache.closure_digest(
        "other", lone, {"other": "o1"}
    ) == ProjectCache.closure_digest("other", lone, {"other": "o1", "junk": "zz"})


def test_env_keyed_on_digest():
    cache = ProjectCache(None)
    cache.store_env("m", "digest-1", {"X": 1})
    assert cache.env_for("m", "digest-1") == {"X": 1}
    assert cache.env_for("m", "digest-2") is None


def test_save_without_path_is_a_noop():
    ProjectCache(None).save()
