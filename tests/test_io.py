"""The atomic artifact writer, the rule that every artifact goes through it,
and what a killed pipeline, CV fit or fit worker leaves behind."""

import ast
import json
import multiprocessing
import os
import signal
import stat
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
import yaml

import rarerisk
from rarerisk import boosting
from rarerisk._io import write_artifact
from rarerisk.boosting import BoostConfig
from rarerisk.dataset import SynthSpec, synthesize
from rarerisk.errors import ArtifactError
from rarerisk.pipeline import config_from_dict, run_pipeline, verify_manifest

from test_pipeline_cli import MINIMAL, artifact_digests

SRC = Path(rarerisk.__file__).parent


class TestWriteArtifact:
    def test_replaces_with_exact_bytes(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_bytes(b"old\n")
        with write_artifact(target) as fh:
            fh.write("a,b\r\nc\n")
        assert target.read_bytes() == b"a,b\r\nc\n"
        assert [f.name for f in tmp_path.iterdir()] == ["t.csv"]

    def test_failing_body_keeps_old_bytes(self, tmp_path):
        target = tmp_path / "t.json"
        target.write_bytes(b"old\n")
        with pytest.raises(ValueError):
            with write_artifact(target) as fh:
                fh.write("new, half written")
                raise ValueError("boom")
        assert target.read_bytes() == b"old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["t.json"]

    def test_directory_target_is_artifact_error(self, tmp_path):
        target = tmp_path / "d"
        target.mkdir()
        with pytest.raises(ArtifactError):
            with write_artifact(target) as fh:
                fh.write("x")
        assert target.is_dir()
        assert [f.name for f in tmp_path.iterdir()] == ["d"]

    def test_new_file_mode_follows_umask(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x", encoding="utf-8")
        made = tmp_path / "made.txt"
        with write_artifact(made) as fh:
            fh.write("x")
        assert stat.S_IMODE(made.stat().st_mode) == stat.S_IMODE(
            plain.stat().st_mode
        )


# ---------------------------------------------------------------------------
# Every artifact is written through _io.write_artifact.


def _file_writes(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, call) for each open() in a writing mode (or a mode that is
    not a literal) and each write_text/write_bytes call. os.open, which
    only creates the run lock, is not counted."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            found.append((node.lineno, func.attr))
            continue
        if isinstance(func, ast.Name) and func.id == "open":
            mode_index = 1
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "open"
            and not (isinstance(func.value, ast.Name) and func.value.id == "os")
        ):
            mode_index = 0  # Path.open(mode)
        else:
            continue
        mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
        if mode is None and len(node.args) > mode_index:
            mode = node.args[mode_index]
        if mode is None:
            continue
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            found.append((node.lineno, "open(<computed mode>)"))
        elif set(mode.value) & set("wax+"):
            found.append((node.lineno, f"open({mode.value!r})"))
    return found


def test_only_io_module_writes_files():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        writes = _file_writes(ast.parse(path.read_text("utf-8"), str(path)))
        if path.name == "_io.py":
            # The guard must see the one sanctioned write.
            assert [call for _, call in writes] == ["open('w')"]
        else:
            offenders += [f"{path.name}:{line} {call}" for line, call in writes]
    assert offenders == [], offenders


# ---------------------------------------------------------------------------
# A pipeline killed mid-stage


def _kill_config(out_dir: Path) -> dict:
    doc = json.loads(json.dumps(MINIMAL))
    # A search of a few seconds: the kill lands after model.json is written
    # (boost stage) and before manifest.json is (end of the run).
    doc["ga"].update(pop_size=400, generations=1000)
    doc["output_dir"] = str(out_dir)
    return doc


@pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")
def test_sigkill_leaves_no_truncated_artifact(tmp_path):
    killed = tmp_path / "killed"
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(_kill_config(killed)), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    argv = ["-m", "rarerisk.cli", "pipeline", "--config", str(config)]
    child = subprocess.Popen(
        [sys.executable] + argv,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while not (killed / "model.json").exists():
            assert child.poll() is None, "pipeline ended before model.json"
            assert time.monotonic() < deadline, "model.json never appeared"
            time.sleep(0.005)
    finally:
        child.kill()  # SIGKILL
        child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL
    assert (killed / "model.json").exists()
    assert not (killed / "manifest.json").exists()

    fresh_cfg = config_from_dict(_kill_config(tmp_path / "fresh"))
    run_pipeline(fresh_cfg)
    fresh = fresh_cfg.output_dir
    left = [
        f.name
        for f in killed.iterdir()
        if f.name != ".lock" and not f.name.endswith(".tmp")
    ]
    assert "model.json" in left
    for name in left:
        assert (killed / name).read_bytes() == (fresh / name).read_bytes(), name

    # The dead run's lock is taken over, and the rerun completes.
    with pytest.warns(RuntimeWarning, match="stale lock"):
        run_pipeline(config_from_dict(_kill_config(killed)))
    assert artifact_digests(killed) == artifact_digests(fresh)
    assert not [f.name for f in killed.iterdir() if f.name.endswith(".tmp")]
    assert not (killed / ".lock").exists()
    assert verify_manifest(killed)["ok"]


# ---------------------------------------------------------------------------
# A CV fit killed while its folds run in worker processes

# Module-level code with no __main__ guard, as in a plain script; the fit
# takes a few seconds.
_CV_FIT = """
from rarerisk.boosting import BoostConfig, fit_boost_cv
from rarerisk.dataset import SynthSpec, synthesize

ds = synthesize(SynthSpec(n=3000, p=8, base_rate=0.2, effects=(1.0,) * 8,
                          predictor_on_rates=(0.5,) * 8, seed=1))
fit_boost_cv(ds, BoostConfig(interaction_depth=4, max_trees=400, cv_folds=2))
"""


def _running(pid: str) -> bool:
    try:
        fields = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return fields.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_sigkill_leaves_no_orphan_worker():
    workers = min(3, len(os.sched_getaffinity(0)))  # 2 folds + the refit
    if workers < 2:
        pytest.skip("one usable CPU: the folds run in-process")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    child = subprocess.Popen([sys.executable, "-c", _CV_FIT], env=env)
    children = Path(f"/proc/{child.pid}/task/{child.pid}/children")
    pids: list[str] = []
    try:
        deadline = time.monotonic() + 60
        while len(pids) < workers:
            assert child.poll() is None, "the fit ended before its workers started"
            assert time.monotonic() < deadline, "the workers never started"
            time.sleep(0.01)
            pids = children.read_text().split()
    finally:
        child.kill()  # SIGKILL
        child.wait(timeout=60)
    deadline = time.monotonic() + 5
    alive = pids
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if _running(pid)]
    for pid in alive:  # do not leave them behind when the check fails
        os.kill(int(pid), signal.SIGKILL)
    assert alive == [], "workers outlived their killed parent"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_killed_worker_fails_the_fit_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(boosting, "_workers", lambda n: 2)
    ds = synthesize(SynthSpec(n=3000, p=8, base_rate=0.2, effects=(1.0,) * 8,
                              predictor_on_rates=(0.5,) * 8, seed=1))
    children = Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
    before = set(children.read_text().split())

    def kill_a_worker():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            workers = set(children.read_text().split()) - before
            if workers:
                os.kill(int(min(workers)), signal.SIGKILL)
                return
            time.sleep(0.01)

    killer = threading.Thread(target=kill_a_worker)
    killer.start()
    with pytest.raises(BrokenProcessPool):
        boosting.fit_boost_cv(ds, BoostConfig(interaction_depth=4, max_trees=400, cv_folds=2))
    killer.join(timeout=60)
    assert not killer.is_alive()
    assert multiprocessing.active_children() == []
