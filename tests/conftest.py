"""Shared reference implementations and corpus builders for the tests.

The span oracles here are deliberately written in a different style from the
library kernels (per-token membership decisions instead of a running
open-span state) so that agreement between the two is meaningful.
"""

from __future__ import annotations

import importlib.util
import os
import random
import shlex
import shutil
import signal
import subprocess
import sys
import sysconfig
import threading
from functools import partial
from pathlib import Path

import pytest

from piiprep import workers

REPO = Path(__file__).resolve().parent.parent


def bio_spans_oracle(labels: list[str]) -> list[tuple[int, int, str]]:
    """Reference span extraction via per-token start/continue decisions."""
    marks: list[tuple[int, str, bool]] = []
    for i, lab in enumerate(labels):
        if lab == "O":
            continue
        prefix, typ = lab.split("-", 1)
        prev = labels[i - 1] if i else "O"
        if prefix == "B" or prev == "O":
            opens = True
        else:
            opens = prev.split("-", 1)[1] != typ
        marks.append((i, typ, opens))
    spans: list[list] = []
    for i, typ, opens in marks:
        if opens:
            spans.append([i, i + 1, typ])
        else:
            spans[-1][1] = i + 1
    return [(s, e, t) for s, e, t in spans]


def orphan_oracle(labels: list[str]) -> int:
    """Reference orphan count: I-X not directly after B-X or I-X."""
    count = 0
    for i, lab in enumerate(labels):
        if not lab.startswith("I-"):
            continue
        typ = lab[2:]
        prev = labels[i - 1] if i else "O"
        if prev != "B-" + typ and prev != "I-" + typ:
            count += 1
    return count


def score_corpus_oracle(
    gold: list[list[str]], pred: list[list[str]]
) -> dict[str, list[int]]:
    """Reference whole-corpus counters {type: [tp, pred, gold]}, non-streaming."""
    counts: dict[str, list[int]] = {}

    def bucket(t: str) -> list[int]:
        return counts.setdefault(t, [0, 0, 0])

    for g_labels, p_labels in zip(gold, pred):
        g_spans = bio_spans_oracle(g_labels)
        p_spans = bio_spans_oracle(p_labels)
        for _, _, t in g_spans:
            bucket(t)[2] += 1
        g_set = set(g_spans)
        for span in p_spans:
            b = bucket(span[2])
            b[1] += 1
            if span in g_set:
                b[0] += 1
    return counts


def random_bio_labels(
    rng: random.Random,
    types: list[str],
    length: int,
    orphan_rate: float = 0.15,
) -> list[str]:
    """A label sequence with plenty of adjacent spans and stray I- tokens."""
    labels = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.4:
            labels.append("O")
        elif roll < 0.4 + orphan_rate:
            labels.append("I-" + rng.choice(types))
        else:
            labels.append("B-" + rng.choice(types))
    return labels


@pytest.fixture
def canonical_space():
    from piiprep.fixtures import canonical_space as _cs

    return _cs()


def _c_toolchain_missing() -> str | None:
    """Why the compiled span kernel cannot be built here, or None if it can."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        return f"no C compiler on PATH ({cc})"
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        return f"no Python.h under {include}"
    return None


_TOOLCHAIN_MISSING = _c_toolchain_missing()
needs_c_build = pytest.mark.skipif(
    _TOOLCHAIN_MISSING is not None, reason=_TOOLCHAIN_MISSING or ""
)

# Parametrisation for the kernel-agreement suites; the ``kernel`` fixture
# resolves each id to a module.
KERNELS = [pytest.param("python"), pytest.param("cython", marks=needs_c_build)]


@pytest.fixture(scope="session")
def speedups_build(tmp_path_factory) -> Path:
    """Build the compiled span kernel once per session, outside the source tree.

    Runs the project's own ``setup.py build_ext`` into a temporary directory
    and returns its build-lib directory, so the extension lands in
    ``<lib>/piiprep/`` and never in ``src/``.
    """
    root = tmp_path_factory.mktemp("speedups_build")
    lib = root / "lib"
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(lib), "--build-temp", str(root / "temp")],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return lib


@pytest.fixture(scope="session")
def speedups(speedups_build):
    """The compiled kernel from the session build.

    It is loaded from its file and kept out of ``sys.modules``, so biospan's
    own kernel choice in this process does not depend on the build.
    """
    built = sorted(speedups_build.glob("piiprep/_speedups*.so"))
    assert built, f"build produced no piiprep/_speedups*.so under {speedups_build}"
    spec = importlib.util.spec_from_file_location("piiprep._speedups", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def kernel(request):
    """Span kernel module for a ``KERNELS`` id: 'python' or 'cython'."""
    if request.param == "cython":
        return request.getfixturevalue("speedups")
    from piiprep import _purespans

    return _purespans


def bounded(fn, seconds: float = 120):
    """fn() run in a thread joined with a timeout: its value, or its exception.

    A call that hangs fails the test instead of the whole run.
    """
    box: dict = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as e:  # handed back to the test thread
            box["error"] = e

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"no result after {seconds} s"
    if "error" in box:
        # Popped, so that no cycle keeps the traceback's open files alive.
        raise box.pop("error")
    return box["value"]


class Workers:
    """Records every worker piiprep.workers forks, optionally killing each as it starts.

    Patch workers._fork with its fork. A worker to be killed sends itself
    SIGKILL before its task runs, so it can never finish first.
    """

    def __init__(self, kill: bool = False):
        self.started: list[workers.Worker] = []
        real = workers._fork

        def killed(task, file):
            os.kill(os.getpid(), signal.SIGKILL)
            task(file)

        def fork(task, file):
            worker = real(partial(killed, task) if kill else task, file)
            self.started.append(worker)
            return worker

        self.fork = fork

    def assert_reaped(self) -> None:
        for worker in self.started:
            assert worker.status is not None, f"worker {worker.pid} was not waited for"
            with pytest.raises(ProcessLookupError):
                os.kill(worker.pid, 0)
