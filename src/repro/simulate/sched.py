"""Engine selection: the reference heap engine or the compiled core.

One behaviour, two engines, selected at runtime via ``REPRO_ENGINE``:

``python``
    The reference :class:`~repro.simulate.engine.Engine`: C ``heapq``
    over ``(time, seq, cb)`` tuples plus the zero-delay run-queue. Always
    available, and the readable statement of the dispatch order.

``compiled``
    :class:`CompiledEngine`: the run loop and the ``Process.resume``
    fast path execute inside a small C extension
    (``repro.simulate._engine_core``), removing the interpreter from the
    per-event path entirely. The extension is built on demand with the
    system C compiler and cached; when no compiler/headers are available
    the engine degrades to ``python`` with a one-time
    :class:`DegradedEngineWarning`.

``auto`` (default)
    ``compiled`` when the extension can be imported or quietly built,
    else ``python`` — silently, so environments without a toolchain
    behave exactly as before.

Both engines dispatch in exact ``(time, seq)`` order over the same heap
and run-queue, so simulations are bit-for-bit identical across modes
(pinned by ``tests/test_bitwise_equivalence.py`` run under each mode in
CI, and by a randomized property test in ``tests/simulate/test_sched.py``).

The engine mode is an execution-layer knob, like the executor choice: it
must never change results, so it is excluded from ``JobSpec.job_key()``
and result caching.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import math
import os
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from typing import Any

from repro.simulate.engine import (
    Engine,
    Process,
    Request,
    Resource,
    SimulationError,
    Timeout,
    _timeout_pool,
)
from repro.util import ConfigurationError

__all__ = [
    "ENGINE_MODES",
    "CompiledEngine",
    "DegradedEngineWarning",
    "compiled_available",
    "engine_mode",
    "make_engine",
    "set_engine_mode",
]

#: Recognized values of ``REPRO_ENGINE`` / ``JobSpec.engine``.
ENGINE_MODES = ("auto", "python", "compiled")


class DegradedEngineWarning(UserWarning):
    """``REPRO_ENGINE=compiled`` was requested but the compiled engine
    core is unavailable; execution degrades to the pure-Python engine
    (results are identical, only slower)."""


def engine_mode() -> str:
    """The engine mode requested by ``REPRO_ENGINE`` (default ``auto``)."""
    mode = os.environ.get("REPRO_ENGINE", "auto").strip().lower() or "auto"
    if mode not in ENGINE_MODES:
        raise ConfigurationError(
            f"REPRO_ENGINE={mode!r} is not a valid engine mode; "
            f"expected one of {', '.join(ENGINE_MODES)}"
        )
    return mode


def set_engine_mode(mode: str) -> str:
    """Select the engine mode process-wide; returns the previous mode.

    Writes ``REPRO_ENGINE`` so forked/spawned sweep workers inherit the
    choice — the engine is constructed inside the worker, not shipped to
    it.
    """
    if mode not in ENGINE_MODES:
        raise ConfigurationError(
            f"engine mode {mode!r} is not valid; "
            f"expected one of {', '.join(ENGINE_MODES)}"
        )
    previous = os.environ.get("REPRO_ENGINE", "auto") or "auto"
    os.environ["REPRO_ENGINE"] = mode
    return previous


def make_engine() -> Engine:
    """Construct an engine honoring the current ``REPRO_ENGINE`` mode."""
    mode = engine_mode()
    if mode == "python":
        return Engine()
    core = _load_engine_core()
    if core is not None:
        return CompiledEngine()
    if mode == "compiled":
        if os.environ.get("REPRO_ENGINE_REQUIRE", "").strip() == "1":
            raise ConfigurationError(
                "REPRO_ENGINE=compiled with REPRO_ENGINE_REQUIRE=1, but the "
                "compiled engine core is unavailable"
                + (f": {_last_build_error}" if _last_build_error else "")
            )
        _warn_degraded()
    return Engine()


_degraded_warned = False

#: Why the last compiled-core build/import attempt failed (compiler
#: stderr tail or a one-line diagnosis); surfaced in the degraded-engine
#: warning and the REPRO_ENGINE_REQUIRE error so CI failures are
#: actionable without rerunning the build by hand.
_last_build_error: str | None = None


def _note_build_error(message: str) -> None:
    global _last_build_error
    _last_build_error = message


def _warn_degraded() -> None:
    global _degraded_warned
    if _degraded_warned:
        return
    _degraded_warned = True
    detail = f" Build failure: {_last_build_error}" if _last_build_error else ""
    warnings.warn(
        "REPRO_ENGINE=compiled requested but the compiled engine core is "
        "unavailable (no C compiler/headers, or the build failed); "
        "falling back to the pure-Python engine. Results are identical."
        + detail,
        DegradedEngineWarning,
        stacklevel=3,
    )


# --------------------------------------------------------------------------
# Compiled engine core


class CompiledEngine(Engine):
    """:class:`Engine` whose run loop executes in ``_engine_core``.

    The data layout (heap, run-queue, seq counter, counters) is exactly
    the base engine's — only the loop and the ``Process.resume`` fast
    path move to C, so any Python-side scheduling (SimEvent.fire,
    Resource grants, nested ``call_now``) interleaves identically and
    the heap stays inspectable mid-run.
    """

    __slots__ = ()

    #: Networks built on this engine dispatch traced ops as ``_FusedOp``
    #: requests, which only the C core walks: no generator frame and no
    #: ``Timeout`` per delay. The reference engine interprets the same
    #: programs with the generators. Order-identical either way.
    drives_fused_ops = True

    def run(self, until: float = math.inf) -> float:
        core = _load_engine_core()
        if core is None:  # pickled/copied engine landing where the build fails
            return super().run(until)
        if core.run(self, until):
            return self.now  # stopped at the ``until`` horizon
        stuck = [p.name for p in self.blocked()]
        if stuck:
            raise SimulationError(
                f"deadlock at t={self.now:.6g}: processes still blocked: {stuck[:10]}"
                + ("..." if len(stuck) > 10 else "")
            )
        return self.now


_CORE_UNSET = object()
_core: Any = _CORE_UNSET


def compiled_available() -> bool:
    """True when the compiled engine core can be imported or built."""
    return _load_engine_core() is not None


def _load_engine_core():
    """Import (or build, then import) ``repro.simulate._engine_core``.

    Returns the initialized module, or None when unavailable. The result
    is cached for the life of the process; a failed build is not retried.
    """
    global _core
    if _core is not _CORE_UNSET:
        return _core
    _core = None
    try:
        module = _import_or_build()
        if module is not None:
            # Imported here, not at module scope: network.py pulls in the
            # cost-model machinery, which the engine-only users of this
            # module never need, and repro.runtime sits above this package.
            from repro.runtime.trace import TraceRecorder
            from repro.simulate.network import _FusedOp

            module.setup(
                Process,
                Timeout,
                Request,
                SimulationError,
                Resource,
                _timeout_pool,
                _FusedOp,
                TraceRecorder,
            )
            _core = module
    except Exception as exc:
        _note_build_error(f"{type(exc).__name__}: {exc}")
        _core = None
    return _core


def _import_or_build():
    # A pre-built extension (pip install with a toolchain, see setup.py)
    # takes precedence over the runtime-build cache.
    try:
        from repro.simulate import _engine_core  # type: ignore[attr-defined]

        return _engine_core
    except ImportError:
        pass
    source = os.path.join(os.path.dirname(__file__), "_engine_core.c")
    if not os.path.exists(source):
        return None
    cache_dir = os.environ.get("REPRO_ENGINE_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-engine"
    )
    path = _cache_path(source, cache_dir)
    may_build = os.environ.get("REPRO_ENGINE_BUILD", "1") != "0"
    if os.path.exists(path):
        try:
            return _load_extension(path)
        except ImportError:
            # Not loadable here (a truncated write, a cache directory
            # seeded by another machine): replace it rather than stay
            # degraded for as long as the file lives.
            if not may_build:
                raise
            os.unlink(path)
    if not may_build or not _build_extension(source, path, cache_dir):
        return None
    return _load_extension(path)


_BUILD_FLAGS = ("-O2", "-fPIC", "-shared", "-fvisibility=hidden")


def _cache_path(source: str, cache_dir: str) -> str:
    """Where the runtime-built core for this source, these compiler flags
    and this interpreter's ABI (version, debug/free-threaded build,
    platform, architecture) lives."""
    with open(source, "rb") as fh:
        digest = hashlib.sha256(fh.read() + "\0".join(_BUILD_FLAGS).encode())
    abi = sysconfig.get_config_var("SOABI") or sysconfig.get_config_var("EXT_SUFFIX")
    return os.path.join(
        cache_dir, f"_engine_core-{abi}-{digest.hexdigest()[:16]}.so"
    )


def _load_extension(path: str):
    loader = importlib.machinery.ExtensionFileLoader("repro.simulate._engine_core", path)
    spec = importlib.util.spec_from_file_location(
        "repro.simulate._engine_core", path, loader=loader
    )
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _build_extension(source: str, path: str, cache_dir: str) -> bool:
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        _note_build_error("no C compiler (cc/gcc/clang) on PATH")
        return False
    include = sysconfig.get_paths().get("include")
    if not include or not os.path.exists(os.path.join(include, "Python.h")):
        _note_build_error("Python.h not found (no CPython development headers)")
        return False
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
    os.close(fd)
    cmd = [compiler, *_BUILD_FLAGS, f"-I{include}", "-o", tmp, source]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120
        )
        if proc.returncode != 0:
            stderr = (proc.stderr or b"").decode("utf-8", "replace").strip()
            tail = "\n".join(stderr.splitlines()[-8:]) or "(no compiler output)"
            _note_build_error(f"{compiler} exited {proc.returncode}:\n{tail}")
            return False
        os.replace(tmp, path)  # atomic: concurrent builders race harmlessly
        return True
    except (OSError, subprocess.SubprocessError) as exc:
        _note_build_error(f"{type(exc).__name__}: {exc}")
        return False
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass
