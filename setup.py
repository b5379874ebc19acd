"""Legacy-path shim so ``pip install -e .`` works without the ``wheel``
package (PEP 660 editable installs need it; air-gapped environments often
lack it). All metadata lives in pyproject.toml.

When a C toolchain is present, the optional engine core
(``repro.simulate._engine_core``) is compiled at install time so
``REPRO_ENGINE=auto`` starts fast without a runtime build. The extension
is strictly optional: any build failure falls back to a pure-Python
install (the engine then builds the core lazily at runtime, or degrades
to the pure-Python loop — results are identical either way). The build
carries the source's sha256 as ``SOURCE_DIGEST``, so the engine ignores
it once the source is edited and builds the current one instead.
"""

import hashlib

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class _OptionalBuildExt(build_ext):
    """Build the engine core if possible; never fail the install."""

    def run(self):
        try:
            super().run()
        except Exception:
            pass

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception:
            pass


_CORE_SOURCE = "src/repro/simulate/_engine_core.c"
with open(_CORE_SOURCE, "rb") as _fh:
    _CORE_DIGEST = hashlib.sha256(_fh.read()).hexdigest()

setup(
    ext_modules=[
        Extension(
            "repro.simulate._engine_core",
            sources=[_CORE_SOURCE],
            define_macros=[("REPRO_SOURCE_DIGEST", f'"{_CORE_DIGEST}"')],
            optional=True,
        )
    ],
    cmdclass={"build_ext": _OptionalBuildExt},
)
