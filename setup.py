"""Build hook for the optional compiled kernels.

The package is pure Python plus one Cython extension with the branch-and-bound
hot loops. Without Cython the committed C translation of _core.pyx
(_core.c) is compiled instead. If a C compiler is missing the build falls
back to the pure-Python kernels transparently (kneserturan.kernels selects at
import time), so the extension is best-effort: any build failure downgrades
to a plain py-only install instead of aborting.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


def _core(source: str) -> Extension:
    return Extension("kneserturan.kernels._core", sources=[source], extra_compile_args=["-O3"])


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        return [_core("src/kneserturan/kernels/_core.c")]
    return cythonize(
        [_core("src/kneserturan/kernels/_core.pyx")],
        compiler_directives={
            "language_level": 3,
            "boundscheck": False,
            "wraparound": False,
        },
    )


class OptionalBuildExt(build_ext):
    """Degrade to the pure-Python kernels when compilation fails."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"warning: compiled kernels skipped ({exc}); using pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: {ext.name} skipped ({exc}); using pure-Python fallback")


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})
