from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    # Build the tracked generated C file instead.  The extension is
    # optional: without a compiler boxham.kernels falls back to the
    # pure-Python implementations at import time.
    ext_modules = [Extension("boxham._ckernels", ["src/boxham/_ckernels.c"], optional=True)]
else:
    ext_modules = cythonize(
        [Extension("boxham._ckernels", ["src/boxham/_ckernels.pyx"])],
        language_level=3,
    )

setup(ext_modules=ext_modules)
