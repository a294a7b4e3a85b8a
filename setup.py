from setuptools import Extension, setup

# Optional: without a C compiler boxham.kernels runs on the pure kernels.
setup(ext_modules=[Extension("boxham._ckernels", ["src/boxham/_ckernels.c"], optional=True)])
