"""Name of the arithmetic kernel: the pure-Python one in _kernels_py."""

# Kept because the benchmark imports this module and records BACKEND_NAME.
BACKEND_NAME = "py"
