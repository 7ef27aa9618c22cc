"""Straight-line group laws for hot block layouts.

`compile_laws(blocks)` generates and compiles a (mul, inv) pair for one
layout of EA and LAMP blocks, the fixed-formula kinds (every kind but
MOD): functions of coordinate tuples, with one expression per output
coordinate, that give `_kernels_py.mul` and `inv`'s results on in-range
coordinates.  Twist terms read constant indices.  A shift by t reads
each lamp or layer window through one rotated copy, a slice
concatenation, so a shift coordinate outside [0, q) would rotate
differently from the kernel's `(j + t) % q`.
The source formats nothing but the ints of the block descriptors.
"""

from operator import index

from ._kernels_py import EA, LAMP


def _block(k, kind, p, n, q, off, width):
    """(mul statements, mul expressions, inv statements, inv expressions)
    for block k; the expressions give coordinates off..off+width-1."""
    end = off + width
    if kind == EA:
        # every coordinate adds; a twisted block's off + 1 also adds u * y,
        # read from the left factor's u = off and the right factor's y
        mul = [f"(a[{i}] + b[{i}]) % {p}" for i in range(off, end)]
        inv = [f"-a[{i}] % {p}" for i in range(off, end)]
        if n:
            i, u, y = off + 1, off, off + n
            mul[1] = f"(a[{i}] + b[{i}] + a[{u}] * b[{y}]) % {p}"
            inv[1] = f"(-a[{i}] + a[{u}] * a[{y}]) % {p}"
        return [], mul, [], inv
    if kind == LAMP:
        # rows 0..n-1 hold the layers and row n the lamps, each a window
        # of w coordinates from s; t{k} is the shift and w{k}_i row i
        # rotated by it, b's in mul with w[r] = b[s + (r + t) % w], a's
        # in inv with w[r] = a[s + (r - t) % w].  Row i (0 < i < n) adds
        # row i-1 times the lamp p^i + r further on.  A block without
        # lamps is Z/q alone and has no rows
        w = (width - 1) // (n + 1)
        t = f"t{k} = a[{end - 1}]"
        mul_lines, inv_lines, mul, inv = [t], [t], [], []
        for i in range(n + 1 if w else 0):
            s, e = off + i * w, off + (i + 1) * w
            mul_lines.append(f"w{k}_{i} = b[t{k} + {s}:{e}] + b[{s}:t{k} + {s}]")
            inv_lines.append(f"w{k}_{i} = a[{e} - t{k}:{e}] + a[{s}:{e} - t{k}]")
            for r in range(w):
                c = s + r
                if 0 < i < n:
                    y = f"w{k}_{n}[{(p ** i + r) % w}]"
                    mul.append(f"(a[{c}] + w{k}_{i}[{r}] + a[{c - w}] * {y}) % {p}")
                    inv.append(f"(-w{k}_{i}[{r}] + w{k}_{i - 1}[{r}] * {y}) % {p}")
                else:
                    mul.append(f"(a[{c}] + w{k}_{i}[{r}]) % {p}")
                    inv.append(f"-w{k}_{i}[{r}] % {p}")
        return (mul_lines, mul + [f"(t{k} + b[{end - 1}]) % {q}"],
                inv_lines, inv + [f"-t{k} % {q}"])
    raise ValueError(f"unknown block kind {kind}")


def _function(name, args, lines, out):
    body = "".join(f"    {line}\n" for line in lines)
    return f"def {name}({args}):\n{body}    return ({', '.join(out)},)\n"


def _source(blocks):
    """Source text of the layout's `mul(a, b)` and `inv(a)`."""
    mul_lines, inv_lines, mul_out, inv_out = [], [], [], []
    for k, block in enumerate(blocks):
        kind, p, n, q, off, width = map(index, block)
        mul, mul_exprs, inv, inv_exprs = _block(k, kind, p, n, q, off, width)
        mul_lines += mul
        inv_lines += inv
        for out, exprs in ((mul_out, mul_exprs), (inv_out, inv_exprs)):
            out += ["0"] * (off + width - len(out))
            out[off:off + width] = exprs
    return (_function("mul", "a, b", mul_lines, mul_out)
            + _function("inv", "a", inv_lines, inv_out))


def compile_laws(blocks):
    """(mul, inv) of the layout as compiled straight-line functions."""
    namespace = {}
    exec(compile(_source(blocks), "<pgog law>", "exec"), namespace)
    return namespace["mul"], namespace["inv"]
