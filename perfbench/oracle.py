"""Expected outputs from the kernels' golden models.

Every run the benchmark makes is checked against the plain-Python
reference model that ships with its kernel in ``repro.kernels`` (the
``golden`` / ``golden_decode`` functions), which shares no code with
the compiler or the simulator.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.kernels import adpcm, crc32, dotp, fir, gcd, histogram, matmul, sort

__all__ = ["expected", "matches"]

#: (live-out values, final array contents) the run must produce
Expected = Tuple[Dict[str, int], Dict[str, List[int]]]


def expected(
    kernel: str, livein: Mapping[str, int], arrays: Mapping[str, Sequence[int]]
) -> Expected:
    """What ``kernel`` must return on these inputs.

    Arrays the kernel writes are compared in full: entries past the
    ``n`` the kernel was asked to process must keep their initial value.
    """
    n = livein.get("n")
    if kernel == "gcd":
        return {"a": gcd.golden(livein["a"], livein["b"])}, {}
    if kernel == "dotp":
        return {"acc": dotp.golden(arrays["xs"][:n], arrays["ys"][:n])}, {}
    if kernel == "crc32":
        return {"result": crc32.golden(arrays["data"][:n])}, {}
    if kernel == "sort":
        data = list(arrays["data"])
        return {}, {"data": sort.golden(data[:n]) + data[n:]}
    if kernel == "histogram":
        bins, clipped = histogram.golden(arrays["data"][:n], livein["nbins"])
        rest = list(arrays["bins"][len(bins):])
        return {"clipped": clipped}, {"bins": bins + rest}
    if kernel == "matmul":
        c = matmul.golden(arrays["a"], arrays["b"], n)
        return {}, {"c": c + list(arrays["c"][len(c):])}
    if kernel == "fir":
        ys = fir.golden(arrays["xs"], arrays["coeffs"][: livein["taps"]], n)
        return {}, {"ys": ys + list(arrays["ys"][len(ys):])}
    if kernel == "adpcm":
        out = adpcm.golden_decode(arrays["inp"], n, livein["gain"])
        return {}, {"outp": out + list(arrays["outp"][len(out):])}
    raise KeyError(f"no golden model for kernel {kernel!r}")


def matches(
    want: Expected, results: Mapping[str, int], heap: Mapping[str, Sequence[int]]
) -> bool:
    values, arrays = want
    return all(results.get(k) == v for k, v in values.items()) and all(
        list(heap.get(k, ())) == v for k, v in arrays.items()
    )
