"""Reference for the columnar ``kbt analyze`` and ``kbt volume`` products.

The two functions below build the product text line by line, one (facet,
code) pair at a time, from the columns of a ``TunnelSweep``.  They apply the
record rules themselves: a pair shows its code's mode and error only where
it is removable, and its code's safety factor and its volume only where it
is sized, that is removable with no error.  They share no code with the
commands' object tables, which must write the same text byte for byte.
"""
from fuzzyblock.csv_io import csv_text


def _fmtnum(v: float) -> str:
    return repr(float(v))


def _pairs(sweep):
    """(facet position, facet, code position, code, removable, sized) in product order."""
    for f, facet in enumerate(sweep.facets):
        for c, code in enumerate(sweep.codes):
            removable = bool(sweep.removable[f, c])
            yield f, facet, c, code, removable, removable and sweep.error[c] is None


def analyze_text(sweep) -> str:
    rows = [
        (
            facet.index,
            code,
            str(sweep.classification[f, c]),
            sweep.mode_label[c] if removable else "",
            _fmtnum(sweep.safety_factor[c]) if sized else "",
            _fmtnum(sweep.volume[f, c]) if sized else "",
            _fmtnum(facet.angle_deg),
            int(sweep.boundary[f, c]),
            (sweep.error[c] or "") if removable else "",
        )
        for f, facet, c, code, removable, sized in _pairs(sweep)
    ]
    header = ("facet", "code", "class", "mode", "sf", "volume", "angle", "boundary", "error")
    return csv_text(header, rows)


def volume_text(sweep) -> str:
    rows = [
        (facet.index, code, _fmtnum(sweep.volume[f, c]))
        for f, facet, c, code, _, sized in _pairs(sweep)
        if sized
    ]
    return csv_text(("facet", "code", "volume"), rows)
