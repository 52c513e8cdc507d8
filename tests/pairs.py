"""Reading the pair masks of hitting.pair_masks by pair.

pair_masks returns each distinct mask once: a list of hit masks and a dict
of undecided times, each indexed by code, and one code a pair in an
array in row-major pair order: pair (i, j) of `rows` opens by `width`
targets is index i * width + j, and its masks are the entries of its code.
"""


def by_pair(masks, codes, rows: int, width: int | None = None) -> dict:
    """{(i, j): masks[codes[i * width + j]]} over the pairs of `rows` opens
    by `width` targets (default: rows), in row-major order, for a list of
    hit masks by code (which must have an entry for every code) or an
    undecided dict by code (which keeps the pairs whose code it has)."""
    width = rows if width is None else width
    assert len(codes) == rows * width
    if not isinstance(masks, dict):
        assert all(code < len(masks) for code in codes)
        masks = dict(enumerate(masks))
    pairs = ((i, j) for i in range(rows) for j in range(width))
    return {(i, j): masks[codes[i * width + j]] for i, j in pairs if codes[i * width + j] in masks}
