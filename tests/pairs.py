"""Reading the pair masks of hitting.pair_masks by pair.

pair_masks returns its hits as one list in row-major pair order, and its
undecided times as a dict keyed by the same index: pair (i, j) of `rows`
opens by `width` targets is index i * width + j.
"""


def by_pair(masks, rows: int, width: int | None = None) -> dict:
    """{(i, j): mask at index i * width + j} over the pairs of `rows` opens
    by `width` targets (default: rows), in row-major order, for a hits list
    (which must have an entry for every pair) or an undecided dict (which
    keeps the pairs it has)."""
    width = rows if width is None else width
    if not isinstance(masks, dict):
        assert len(masks) == rows * width
        masks = dict(enumerate(masks))
    pairs = ((i, j) for i in range(rows) for j in range(width))
    return {(i, j): masks[i * width + j] for i, j in pairs if i * width + j in masks}
