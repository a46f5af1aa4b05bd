"""Losses and hits of class-major logits, bit for bit what numpy's row
reductions of the same logits give.

The evaluation kernel writes each batch's logits, those of S stacked
networks, into a (classes, S, N) block, where a last dense layer's product
lands directly, and scores the block here. Every step is one numpy call
over whole (S, N) class blocks instead of a reduction over rows of
`classes` values: the row max, the argmax as the highest rank among the
classes that reach it, and the class sum of the exponentials in numpy's
own pairwise row-sum order (_sum_steps).
"""

from __future__ import annotations

import math

import numpy as np


def _score_pass(by_class: np.ndarray, at_labels: np.ndarray, ranks: np.ndarray,
                hits: np.ndarray, scratch: dict | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    # Scores of one batch in `by_class`, a C-contiguous (classes, S, N)
    # array holding the logits of S stacked networks class-major: the sum
    # of the stable log-softmax at each sample's label, as (S,) into `out`
    # if given, and whether each sample's argmax is its label, into `hits`
    # (S, N), a bool array. Minus the sum over N is the batch's mean loss,
    # bit for bit what a full log-softmax gives. The labels come as
    # _label_layout gives them. Every step is elementwise over whole (S, N)
    # class blocks instead of a reduction of short rows: the max (exact in
    # any order), the argmax, and the class sum in numpy's row-sum order
    # (_sum_steps), which leaves `by_class` overwritten. The temporaries,
    # the views used here and the class sum's adds are made once per array
    # and kept in `scratch` if given.
    scratch = {} if scratch is None else scratch
    c, s, n = by_class.shape
    out = np.empty(s) if out is None else out
    kept = scratch.get(("score", by_class.shape))
    if kept is None or kept[0] is not by_class:
        # the row max is done with once the class sum starts, so its memory takes the sum
        m, picked = np.empty((2, s, n))
        kept = scratch["score", by_class.shape] = (
            by_class, by_class.reshape(-1), m, np.empty((c, s, n), ranks.dtype),
            np.empty((s, n), ranks.dtype), np.arange(c, 0, -1, dtype=ranks.dtype)[:, None, None],
            (np.arange(s) * n)[:, None], np.empty((s, n), np.intp), picked, _sum_steps(by_class, m))
    flat, m, marks, first, rank_of_class, member_offsets, at, picked, sum_steps = kept[1:]
    np.maximum.reduce(by_class, axis=0, out=m)
    # argmax is the first class whose entry equals the row max or, in a row
    # holding NaN, whose max is NaN, the first NaN entry: of the classes so
    # marked, the one of the highest rank, classes - class. The maxima sum
    # to NaN when one of them is NaN (or when they hold both infinities,
    # which marks nothing more).
    np.equal(by_class, m, out=marks)
    if math.isnan(np.add.reduce(m, axis=None)):
        marks |= np.isnan(by_class)
    marks *= rank_of_class
    np.equal(np.maximum.reduce(marks, axis=0, out=first), ranks, out=hits)
    # z = logits - max, in place; each label's z is picked before the
    # exponentials overwrite it. mode="clip" picks the same entries (every
    # index is in range) without the buffering that out= costs under
    # mode="raise".
    np.subtract(by_class, m, out=by_class)
    flat.take(np.add(at_labels, member_offsets, out=at), mode="clip", out=picked)
    np.exp(by_class, out=by_class)
    for a, b, into in sum_steps:
        np.add(a, b, out=into)
    np.log(m, out=m)
    picked -= m
    return np.add.reduce(picked, axis=1, out=out)


def _label_layout(labels: np.ndarray, width: int, classes: int,
                  members: int) -> tuple[np.ndarray, np.ndarray]:
    # What _score_pass takes of checked labels, for all batches of `width`
    # samples (the last may be shorter) at once: each sample's flat index
    # into its batch's (classes, members, N) logits at the first member,
    # label * members * N + sample, and its label's rank, classes - label,
    # in the smallest unsigned type that holds the classes. The full
    # batches are one (batches, width) block of indices.
    n = labels.size
    last = (n - 1) // width * width   # the last batch's first sample
    at = np.multiply(labels, members * width)
    full = at[:last].reshape(-1, width)
    full += np.arange(width)
    tail = np.multiply(labels[last:], members * (n - last), out=at[last:])
    tail += np.arange(n - last)
    return at, (classes - labels).astype(np.min_scalar_type(classes))


def _sum_steps(e: np.ndarray, out: np.ndarray) -> list[tuple]:
    # The elementwise adds, as (a, b, out) views, that sum `e` over its
    # first, class axis into `out`, bit for bit np.add.reduce(axis=-1) over
    # rows holding the classes last: numpy's pairwise row sum, built from
    # adds of whole class blocks, which are contiguous in a C-contiguous
    # `e`. Below 8 classes it adds them in order, from -0.0. Up to 128 it
    # keeps 8 accumulators, class j and every 8th after it added in order,
    # combines them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and
    # adds the leftover classes in order. Above 128 it sums two halves, the
    # first's length rounded down to a multiple of 8. numpy then adds each
    # row's sum to +0.0, which turns a -0.0 sum into +0.0 and is left out
    # here: a sum of exponentials is never -0.0. The accumulators and the
    # partial sums are kept in `e`'s own blocks, so the adds overwrite it.
    # test_class_sum_follows_numpys_row_sum_order fails if numpy changes
    # this order.
    c = e.shape[0]
    if c < 8:
        return [(e[0], -0.0, out), *((out, e[k], out) for k in range(1, c))]
    if c > 128:
        half = c // 2 - c // 2 % 8
        return [*_sum_steps(e[:half], out), *_sum_steps(e[half:], e[half]), (out, e[half], out)]
    whole = c - c % 8
    return [*((e[:8], e[i:i + 8], e[:8]) for i in range(8, whole, 8)),
            *((e[k], e[k + 1], e[k]) for k in (0, 2, 4, 6)), (e[0], e[2], e[0]), (e[4], e[6], e[4]),
            (e[0], e[4], out), *((out, e[k], out) for k in range(whole, c))]
