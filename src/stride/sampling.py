"""Representativeness machinery: distributions, divergence, sample selection.

Records carry a flat map of criterion values.  Categorical criteria
(strings and booleans) are counted directly; numeric criteria are
quantile-binned against population-wide breakpoints; list-valued
criteria are counted per mention.  Distributions over the same category
list are compared with the Jensen-Shannon divergence in base 2, which
lives in [0, 1].

Each call reads and bins a criterion's column once, then works on the
records' category indices.  Numeric breakpoints are the inclusive
quantiles, computed by the stdlib's own steps without importing
``statistics``.

The saturation curve draws positions in that index list, so its draws
are those of drawing the records.  It draws them itself and makes
exactly the draws of ``random.Random(seed).sample`` per size, so the
algorithm is pinned here: a change to the stdlib's ``sample`` cannot
silently move a curve.
The generator's 32-bit outputs come in batches, each cut from one big
integer and shifted to the draw's bit width in bulk, so the Python loop
per output is one comparison; a batch is never longer than the draws
still missing, so no output is read that ``sample`` would not read.
A last size equal to the population is not drawn: that sample is the
population, so its point is ``0.0``, and no later size reads the
generator.

The swap search codes each record's categories on a criterion as one
small int, keeps each criterion's divergence terms until a swap changes
its counts, and stops a trial once its partial sum can no longer
improve, so its result is that of trying every swap in full.

Everything here is a pure function of its inputs plus, where sampling
is involved, a caller-supplied seed.  Two calls with the same arguments
return the same result.  That is why a seed must be an int:
``random.Random`` hashes a float seed, and a NaN hashes by identity.
``bins`` must be an int of at most ``_MAX_BINS``, checked before any
quantile is taken, since the quantiles take one step per bin.
"""

from __future__ import annotations

import bisect
import math
import random
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

from .errors import ComputationError, SchemaError, _is_finite, _shown

DEFAULT_BINS = 10

# The most bins a call may ask for.  The quantiles take one
# step per bin, and the curve and the swap search keep lists as long.
_MAX_BINS = 1000

# Swap-search improvements smaller than this are treated as float noise.
_IMPROVEMENT_EPS = 1e-12

# Generator outputs read per getrandbits call by _word_stream, at the least.
_CHUNK_WORDS = 1024

# _word_stream hands out each output as one array item.
if array("I").itemsize != 4:
    raise ImportError("stride.sampling needs array('I') items of 4 bytes")


@dataclass(frozen=True)
class PopulationRecord:
    """One population member and its criterion values."""

    record_id: str
    criteria: Mapping[str, object]


@dataclass(frozen=True)
class Distribution:
    """Relative frequencies of one criterion over an ordered category list."""

    criterion: str
    categories: tuple[str, ...]
    probabilities: tuple[float, ...]


@dataclass(frozen=True)
class SaturationPoint:
    """Sample-size-to-divergence observation on a saturation curve."""

    sample_size: int
    divergence: float


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of greedy representative-sample selection."""

    record_ids: tuple[str, ...]
    deviation: float
    initial_deviation: float
    swaps_applied: int
    criteria: tuple[str, ...]


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Binning:
    kind: str  # "categorical" | "numeric" | "multilabel"
    categories: tuple[str, ...]
    breakpoints: tuple[float, ...] = ()

    @cached_property
    def positions(self) -> dict[str, int]:
        """Label -> category index, for the categorical and multilabel lookups."""
        return {label: i for i, label in enumerate(self.categories)}


def _bool_label(value: bool) -> str:
    return "true" if value else "false"


def _column(records: Sequence[PopulationRecord], criterion: str) -> list[object]:
    """``criterion``'s value in every record, refusing the first record without one."""
    try:
        return [record.criteria[criterion] for record in records]
    except KeyError:
        missing = next(record for record in records if criterion not in record.criteria)
        raise SchemaError(f"record {missing.record_id!r}: missing criterion {criterion!r}") from None


def _kind(value_type: type) -> str | None:
    if issubclass(value_type, (bool, str)):
        return "categorical"
    if issubclass(value_type, (int, float)):
        return "numeric"
    if issubclass(value_type, (list, tuple, set, frozenset)):
        return "multilabel"
    return None  # unsupported


def _bin_column(records: Sequence[PopulationRecord], criterion: str, bins: int) -> tuple[_Binning, list]:
    """``criterion``'s binning over ``records`` and each record's category index, from one read of the values.

    An index is an int for categorical and numeric criteria and a tuple,
    one index per mention, for multilabel ones.
    """
    if not _is_int(bins):
        raise SchemaError(f"bins must be an integer, got {bins!r}")
    if bins > _MAX_BINS:
        raise SchemaError(f"bins must be at most {_MAX_BINS}")
    if not records:
        raise SchemaError("population is empty")
    values = _column(records, criterion)
    kinds = {value_type: _kind(value_type) for value_type in set(map(type, values))}
    if None in kinds.values():
        first = next(value for value in values if kinds[type(value)] is None)
        raise SchemaError(f"criterion {criterion!r}: unsupported value type {type(first).__name__}")
    if len(set(kinds.values())) != 1:
        raise SchemaError(f"criterion {criterion!r}: mixed value types {sorted(set(kinds.values()))}")
    kind = next(iter(kinds.values()))

    if kind == "categorical":
        labels = {_bool_label(v) if isinstance(v, bool) else v for v in set(values)}
        binning = _Binning("categorical", tuple(sorted(labels)))
    elif kind == "multilabel":
        try:
            labels = set(chain.from_iterable(values))
        except TypeError:  # an unhashable element, so not a string
            labels = None
        if labels is None or not all(isinstance(label, str) for label in labels):
            raise SchemaError(f"criterion {criterion!r}: list values must contain strings")
        if not labels:
            raise SchemaError(f"criterion {criterion!r}: no labels to count")
        binning = _Binning("multilabel", tuple(sorted(labels)))
    else:
        if bins < 2:
            raise SchemaError(f"criterion {criterion!r}: numeric binning needs at least 2 bins")
        try:  # the indices are bisected from this list, the one the quantiles come from
            values = list(map(float, values))
        except OverflowError:  # an integer too large for a float
            values = [math.inf]
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"criterion {criterion!r}: numeric values must be finite (no NaN or infinity)")
        breakpoints = _inclusive_quantiles(values, bins) if len(values) >= 2 else ()
        width = len(str(len(breakpoints) + 1))
        categories = tuple(f"bin{i + 1:0{width}d}" for i in range(len(breakpoints) + 1))
        binning = _Binning("numeric", categories, breakpoints)
    return binning, _indices(values, criterion, binning)


def _inclusive_quantiles(values: Sequence[float], n: int) -> tuple[float, ...]:
    """``statistics.quantiles(values, n=n, method="inclusive")`` for two values or more.

    The stdlib's steps, the same from Python 3.10 to 3.13, so the cut
    points are the same floats, without importing ``statistics``, which
    takes longer than most calls here.
    """
    data = sorted(values)
    m = len(data) - 1
    cuts = []
    for i in range(1, n):
        j, delta = divmod(i * m, n)
        cuts.append((data[j] * (n - delta) + data[j + 1] * delta) / n)
    return tuple(cuts)


def _indices(values: Sequence[object], criterion: str, binning: _Binning) -> list:
    """Each value's category index under ``binning``, as :func:`_bin_column` returns them."""
    if binning.kind == "numeric":
        return list(map(bisect.bisect_right, repeat(binning.breakpoints), map(float, values)))
    if binning.kind == "multilabel":
        return [tuple(_label_indices(value, criterion, binning)) for value in values]
    return _label_indices((_bool_label(v) if isinstance(v, bool) else v for v in values), criterion, binning)


def _check_sample(values: Sequence[object], criterion: str, binning: _Binning) -> None:
    """Refuse the first sample value that the population's binning would misread.

    Categorical values are looked up by label, which refuses any value
    that is not one.  Numeric values are converted and multilabel ones
    iterated, so there a value of another kind, or a non-finite number,
    is refused here.
    """
    if binning.kind == "categorical":
        return
    for value in values:
        if _kind(type(value)) != binning.kind:
            raise SchemaError(f"criterion {criterion!r}: sample value {value!r} is not {binning.kind}")
        if binning.kind == "numeric" and not _is_finite(value):
            raise SchemaError(f"criterion {criterion!r}: sample value {value!r} is not finite")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _label_indices(labels: Iterable[object], criterion: str, binning: _Binning) -> list[int]:
    positions = binning.positions
    indices = []
    for label in labels:
        try:
            indices.append(positions[label])
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise SchemaError(f"criterion {criterion!r}: label {label!r} outside the population") from None
    return indices


def _counts(indices: Iterable, binning: _Binning) -> list[int]:
    """Per-category counts of ``indices``, as :func:`_bin_column` returns them."""
    tally = Counter(chain.from_iterable(indices) if binning.kind == "multilabel" else indices)
    return [tally.get(index, 0) for index in range(len(binning.categories))]


def _total(counts: Sequence[int], criterion: str) -> int:
    """The sum of ``counts``, refusing a zero sum, which has no distribution."""
    total = sum(counts)
    if total == 0:
        raise SchemaError(f"criterion {criterion!r}: no values to count")
    return total


def _distribution_of(indices: Sequence, criterion: str, binning: _Binning) -> Distribution:
    counts = _counts(indices, binning)
    total = _total(counts, criterion)
    return Distribution(criterion, binning.categories, tuple(c / total for c in counts))


def categorical_distribution(
    records: Sequence[PopulationRecord], criterion: str, bins: int = DEFAULT_BINS
) -> Distribution:
    """Distribution of ``criterion`` over ``records``.

    Numeric criteria are quantile-binned into ``bins`` categories using
    breakpoints computed from ``records`` themselves.
    """
    binning, indices = _bin_column(records, criterion, bins)
    return _distribution_of(indices, criterion, binning)


# ---------------------------------------------------------------------------
# Divergence
# ---------------------------------------------------------------------------


# How far a distribution's probabilities may sum from 1.
_SUM_TOLERANCE = 1e-9


def _label_map(dist: Distribution) -> dict[str, float]:
    """``dist``'s probabilities by label, refusing a distribution that is not one."""
    criterion = dist.criterion
    if len(set(dist.categories)) != len(dist.categories):
        raise SchemaError(f"criterion {criterion!r}: duplicate category labels")
    if len(dist.probabilities) != len(dist.categories):
        raise SchemaError(
            f"criterion {criterion!r}: {len(dist.probabilities)} probabilities for {len(dist.categories)} categories"
        )
    total = 0.0
    for probability in dist.probabilities:
        if isinstance(probability, bool) or not isinstance(probability, (int, float)):
            raise SchemaError(f"criterion {criterion!r}: probabilities must be real numbers, got {probability!r}")
        if not _is_finite(probability) or probability < 0:
            raise SchemaError(f"criterion {criterion!r}: probabilities must be finite and >= 0, got {probability!r}")
        total += probability  # a left-to-right fold from 0.0, not sum(), as elsewhere here
    if not abs(total - 1.0) <= _SUM_TOLERANCE:
        raise SchemaError(f"criterion {criterion!r}: probabilities must sum to 1, got {total!r}")
    return dict(zip(dist.categories, dist.probabilities))


def _jsd_terms(p_i: float, q_i: float) -> float:
    # Accumulate the smaller term first so the addition sequence does not
    # depend on argument order; swapping P and Q then yields the same bits.
    mid = 0.5 * (p_i + q_i)
    low, high = (p_i, q_i) if p_i <= q_i else (q_i, p_i)
    value = 0.0
    if low > 0:
        value += 0.5 * low * math.log2(low / mid)
    if high > 0:
        value += 0.5 * high * math.log2(high / mid)
    return value


def js_divergence(p: Distribution, q: Distribution) -> float:
    """Jensen-Shannon divergence in base 2, clamped to [0, 1].

    Categories are aligned by label; labels missing from one side count
    as probability zero there.  Zero-probability terms contribute zero.
    Each side must be a distribution: one real, finite, non-negative
    probability per distinct label, summing to 1 within 1e-9.
    Symmetric down to the last bit: js_divergence(p, q) == js_divergence(q, p).
    """
    p_map = _label_map(p)
    q_map = _label_map(q)
    total = 0.0
    for label in sorted(set(p_map) | set(q_map)):
        total += _jsd_terms(p_map.get(label, 0.0), q_map.get(label, 0.0))
    return min(1.0, max(0.0, total))


def _jsd_from_counts(counts: Sequence[int], total: int, q_probs: Sequence[float]) -> float:
    # Index-aligned fast path used by the saturation curve.
    value = 0.0
    for count, q_i in zip(counts, q_probs):
        value += _jsd_terms(count / total, q_i)
    return min(1.0, max(0.0, value))


def representativeness_sigma(shares: Sequence[float]) -> float:
    """Population standard deviation of stratum shares around their mean."""
    if not shares:
        raise SchemaError("shares must be non-empty")
    try:
        finite = all(map(_is_finite, shares))
    except TypeError:
        raise SchemaError("shares must be real numbers") from None
    if not finite:
        raise SchemaError("shares must be finite (no NaN or infinity)")
    if max(shares) == min(shares):
        return 0.0  # uniform shares have zero spread, exactly
    # Left-to-right folds from 0.0, not sum(): from Python 3.12 sum() of
    # floats is compensated, so its result would depend on the version.
    total = 0.0
    for share in shares:
        total += share
    mean = total / len(shares)
    squares = 0.0
    try:
        for share in shares:
            squares += (share - mean) ** 2
    except OverflowError:  # a float squared past float range
        squares = math.inf
    if not _is_finite(squares):  # or the mean, or the sum of squares, overflowed
        raise ComputationError("shares spread beyond float range")
    return math.sqrt(squares / len(shares))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class _word_stream:
    """``rng``'s 32-bit outputs in order, handed out in batches shifted right in bulk.

    ``rng.getrandbits(32 * N)`` is the next N outputs, the first in the
    lowest bits, and ``rng.getrandbits(b)`` for ``b <= 32`` is the top
    ``b`` bits of the next one.  The unread outputs are kept as one int,
    the next in its lowest bits, so a batch is cut and shifted with a few
    big-integer operations, not output by output.  The stream reads at
    most one chunk ahead, so ``rng`` must serve nothing else while it is
    in use.  ``next()`` reads one unshifted output.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._block = 0  # the unread outputs
        self._held = 0  # how many outputs _block holds

    def take(self, count: int, shift: int) -> array:
        """The next ``count`` outputs, each shifted right by ``shift`` bits (0 to 31)."""
        missing = count - self._held
        if missing > 0:
            words = max(_CHUNK_WORDS, missing)
            self._block |= self._rng.getrandbits(32 * words) << (32 * self._held)
            self._held += words
        block = self._block
        self._block = block >> (32 * count)
        self._held -= count
        # Shifting the whole block moves each output's low bits into the top of
        # the one before; the mask keeps the low 32 - shift bits of every output.
        mask = int.from_bytes((0xFFFFFFFF >> shift).to_bytes(4, "little") * count, "little")
        batch = array("I", ((block >> shift) & mask).to_bytes(4 * count, "little"))
        if sys.byteorder == "big":
            batch.byteswap()
        return batch

    def __next__(self) -> int:
        return self.take(1, 0)[0]


def _draw(words: _word_stream, items: Sequence, k: int) -> tuple[bool, Iterable]:
    """What ``random.sample(items, k)`` draws from the generator behind ``words``.

    Returns ``(True, the drawn items)`` or ``(False, the items not drawn)``,
    in no particular order, and leaves ``words`` just past the last output
    ``random.sample`` would have used.  Each draw is ``randbelow(m)``: the
    top ``m.bit_length()`` bits of one output, rejected while ``>= m``.
    ``len(items)`` must be below ``2**32``, so that one output suffices per
    try; a population that large does not fit in memory anyway.
    """
    n = len(items)
    # The stdlib's choice between its two methods, with the same math calls.
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n > setsize:
        # Draw positions until k are distinct.  A try that is out of range
        # or already drawn adds nothing to the set, so each batch of as
        # many outputs as positions are missing never reads too far.
        selected: set[int] = set()
        shift = 32 - n.bit_length()
        while len(selected) < k:
            selected.update(filter(n.__gt__, words.take(k - len(selected), shift)))
        return True, map(items.__getitem__, selected)
    # Partial Fisher-Yates shuffle: the item drawn from pool[:m] is replaced
    # by pool[m - 1], so pool[:n - k] ends up holding the items not drawn.
    # m steps down in runs of one bit length, each drawn with one shift,
    # down to floor: the next bit length or the last draw.  A batch of
    # m - floor outputs can accept no more than that many, so, as above,
    # it never reads too far, and m never passes floor inside it.
    pool = list(items)
    m, last = n, n - k
    while m > last:
        floor = max(last, (1 << (m.bit_length() - 1)) - 1)
        for r in words.take(m - floor, 32 - m.bit_length()):
            if r < m:
                m -= 1
                pool[r] = pool[m]
    del pool[last:]
    return False, pool


def saturation_curve(
    population: Sequence[PopulationRecord],
    criterion: str,
    sizes: Sequence[int],
    seed: int,
    bins: int = DEFAULT_BINS,
) -> tuple[SaturationPoint, ...]:
    """Divergence between seeded uniform samples and the full population.

    One point per requested size, drawn in turn from one
    ``random.Random(seed)``: the sample for each size is the one
    ``random.Random(seed).sample(population, size)`` would draw after the
    earlier sizes, so the whole curve is deterministic for a fixed seed.
    The draws are made here, not by ``random.sample``, so a future change
    to the stdlib's algorithm cannot move the curve.

    A last size equal to ``len(population)`` draws nothing: its sample is
    the whole population, so its point is ``0.0``.  Such a size anywhere
    else is drawn, so that the sizes after it draw what they would have.
    Every size is checked, in order, before its point is made.
    """
    if not _is_int(seed):
        raise SchemaError(f"seed must be an integer, got {seed!r}")
    binning, indices = _bin_column(population, criterion, bins)
    population_counts = _counts(indices, binning)
    population_total = _total(population_counts, criterion)
    population_probs = [count / population_total for count in population_counts]
    words = _word_stream(random.Random(seed))
    n = len(population)
    last = len(sizes) - 1
    points = []
    for position, size in enumerate(sizes):
        if not _is_int(size):
            raise SchemaError(f"sizes must hold integers, got {size!r}")
        if not 0 < size <= n:
            raise ComputationError(f"sample size {_shown(size)} outside [1, {n}]")
        if size == n and position == last:
            # A whole-population sample is drawn in the pool branch and leaves
            # no record undrawn, so its counts are the population's; the
            # generator is not read again, so the draw can be skipped.
            counts = population_counts
        else:
            # The draws pick by position only, so drawing from the indices uses
            # the generator exactly as drawing the records would.  The categories
            # are in sorted-label order, so the divergence adds the terms of
            # js_divergence(sample, population) in the same order.
            drawn, picked = _draw(words, indices, size)
            counts = _counts(picked, binning)
            if not drawn:
                counts = [whole - left for whole, left in zip(population_counts, counts)]
        points.append(SaturationPoint(size, _jsd_from_counts(counts, _total(counts, criterion), population_probs)))
    return tuple(points)


def aggregate_divergence(
    population: Sequence[PopulationRecord],
    sample: Sequence[PopulationRecord],
    criteria: Sequence[str],
    bins: int = DEFAULT_BINS,
) -> float:
    """Sum over ``criteria`` of JSD(sample, population) under population binning."""
    if not criteria:
        raise SchemaError("at least one criterion is required")
    if not sample:
        raise SchemaError("sample is empty")
    total = 0.0
    for criterion in criteria:
        binning, indices = _bin_column(population, criterion, bins)
        population_dist = _distribution_of(indices, criterion, binning)
        sample_values = _column(sample, criterion)
        _check_sample(sample_values, criterion, binning)
        sample_dist = _distribution_of(_indices(sample_values, criterion, binning), criterion, binning)
        total += js_divergence(sample_dist, population_dist)
    return total


def select_representative_sample(
    population: Sequence[PopulationRecord],
    k: int,
    criteria: Sequence[str],
    seed: int,
    bins: int = DEFAULT_BINS,
    max_swaps: int | None = None,
) -> SelectionResult:
    """Greedy swap search for a k-subset matching the population profile.

    Starts from a seeded uniform k-subset, then repeatedly swaps one
    member for one non-member whenever that strictly lowers the summed
    per-criterion divergence, scanning members and then candidates in
    index order and taking the first improving swap.  Stops at a local
    minimum or after ``max_swaps`` swaps (default ``10 * k``; must be
    >= 0).  The result never has a higher deviation than the starting
    subset.

    A record's signature is its tuple of codes over ``criteria``: the
    category index on a categorical or numeric criterion, and on a
    multilabel one a code for its tuple of mentions.  A trial's deviation
    depends only on the member's and the candidate's signatures and the
    subset's counts, so within one scan records with equal signatures are
    tried once, by lowest index.  A criterion's terms are kept until a
    swap changes its counts, that is, until a member and a candidate with
    different codes on it are swapped.

    A trial adds its criteria's terms in order and stops once the partial
    sum reaches the improvement threshold.  Every term is at least 0, and
    adding a number at least 0 to a float never lowers it, so the full sum
    could not have fallen below the threshold.  None of this changes the
    result: the skipped trials could not have been the first to improve.
    """
    n = len(population)
    if not criteria:
        raise SchemaError("at least one criterion is required")
    if not _is_int(k):
        raise SchemaError(f"k must be an integer, got {k!r}")
    if not _is_int(seed):
        raise SchemaError(f"seed must be an integer, got {seed!r}")
    if not 0 < k <= n:
        raise ComputationError(f"k must be in [1, {n}], got {_shown(k)}")
    if max_swaps is not None:
        if not _is_int(max_swaps):
            raise SchemaError(f"max_swaps must be an integer, got {max_swaps!r}")
        if max_swaps < 0:
            raise SchemaError(f"max_swaps must be >= 0, got {_shown(max_swaps)}")

    columns = [_bin_column(population, criterion, bins) for criterion in criteria]
    population_probs = [
        _distribution_of(indices, criterion, binning).probabilities
        for criterion, (binning, indices) in zip(criteria, columns)
    ]
    # A record's code on a criterion is its bin index, or on a multilabel one
    # the code of its mention tuple; mentions[c][code] is the indices it counts.
    mentions: list[list[tuple[int, ...]]] = []
    codes = []
    for binning, indices in columns:
        if binning.kind == "multilabel":
            coded: dict[tuple[int, ...], int] = {}
            codes.append([coded.setdefault(mention, len(coded)) for mention in indices])
            mentions.append(list(coded))
        else:
            codes.append(indices)
            mentions.append([(index,) for index in range(len(binning.categories))])
    signatures = list(zip(*codes))

    slices = range(len(criteria))
    counts = [[0] * len(binning.categories) for binning, _ in columns]
    totals = [0] * len(criteria)
    # Per-bin terms, bin_terms[c][subset total][bin][count]: a term depends on
    # nothing else, so the memo is kept across scans and filled as trials meet it.
    bin_terms: list[dict[int, list[dict[int, float]]]] = [{} for _ in slices]

    def move(signature: tuple[int, ...], sign: int) -> None:
        for c in slices:
            mentioned = mentions[c][signature[c]]
            for index in mentioned:
                counts[c][index] += sign
            totals[c] += sign * len(mentioned)

    def term(c: int, removed: tuple[int, ...], added: tuple[int, ...]) -> float:
        # JSD of criterion ``c`` once ``removed`` leaves the subset and ``added`` joins it.
        trial_counts = counts[c][:]
        for index in removed:
            trial_counts[index] -= 1
        for index in added:
            trial_counts[index] += 1
        total = totals[c] - len(removed) + len(added)
        if total == 0:
            return 1.0  # nothing to count on this slice: maximally divergent
        known = bin_terms[c].get(total)
        if known is None:
            known = bin_terms[c][total] = [{} for _ in trial_counts]
        # The terms of _jsd_from_counts, added in bin order, so the sum is the same float.
        value = 0.0
        for count, by_count, q_i in zip(trial_counts, known, population_probs[c]):
            bin_term = by_count.get(count)
            if bin_term is None:
                bin_term = by_count[count] = _jsd_terms(count / total, q_i)
            value += bin_term
        return min(1.0, max(0.0, value))

    rng = random.Random(seed)
    chosen = set(rng.sample(range(n), k))
    for index in chosen:
        move(signatures[index], +1)

    # Per-criterion terms of the current subset, summed in criterion order.
    terms = [term(c, (), ()) for c in slices]
    current = 0.0
    for value in terms:
        current += value
    initial = current
    swap_budget = 10 * k if max_swaps is None else max_swaps
    swaps = 0
    # A term depends only on (criterion, member code, candidate code) while
    # the criterion's counts stay fixed: memo[c][member code][candidate code].
    # A swap changes the counts only of criteria on which the two codes differ.
    memo: list[dict[int, dict[int, float]]] = [{} for _ in slices]
    improved = True
    while swaps < swap_budget and improved:
        improved = False
        threshold = current - _IMPROVEMENT_EPS
        candidates: dict[tuple[int, ...], int] = {}
        for index in range(n):
            if index not in chosen:
                candidates.setdefault(signatures[index], index)
        tried = set()
        for member in sorted(chosen):
            member_sig = signatures[member]
            if member_sig in tried:
                continue
            tried.add(member_sig)
            # A criterion on which member and candidate agree keeps its term.
            rows = [memo[c].setdefault(member_sig[c], {member_sig[c]: terms[c]}) for c in slices]
            for candidate_sig, candidate in candidates.items():
                trial = 0.0
                for c in slices:
                    added = candidate_sig[c]
                    value = rows[c].get(added)
                    if value is None:
                        value = rows[c][added] = term(c, mentions[c][member_sig[c]], mentions[c][added])
                    trial += value
                    if trial >= threshold:
                        break  # the terms still to come are >= 0: the trial cannot improve
                else:
                    for c in slices:
                        if member_sig[c] != candidate_sig[c]:
                            terms[c] = rows[c][candidate_sig[c]]
                            memo[c] = {}
                    move(member_sig, -1)
                    move(candidate_sig, +1)
                    chosen.remove(member)
                    chosen.add(candidate)
                    current = trial
                    swaps += 1
                    improved = True
                    break
            if improved:
                break

    return SelectionResult(
        record_ids=tuple(sorted(population[i].record_id for i in chosen)),
        deviation=current,
        initial_deviation=initial,
        swaps_applied=swaps,
        criteria=tuple(criteria),
    )
