"""The ``bounds`` and ``sampling`` entry points either return or raise a
``MatchcertError`` whose message starts with a kebab-case token. A number
argument (a count, a size, a seed, a delta, a range end) or a name (a
side, a method) takes any scalar: None, a bool, an int, a float, a string.
A collection argument (a universe, a labeled pool) is a list or tuple of
such scalars, and sample values may also be one scalar. The population,
sample and confidence objects are built by their constructors from such
values; a sample is built either by ``SampleSummary.of`` or, unconverted,
from a tuple by ``SampleSummary`` itself. Range ends and sample values
reach magnitudes near 1.7e308, where sums and squares overflow a float.
Population sizes stay at or below 10**7, the exact method's cap."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from matchcert import bounds, sampling
from matchcert.errors import MatchcertError

TOKEN = re.compile(r"^[a-z]+(-[a-z]+)*: ")
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.floats(),
    st.text(st.sampled_from("ab01.-"), max_size=3),
)


def mostly(good, bad=scalars):
    """``good`` three times in four, so that most calls reach the checks
    past the first, else ``bad``."""
    return st.integers(0, 3).flatmap(lambda i: good if i else bad)


# sizes: small, where sample and population sizes meet, or up to 10**7
sizes = mostly(st.one_of(st.integers(-1, 12), st.integers(0, 10**7)))
small = mostly(st.integers(-1, 12))
deltas = mostly(st.floats(0.0, 1.0))
sides = mostly(st.sampled_from(["lower", "upper", "both"]))
methods = mostly(st.sampled_from(list(bounds.BoundMethod)))
names = mostly(st.sampled_from([m.value for m in bounds.BoundMethod]))
# near the float range's ends, where a sum of two overflows
huge = st.one_of(st.floats(-1.7e308, 1.7e308), st.sampled_from([1.7e308, -1.7e308]))
ends = mostly(st.one_of(st.floats(-2.0, 2.0), huge))
values = mostly(
    st.one_of(
        st.lists(st.sampled_from([0.0, 1.0]), max_size=12),
        st.lists(st.floats(-1.0, 2.0), max_size=12),
        st.lists(huge, max_size=12),
    ),
    st.one_of(st.lists(scalars, max_size=4), st.tuples(scalars, scalars), scalars),
)
items = st.one_of(st.lists(scalars, max_size=6), st.tuples(scalars, scalars))
seeds = mostly(st.integers(0, 2**32))


def returns_or_raises_a_token(call, *args):
    try:
        return call(*args)
    except MatchcertError as e:
        assert TOKEN.match(str(e)), str(e)
    return None


def sample_of(vals, direct):
    """``SampleSummary.of(vals)``, or, when ``direct``, a SampleSummary of
    the values as they are, in a tuple."""
    if not direct:
        return bounds.SampleSummary.of(vals)
    return bounds.SampleSummary(tuple(vals) if isinstance(vals, (list, tuple)) else (vals,))


@FUZZ
@given(sizes, ends, ends, values, st.booleans(), methods, deltas, sides, names)
def test_bound_mean_and_its_objects(n, lo, hi, vals, direct, method, delta, side, name):
    def run():
        pop = bounds.PopulationSpec(n, lo, hi)
        sample = sample_of(vals, direct)
        confidence = bounds.Confidence(delta)
        bounds.BoundMethod.parse(name)
        bounds.sample_mean(sample)
        bounds.sample_sigma_hat(sample)
        bounds.hoeffding_bounds(pop, sample, confidence)
        bounds.ebs_bounds(pop, sample, confidence)
        return bounds.bound_mean(pop, sample, method, confidence, side)

    returns_or_raises_a_token(run)


@FUZZ
@given(sizes, st.lists(huge, max_size=12), st.booleans(), methods, deltas, sides)
def test_bound_mean_near_the_float_range(n, vals, direct, method, delta, side):
    # a range from 0 or the least value up to 1.7e308 holds every value
    # where its width allows, so the sample's sum and squares are reached
    lo = min([0.0, *vals])

    def run():
        pop = bounds.PopulationSpec(n, lo, 1.7e308)
        sample = sample_of(vals, direct)
        bounds.sample_mean(sample)
        bounds.sample_sigma_hat(sample)
        return bounds.bound_mean(pop, sample, method, bounds.Confidence(delta), side)

    returns_or_raises_a_token(run)


@FUZZ
@given(sizes, values, methods, deltas, sides, ends, st.booleans())
def test_bound_term(n, vals, method, delta, side, hi, exact):
    def run():
        confidence = bounds.Confidence(delta)
        return bounds.bound_term(n, vals, method, confidence, side, hi, exact)

    returns_or_raises_a_token(run)


@FUZZ
@given(small, sizes, small, small, deltas)
def test_hypergeometric_functions(m, n, s, k, delta):
    for call in (
        bounds.hypergeom_pmf,
        bounds.hypergeom_tail_upper,
        bounds.hypergeom_tail_lower,
    ):
        returns_or_raises_a_token(call, m, n, s, k)
    returns_or_raises_a_token(bounds.rho_s, n, s)
    for invert in (bounds.hypergeom_invert_lower, bounds.hypergeom_invert_upper):
        returns_or_raises_a_token(lambda: invert(n, s, k, bounds.Confidence(delta)))


@FUZZ
@given(sizes, small, small, seeds, st.one_of(items, st.text(max_size=4)))
def test_samplers(n, s, t, seed, universe):
    returns_or_raises_a_token(sampling.spawn_rng, seed, t)
    returns_or_raises_a_token(sampling.sample_indices, n, s, seed)
    returns_or_raises_a_token(sampling.sample_without_replacement, universe, s, seed)
    returns_or_raises_a_token(
        lambda: list(sampling.stream_without_replacement(universe, seed))
    )
    returns_or_raises_a_token(sampling.hypergeometric_draw, n, t, s, seed)


@FUZZ
@given(sizes, items, small, small, seeds)
def test_split_train_validation(population_n, labeled, t, s, seed):
    def run():
        spec = sampling.SplitSpec(population_n, labeled, t, s, seed)
        return sampling.split_train_validation(spec)

    returns_or_raises_a_token(run)
