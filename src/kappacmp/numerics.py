"""Self-contained special functions and seeded samplers.

Everything here is pure stdlib so that seeded results are reproducible
across environments; nothing in the runtime path depends on an external
numerical library.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from functools import cache
from itertools import chain, islice
from numbers import Integral

from .errors import DenormalsAreZeroError, DomainError

__all__ = [
    "RandomStream",
    "normal_cdf",
    "normal_quantile",
    "sample_beta",
    "sample_beta_rows",
    "sample_multinomial",
    "select_quantile",
    "select_quantiles",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


def _mix64(z: int) -> int:
    # SplitMix64 finalizer (Steele, Lea & Flood 2014); bijective on 64-bit words.
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _start(seed: int, stream: int) -> int:
    """The state of RandomStream(seed, stream): uniform k mixes state + k * _GOLDEN."""
    return _mix64(seed ^ _mix64((stream + 1) * _GOLDEN))


class RandomStream:
    """Counter-based uniform generator identified by a (seed, stream) pair.

    Distinct (seed, stream) pairs give statistically independent sequences,
    so concurrent replicates can each own the stream derived from their
    replicate index and produce results that do not depend on scheduling.
    Uniform k (from 1) is (_mix64(state + k * _GOLDEN) >> 11) * 2**-53,
    where state mixes the pair (_start), mixed a block of counters at a
    time (_uniform_blocks). ``uniform()`` returns it, and ``raw()`` the
    same value as _raw_uniforms reads it, 2**-1021 times as large; both
    read the one sequence, so a consumer of either leaves the stream where
    the next read continues.
    """

    __slots__ = ("seed", "stream", "raw", "uniform", "_spare_gauss")

    def __init__(self, seed: int, stream: int = 0):
        # any integers: taken modulo 2**64
        if not (isinstance(seed, Integral) and isinstance(stream, Integral)):
            raise DomainError(f"seed and stream must be integers, got ({seed!r}, {stream!r})")
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        values = chain.from_iterable(_uniform_blocks(_start(self.seed, self.stream)))
        self.raw = values.__next__
        self.uniform = map(_RAW_SCALE.__mul__, values).__next__
        self._spare_gauss: float | None = None

    def uniform_open(self) -> float:
        """Uniform draw in (0, 1)."""
        while True:
            u = self.uniform()
            if u > 0.0:
                return u

    def gauss(self) -> float:
        """Standard normal draw (Marsaglia polar method)."""
        if self._spare_gauss is not None:
            g = self._spare_gauss
            self._spare_gauss = None
            return g
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                f = math.sqrt(-2.0 * math.log(s) / s)
                self._spare_gauss = v * f
                return u * f

    def gamma(self, shape: float) -> float:
        """Gamma(shape, 1) draw via Marsaglia-Tsang squeeze rejection."""
        if not shape > 0.0:  # NaN too
            raise DomainError(f"gamma shape must be positive, got {shape}")
        if shape < 1.0:
            # boost: G(a) = G(a+1) * U^(1/a)
            return self.gamma(shape + 1.0) * self.uniform_open() ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.gauss()
            t = 1.0 + c * x
            if t <= 0.0:
                continue
            v = t * t * t
            u = self.uniform_open()
            xx = x * x
            if u < 1.0 - 0.0331 * xx * xx:
                return d * v
            if math.log(u) < 0.5 * xx + d * (1.0 - v + math.log(v)):
                return d * v


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well below 1e-12 in absolute error."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# Wichura's AS 241 rational approximations (PPND16), double precision.
_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-6, 1.42151175831644588870e-15,
)


def _ratpoly(num: tuple, den: tuple, r: float) -> float:
    pn = 0.0
    for coef in reversed(num):
        pn = pn * r + coef
    pd = 0.0
    for coef in reversed(den):
        pd = pd * r + coef
    return pn / pd


def normal_quantile(q: float) -> float:
    """Inverse of the standard normal CDF (AS 241, PPND16)."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"normal_quantile needs q in (0, 1), got {q}")
    d = q - 0.5
    if abs(d) <= 0.425:
        r = 0.180625 - d * d
        return d * _ratpoly(_A, _B, r)
    r = q if d < 0.0 else 1.0 - q
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        x = _ratpoly(_C, _D, r - 1.6)
    else:
        x = _ratpoly(_E, _F, r - 5.0)
    return -x if d < 0.0 else x


_BETA_MAX_REJECTS = 10_000  # Beta draws in a row on 0 or 1 before the parameters are refused


def _beta_rejected(alpha: float, beta: float) -> DomainError:
    return DomainError(f"Beta({alpha}, {beta}) draws landed on 0 or 1 {_BETA_MAX_REJECTS} "
                       "times in a row; the parameters are too extreme for double precision")


def sample_beta(alpha: float, beta: float, stream: RandomStream) -> float:
    """Beta(alpha, beta) draw in (0, 1); DomainError after _BETA_MAX_REJECTS on 0 or 1 in a row."""
    if not (alpha > 0.0 and beta > 0.0):
        raise DomainError(f"beta parameters must be positive, got ({alpha}, {beta})")
    for _ in range(_BETA_MAX_REJECTS):
        ga = stream.gamma(alpha)
        gb = stream.gamma(beta)
        total = ga + gb
        if total > 0.0:
            x = ga / total
            if 0.0 < x < 1.0:
                return x
    raise _beta_rejected(alpha, beta)


_FIRST_BLOCK = 8  # counters mixed in a stream's first block; each next block doubles, to _BLOCK
_BLOCK = 1024  # counters mixed per block once a stream has ramped up, most streams per head batch
_HEAD_LANES = 8 * _BLOCK  # most lanes in a batch of _head_streams, unless one stream needs more

# A 53-bit word w, written as the bits of a double, is w * 2**-1074 exactly
# (exponent field 0 or 1), and that double times _RAW_SCALE is the uniform
# w * 2**-53, exactly. Words below 2**52 read as subnormals, so this needs
# gradual underflow: _PROBE is such a word, read the same way, and
# _raw_uniforms checks it against its uniform.
_RAW_SCALE = 2.0 ** 1021
_PROBE_WORD = 0x000F_EDCB_A987_6543
_PROBE = array("d", _PROBE_WORD.to_bytes(8, sys.byteorder))[0]
_PROBE_UNIFORM = _PROBE_WORD * _INV_2_53


@cache
def _lanes(size: int) -> tuple[int, int, int, int]:
    """Packed-lane constants for blocks of ``size`` counters, lane i at bit 128*i.

    ``ones`` has a 1 at the bottom of every lane, ``steps`` holds
    (i + 1) * _GOLDEN in lane i, ``advance`` the counter step of a whole
    block in every lane, and ``mask`` is _MASK64 in every lane. Built on
    first use, not at import.
    """
    return (_lane_words(1, size), _lane_steps(size, 1),
            _lane_words(size * _GOLDEN & _MASK64, size), _lane_words(_MASK64, size))


def _lane_words(word: int, count: int) -> int:
    """``word`` in each of ``count`` 128-bit lanes."""
    return int.from_bytes(word.to_bytes(16, "little") * count, "little")


def _lane_steps(k: int, count: int) -> int:
    """(j + 1) * _GOLDEN in the ``count`` lanes from lane j * count on, for each j < ``k``."""
    return int.from_bytes(b"".join([((j + 1) * _GOLDEN).to_bytes(16, "little") * count
                                    for j in range(k)]), "little")


def _mix_lanes(z: int, mask: int) -> int:
    """_mix64 of every lane of ``z``: 64-bit words in 128-bit lanes, ``mask`` _MASK64 in each.

    A 64x64-bit product fits in its lane, and masking after every
    shift-xor and product drops what crossed in from the lane above.
    """
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)) & mask


def _raw_uniforms(z: int, count: int) -> list:
    """The words w >> 11 of the ``count`` lanes of a mixed ``z``, read as doubles.

    Each value is the uniform w >> 11 scaled by 2**-1074, not 2**-53: times
    _RAW_SCALE it is that uniform. DenormalsAreZeroError when arithmetic on
    subnormals is not gradual (denormals-are-zero), which would read about
    half of them as 0.
    """
    if _PROBE * _RAW_SCALE != _PROBE_UNIFORM:
        raise DenormalsAreZeroError(
            "subnormal doubles read as zero (denormals-are-zero is on, as after loading "
            "a library built with fast-math); stream uniforms cannot be read")
    # the low half of each lane is the word; the high half holds only the
    # bits the shift brought down from the lane above, and is dropped
    doubles = array("d", (z >> 11).to_bytes(16 * count, "little"))
    if sys.byteorder == "big":
        doubles.byteswap()
    return doubles[::2].tolist()


def _raising(error: Exception):
    """An iterator whose one read raises ``error``."""
    raise error
    yield  # a generator: it raises when read, not when made


def _uniform_blocks(state: int):
    """Successive blocks of the raw uniforms (_raw_uniforms) of the stream of ``state``.

    The first block mixes _FIRST_BLOCK counters and each next one twice as
    many, up to _BLOCK, so a short-lived stream mixes few; from then on the
    counters of a block advance by one addition. When _raw_uniforms refuses
    a block (DenormalsAreZeroError), the iterable yielded raises that
    error once read, and the same block is tried again after it: a stream
    raises on every read until gradual underflow is back, and then
    continues from the counter it stopped at.
    """
    size = _FIRST_BLOCK
    ones, steps, advance, mask = _lanes(size)
    counters = (state * ones + steps) & mask
    while True:
        try:
            block = _raw_uniforms(_mix_lanes(counters, mask), size)
        except DenormalsAreZeroError as error:
            yield _raising(error)
            continue
        yield block
        if size < _BLOCK:
            state = (state + size * _GOLDEN) & _MASK64
            size *= 2
            ones, steps, advance, mask = _lanes(size)
            counters = (state * ones + steps) & mask
        else:
            counters = (counters + advance) & mask


def _head_streams(seed: int, streams, k: int):
    """The ``uniform`` of ``RandomStream(seed, s)``, one per ``s`` of ``streams``, in order.

    The first ``k`` values of each come from a lane batch over up to
    _BLOCK streams (and _HEAD_LANES lanes) at a time: both _mix64 steps of
    each stream's starting state, then its first ``k`` counters. A read
    past them continues in blocks of the stream's own state from counter
    ``k`` + 1 on (_uniform_blocks).
    """
    seed &= _MASK64
    streams = iter(streams)
    size = max(1, min(_BLOCK, _HEAD_LANES // max(k, 1)))
    while batch := list(islice(streams, size)):
        count = len(batch)
        mask = _lane_words(_MASK64, count)
        ids = int.from_bytes(b"".join([((s + 1) * _GOLDEN & _MASK64).to_bytes(16, "little")
                                       for s in batch]), "little")
        states = _mix_lanes(_mix_lanes(ids, mask) ^ _lane_words(seed, count), mask)
        # lane j * count + i holds counter j + 1 of stream i: its state + (j + 1) * _GOLDEN
        lanes = count * k
        mask = _lane_words(_MASK64, lanes)
        spread = int.from_bytes(states.to_bytes(16 * count, "little") * k, "little")
        z = (spread + _lane_steps(k, count)) & mask
        uniforms = [r * _RAW_SCALE for r in _raw_uniforms(_mix_lanes(z, mask), lanes)]
        for i, s in enumerate(batch):
            yield chain.from_iterable(_head_and_tail(uniforms[i::count], seed, s)).__next__


def _head_and_tail(head: list, seed: int, stream: int):
    """``head``, then the uniforms of RandomStream(seed, stream) past it, built when reached."""
    yield head
    state = (_start(seed, stream) + len(head) * _GOLDEN) & _MASK64
    yield map(_RAW_SCALE.__mul__, chain.from_iterable(_uniform_blocks(state)))


def _gamma_constants(shape: float) -> tuple[float, float, float]:
    """Marsaglia-Tsang (d, c, boost) of RandomStream.gamma(shape).

    A shape below 1 is drawn as Gamma(shape + 1) * U^(1/shape): then d and c
    belong to shape + 1 and boost is 1/shape; otherwise boost is 0.
    """
    boost = 0.0
    if shape < 1.0:
        shape, boost = shape + 1.0, 1.0 / shape
    d = shape - 1.0 / 3.0
    return d, 1.0 / math.sqrt(9.0 * d), boost


def sample_beta_rows(params, m: int, stream: RandomStream) -> array:
    """``m`` rows of one Beta(alpha, beta) draw per pair of ``params``, flat in row order.

    The values, and the stream's counter and pending normal afterwards,
    are those of ``[sample_beta(a, b, stream) for _ in range(m) for a, b
    in params]``: the same polar-normal and Marsaglia-Tsang steps run
    inline on the same uniforms, read through ``stream.raw``, with the
    constants of each shape computed once.
    """
    params = list(params)
    pairs = []
    for alpha, beta in params:
        if not (alpha > 0.0 and beta > 0.0):
            raise DomainError(f"beta parameters must be positive, got ({alpha}, {beta})")
        pairs.append((_gamma_constants(alpha), _gamma_constants(beta)))
    log, sqrt = math.log, math.sqrt
    # times ``two`` a raw value is 2u, times ``scale`` it is u, exactly (_raw_uniforms)
    two, scale = 2.0 * _RAW_SCALE, _RAW_SCALE
    rows = array("d")
    append = rows.append
    raw = stream.raw
    spare = stream._spare_gauss
    retried = rejects = 0  # the draw (its index in rows) landing on 0 or 1, and how often
    # the pending normal goes back to the stream on every exit, a refused read included
    try:
        for _ in range(m):
            # the Marsaglia-Tsang step is written out once per gamma of the
            # pair: a loop over the two, or a list of them, costs about 4% here
            for (da, ca, boosta), (db, cb, boostb) in pairs:
                while True:
                    while True:
                        if spare is None:  # RandomStream.gauss
                            while True:
                                x = raw() * two - 1.0
                                y = raw() * two - 1.0
                                s = x * x + y * y
                                if 0.0 < s < 1.0:
                                    break
                            f = sqrt(-2.0 * log(s) / s)
                            spare = y * f
                            x = x * f
                        else:
                            x, spare = spare, None
                        t = 1.0 + ca * x
                        if t <= 0.0:
                            continue
                        v = t * t * t
                        u = raw() * scale
                        while u == 0.0:  # uniform_open
                            u = raw() * scale
                        xx = x * x
                        if (u < 1.0 - 0.0331 * xx * xx
                                or log(u) < 0.5 * xx + da * (1.0 - v + log(v))):
                            break
                    ga = da * v
                    if boosta:
                        u = raw() * scale
                        while u == 0.0:
                            u = raw() * scale
                        ga = ga * u ** boosta
                    while True:
                        if spare is None:  # RandomStream.gauss
                            while True:
                                x = raw() * two - 1.0
                                y = raw() * two - 1.0
                                s = x * x + y * y
                                if 0.0 < s < 1.0:
                                    break
                            f = sqrt(-2.0 * log(s) / s)
                            spare = y * f
                            x = x * f
                        else:
                            x, spare = spare, None
                        t = 1.0 + cb * x
                        if t <= 0.0:
                            continue
                        v = t * t * t
                        u = raw() * scale
                        while u == 0.0:  # uniform_open
                            u = raw() * scale
                        xx = x * x
                        if (u < 1.0 - 0.0331 * xx * xx
                                or log(u) < 0.5 * xx + db * (1.0 - v + log(v))):
                            break
                    gb = db * v
                    if boostb:
                        u = raw() * scale
                        while u == 0.0:
                            u = raw() * scale
                        gb = gb * u ** boostb
                    total = ga + gb
                    if total > 0.0:
                        x = ga / total
                        if 0.0 < x < 1.0:
                            append(x)
                            break
                    rejects = rejects + 1 if retried == len(rows) else 1
                    retried = len(rows)
                    if rejects == _BETA_MAX_REJECTS:
                        raise _beta_rejected(*params[retried % len(params)])
    finally:
        stream._spare_gauss = spare
    return rows


_BINOM_CHUNK = 1000


def _multinomial_reads(cells: int, n: int) -> int:
    """The most uniforms a sample_multinomial draw of size ``n`` over ``cells`` reads.

    One per block of _BINOM_CHUNK trials, for each cell but the last.
    """
    return (cells - 1) * -(-n // _BINOM_CHUNK)


def _binomial_chunk(tables: dict, n: int, p: float, u: float) -> int:
    # CDF inversion of the uniform ``u`` on the stored CDF of Binomial(n, p),
    # tables[n] = [CDF(0..k), pmf(k)]; requires p <= 0.5 and n <= _BINOM_CHUNK
    # so that the starting mass (1-p)^n stays a normal double. The CDF is
    # built, with the float steps of a walk up from k = 0, only as far as u
    # needs, so the draw is the smallest k with u < CDF(k), or n when there
    # is none: the walk's k.
    table = tables.get(n)
    if table is None:
        pmf = (1.0 - p) ** n
        table = tables[n] = [[pmf], pmf]
    cdf = table[0]
    if u >= cdf[-1]:
        k = len(cdf) - 1
        ratio = p / (1.0 - p)
        pmf, total = table[1], cdf[-1]
        while u >= total and k < n:
            pmf *= ratio * (n - k) / (k + 1)
            k += 1
            total += pmf
            cdf.append(total)
        table[1] = pmf
        return k
    return bisect_right(cdf, u)


_MAX_SIZE = 2 ** 26  # the largest multinomial size: its counts' sums and products stay below 2**53


def _integral(value) -> bool:
    """True for an integer or an integral float (50.0); False for 50.5, inf and nan."""
    return isinstance(value, Integral) or (isinstance(value, float) and value.is_integer())


def _multinomial_plan(pi, n) -> tuple[list, int]:
    """The checks of every multinomial draw: the plan of ``pi`` and ``n`` as an int.

    The plan holds the conditional binomial of each cell but the last. Each
    step is None (the cell draws 0), True (it takes all that remain) or
    (p, flip, tables): a Binomial(remaining, p) draw with p <= 0.5, taken
    as remaining minus the draw when ``flip`` (the conditional probability
    was 1 - p > 0.5). ``tables`` is the step's own dict of the CDFs of p by
    size (_binomial_chunk), filled by the draws that reuse the plan.
    DomainError when ``pi`` is not a probability vector or ``n`` is not an
    integer from 0 to _MAX_SIZE (an integral float counts; inf and nan do not).
    """
    probs = [float(x) for x in pi]
    if not probs:
        raise DomainError("multinomial needs at least one category")
    # written so that a NaN fails both checks
    if any(not x >= 0.0 for x in probs):
        raise DomainError("multinomial probabilities must be non-negative")
    if not abs(sum(probs) - 1.0) <= 1e-9:
        raise DomainError(f"multinomial probabilities must sum to 1, got {sum(probs)!r}")
    if not (_integral(n) and n >= 0):
        raise DomainError(f"multinomial size must be a non-negative integer, got {n!r}")
    if n > _MAX_SIZE:
        raise DomainError(f"multinomial size must be at most 2**26 = {_MAX_SIZE}, got {n!r}")
    plan = []
    mass = 1.0
    for pj in probs[:-1]:
        cond = 0.0 if mass <= 0.0 else min(max(pj / mass, 0.0), 1.0)
        if cond <= 0.0:
            plan.append(None)
        elif cond >= 1.0:
            plan.append(True)
        else:
            flip = cond > 0.5
            p = 1.0 - cond if flip else cond
            plan.append((p, flip, {}))
        mass -= pj
    return plan, int(n)


def _multinomial_draw(plan: list, n: int, uniform) -> list[int]:
    """One multinomial draw of size ``n`` over a checked ``plan`` (_multinomial_plan).

    Reads one ``uniform()`` per block of _BINOM_CHUNK trials of each
    binomial step, and takes its count from the stored CDF (bisect_right)
    or, when the CDF is missing or ends below the uniform, from
    _binomial_chunk. The one draw loop: sample_multinomial, the bootstrap
    tables and a coverage range all run it.
    """
    counts: list[int] = []
    append = counts.append
    remaining = n
    for step in plan:
        if step is None or remaining == 0:
            append(0)
        elif step is True:
            append(remaining)
            remaining = 0
        else:
            p, flip, tables = step
            k = 0
            size = remaining
            while size > _BINOM_CHUNK:
                k += _binomial_chunk(tables, _BINOM_CHUNK, p, uniform())
                size -= _BINOM_CHUNK
            # the last block, read straight from its stored CDF when that reaches u
            u = uniform()
            table = tables.get(size)
            if table is not None and u < (cdf := table[0])[-1]:
                k += bisect_right(cdf, u)
            else:
                k += _binomial_chunk(tables, size, p, u)
            if flip:
                k = remaining - k
            append(k)
            remaining -= k
    append(remaining)
    return counts


def sample_multinomial(pi, n: int, stream: RandomStream) -> list[int]:
    """One multinomial draw of size ``n`` via sequential conditional binomials.

    Each binomial is drawn by inverting its CDF (Devroye 1986, ch. III)
    with one uniform per block of _BINOM_CHUNK trials. A caller that draws
    many times from one ``pi`` keeps the plan of _multinomial_plan and runs
    _multinomial_draw, which reuses the plan and the CDFs built so far.
    """
    plan, n = _multinomial_plan(pi, n)
    return _multinomial_draw(plan, n, stream.uniform)


_SAMPLE_STRIDE = 16  # select_quantiles takes its thresholds from every 16th value


def select_quantiles(values, q_low: float, q_high: float) -> tuple[float, float]:
    """Interpolating empirical quantiles of ``values`` at levels ``q_low`` and ``q_high``.

    Each is the quantile at one-based index q*(m-1)+1, bit-identical to
    interpolating between the two order statistics around that index in
    ``sorted(values)``, but found by selection (after Floyd & Rivest 1975).
    Both thresholds are read from one sorted strided sample: one for the
    levels nearer the bottom, one for those nearer the top. One pass keeps
    the values at or below the first and at or above the second, and only
    those are sorted: the bottom of sorted(values), then its top. When a
    rank falls between the two, all the values are sorted. Equal values
    are kept or dropped together, in their order, so the result is that of
    the full sort even for ties and signed zeros. ``values`` is a sequence
    without NaN.
    """
    m = len(values)
    if not m:
        raise DomainError("select_quantiles needs a non-empty sequence")
    levels = []
    for q in (q_low, q_high):
        if not 0.0 <= q <= 1.0:
            raise DomainError(f"quantile level must be in [0, 1], got {q}")
        pos = q * (m - 1)
        levels.append((pos, math.floor(pos), math.ceil(pos)))
    # the sample value at rank r bounds about 16 * (r + 1) values, give or
    # take about 16 * sqrt(r): a threshold sits two such errors (plus two)
    # past the rank needed, so that the full sort is rarely wanted
    sample = sorted(values[::_SAMPLE_STRIDE])
    last = len(sample) - 1
    below, above = -math.inf, math.inf  # no tail kept until a level needs it
    for _, lo, hi in levels:
        if lo + hi < m - 1:  # nearer the bottom: keep the values up to a threshold
            rank = (hi + 1) // _SAMPLE_STRIDE
            below = max(below, sample[min(rank + 2 + 2 * math.isqrt(rank), last)])
        else:  # nearer the top: keep the values from a threshold up
            rank = (m - lo) // _SAMPLE_STRIDE
            above = min(above, sample[max(last - rank - 2 - 2 * math.isqrt(rank), 0)])
    kept = sorted([x for x in values if x <= below or x >= above])
    skipped = m - len(kept)
    split = bisect_right(kept, below)  # rank r < split is kept[r], a higher one kept[r - skipped]
    if skipped and not all(r < split or r - skipped >= split
                           for _, lo, hi in levels for r in (lo, hi)):
        kept, skipped = sorted(values), 0
    quantiles = []
    for pos, lo, hi in levels:
        low = float(kept[lo if lo < split else lo - skipped])
        if lo == hi:
            quantiles.append(low)
        else:
            w = pos - lo
            quantiles.append(low * (1.0 - w) + float(kept[hi if hi < split else hi - skipped]) * w)
    return quantiles[0], quantiles[1]


def select_quantile(values, q: float) -> float:
    """The one-level case of select_quantiles: the quantile of ``values`` at ``q``."""
    return select_quantiles(values, q, q)[0]
