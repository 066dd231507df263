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
from itertools import chain
from operator import length_hint

from .errors import DomainError

__all__ = [
    "RandomStream",
    "normal_cdf",
    "normal_quantile",
    "sample_beta",
    "sample_beta_rows",
    "sample_multinomial",
    "empirical_quantile",
    "sorted_quantile",
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


class RandomStream:
    """Counter-based uniform generator identified by a (seed, stream) pair.

    Distinct (seed, stream) pairs give statistically independent sequences,
    so concurrent replicates can each own the stream derived from their
    replicate index and produce results that do not depend on scheduling.
    """

    __slots__ = ("seed", "stream", "_state", "_spare_gauss")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self._state = _mix64(self.seed ^ _mix64((self.stream + 1) * _GOLDEN))
        self._spare_gauss: float | None = None

    # next_u64 and uniform inline the _mix64 step (the state is already a
    # 64-bit word, so its first mask is dropped): same words, fewer calls.
    def next_u64(self) -> int:
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform draw in [0, 1)."""
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * _INV_2_53

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
        if shape <= 0.0:
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


def sample_beta(alpha: float, beta: float, stream: RandomStream) -> float:
    """Beta(alpha, beta) draw in the open interval (0, 1)."""
    if alpha <= 0.0 or beta <= 0.0:
        raise DomainError(f"beta parameters must be positive, got ({alpha}, {beta})")
    while True:
        ga = stream.gamma(alpha)
        gb = stream.gamma(beta)
        total = ga + gb
        if total > 0.0:
            x = ga / total
            if 0.0 < x < 1.0:
                return x


_BLOCK = 1024  # counters mixed per block by _BlockUniforms


@cache
def _lanes() -> tuple[int, int, int]:
    """Packed-lane constants for _BLOCK counters, lane i at bit 128*i.

    ``ones`` has a 1 at the bottom of every lane, ``steps`` holds
    (i + 1) * _GOLDEN in lane i, ``mask`` is _MASK64 in every lane. Built on
    first use, not at import.
    """
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * _BLOCK, "little")
    steps = int.from_bytes(b"".join(((i + 1) * _GOLDEN).to_bytes(16, "little")
                                    for i in range(_BLOCK)), "little")
    return ones, steps, _MASK64 * ones


class _BlockUniforms:
    """The uniforms of a RandomStream, mixed a block of counters at a time.

    Uniform k of a stream is _mix64(state + k * _GOLDEN) >> 11, scaled, so
    the SplitMix64 steps of _BLOCK consecutive counters run on one Python
    int that holds each counter in its own 128-bit lane: a 64x64-bit
    product fits in its lane, and masking after every shift-xor and product
    drops what crossed in from the lane above. The values are those of
    ``stream.uniform()``, in order. Each block advances the stream's
    counter past it; ``rewind`` steps it back over the uniforms not read.
    """

    __slots__ = ("stream", "_block")

    def __init__(self, stream: RandomStream):
        self.stream = stream
        self._block = iter(())

    def blocks(self):
        """Iterators over successive blocks of uniforms (chain them to read one at a time)."""
        ones, steps, mask = _lanes()
        stream = self.stream
        while True:
            state = stream._state
            stream._state = (state + _BLOCK * _GOLDEN) & _MASK64
            z = (state * ones + steps) & mask
            z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
            z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
            z = ((z ^ (z >> 31)) & mask) >> 11
            words = array("Q", z.to_bytes(16 * _BLOCK, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            self._block = iter([w * _INV_2_53 for w in words[::2]])
            yield self._block

    def rewind(self) -> None:
        """Leave the stream's counter just past the last uniform read."""
        unread = length_hint(self._block)
        self.stream._state = (self.stream._state - unread * _GOLDEN) & _MASK64


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
    inline on the same uniforms, read in blocks (_BlockUniforms), with the
    constants of each shape computed once.
    """
    pairs = []
    for alpha, beta in params:
        if alpha <= 0.0 or beta <= 0.0:
            raise DomainError(f"beta parameters must be positive, got ({alpha}, {beta})")
        pairs.append((_gamma_constants(alpha), _gamma_constants(beta)))
    log, sqrt = math.log, math.sqrt
    rows = array("d")
    source = _BlockUniforms(stream)
    uniform = chain.from_iterable(source.blocks()).__next__
    spare = stream._spare_gauss
    try:
        for _ in range(m):
            for pair in pairs:
                while True:
                    gammas = []
                    for d, c, boost in pair:
                        while True:
                            if spare is None:  # RandomStream.gauss
                                while True:
                                    x = 2.0 * uniform() - 1.0
                                    y = 2.0 * uniform() - 1.0
                                    s = x * x + y * y
                                    if 0.0 < s < 1.0:
                                        break
                                f = sqrt(-2.0 * log(s) / s)
                                spare = y * f
                                x = x * f
                            else:
                                x, spare = spare, None
                            t = 1.0 + c * x
                            if t <= 0.0:
                                continue
                            v = t * t * t
                            u = uniform()
                            while u == 0.0:  # uniform_open
                                u = uniform()
                            xx = x * x
                            if (u < 1.0 - 0.0331 * xx * xx
                                    or log(u) < 0.5 * xx + d * (1.0 - v + log(v))):
                                break
                        g = d * v
                        if boost:
                            u = uniform()
                            while u == 0.0:
                                u = uniform()
                            g = g * u ** boost
                        gammas.append(g)
                    ga, gb = gammas
                    total = ga + gb
                    if total > 0.0:
                        x = ga / total
                        if 0.0 < x < 1.0:
                            rows.append(x)
                            break
    finally:
        source.rewind()
        stream._spare_gauss = spare
    return rows


_BINOM_CHUNK = 1000


def _binomial_chunk(n: int, p: float, stream: RandomStream, cdfs: dict) -> int:
    # CDF inversion on the stored CDF of (n, p) in ``cdfs``; requires
    # p <= 0.5 and n <= _BINOM_CHUNK so that the starting mass (1-p)^n stays
    # a normal double. The CDF is extended, with the float steps of a walk
    # up from k = 0, only as far as a uniform needs, so the draw is the
    # smallest k with u < CDF(k), or n when there is none: the walk's k.
    u = stream.uniform()
    table = cdfs.get((n, p))
    if table is None:
        pmf = (1.0 - p) ** n
        table = cdfs[n, p] = [[pmf], pmf]  # CDF(0..k), pmf(k)
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


def _binomial(n: int, p: float, stream: RandomStream, cdfs: dict) -> int:
    if n <= 0:
        return 0
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial(n, 1.0 - p, stream, cdfs)
    total = 0
    while n > _BINOM_CHUNK:
        total += _binomial_chunk(_BINOM_CHUNK, p, stream, cdfs)
        n -= _BINOM_CHUNK
    return total + _binomial_chunk(n, p, stream, cdfs)


# the cdfs key of (pi as a tuple, its float probabilities) for the last
# vector sample_multinomial validated; binomial CDFs are keyed by (size, p)
_VALIDATED_PI = "pi"


def sample_multinomial(pi, n: int, stream: RandomStream, cdfs: dict | None = None) -> list[int]:
    """One multinomial draw of size ``n`` via sequential conditional binomials.

    ``cdfs`` holds the binomial CDFs built so far, keyed by (size, p); a
    caller that draws many times from one ``pi`` passes the same dict to
    every call to reuse them. It also remembers the last ``pi`` it saw
    validated, so an equal vector is not checked again and any other is.
    The counts and the stream's state afterwards do not depend on it.
    """
    if cdfs is None:
        cdfs = {}
    key = tuple(pi)
    validated = cdfs.get(_VALIDATED_PI)
    if validated is not None and validated[0] == key:
        probs = validated[1]
    else:
        probs = [float(x) for x in key]
        if not probs:
            raise DomainError("multinomial needs at least one category")
        if any(x < 0.0 for x in probs):
            raise DomainError("multinomial probabilities must be non-negative")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise DomainError(f"multinomial probabilities must sum to 1, got {sum(probs)!r}")
        cdfs[_VALIDATED_PI] = (key, probs)
    if n < 0 or n != int(n):
        raise DomainError(f"multinomial size must be a non-negative integer, got {n!r}")
    counts: list[int] = []
    remaining = int(n)
    mass = 1.0
    for pj in probs[:-1]:
        if remaining == 0 or mass <= 0.0:
            counts.append(0)
        else:
            cond = min(max(pj / mass, 0.0), 1.0)
            k = _binomial(remaining, cond, stream, cdfs)
            counts.append(k)
            remaining -= k
        mass -= pj
    counts.append(remaining)
    return counts


def empirical_quantile(values, q: float) -> float:
    """Interpolating empirical quantile at one-based index q*(m-1)+1."""
    return sorted_quantile(sorted(values), q)


def sorted_quantile(vals, q: float) -> float:
    """``empirical_quantile`` of a sequence already in ascending order."""
    if not vals:
        raise DomainError("empirical_quantile needs a non-empty sequence")
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"quantile level must be in [0, 1], got {q}")
    pos = q * (len(vals) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(vals[lo])
    w = pos - lo
    return float(vals[lo]) * (1.0 - w) + float(vals[hi]) * w
