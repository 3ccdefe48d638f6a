"""Exact finite discrete distributions on rational points.

Everything here is exact: laws and tails are fractions.Fraction values, and
a tail curve holds int criticals and int tail numerators, each over one
common denominator.  Every sum of independent terms (convolve, iid_sum,
weighted_iid_sum, and the S_i behind every check) is one left fold
S <- S (+) term on an integer lattice: coordinates are scaled by a common
denominator and an n-D point is packed into one int, masses are int
numerators over a common denominator.  One object holds a walk of the
fold and answers every read of it (_Walk): S_i's law and tail curve, the
running max max_{j<=i} ||S_j||'s curve and the envelope max_{j<=k}
Pr(||S_j|| > .), from one pass as far as its reads go, split by running
max when that is read.  Without a running max, a walk that a rule read off
its terms picks (_Walk._slots_pay) holds each S_i as one int of
fixed-width mass slots, so a step is a few big-int shift-adds
(_slot_steps); every other step runs on dicts (_dict_steps): the
convolution loop (_convolve_lattice) for a plain sum, or, split by running
max, one fused loop that sends each pair's sum to its bucket (_split).  A slot width of at most 8 bytes is rounded up to 1,
2, 4 or 8, so one decoder (_slot_nums) reads a slot int by one struct
unpack of native words (wider slots by int.from_bytes each).  A read S_i
stays a slot law until something reads it: its tail curve comes straight
from the slot values, with no atom dict (1-D: folded at zero; n-D: gauges
a row of the packed box at a time), and only readers that need atoms
(dist, the concentration sets) decode them, through the same decoder.
The euclidean norm is handled through squared values (the "gauge") so that
every order comparison against a rational threshold stays rational; abs1d and
sup norms compare radii directly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, repeat, starmap, zip_longest
from math import ceil, comb, floor, gcd, inf, lcm, prod
from operator import add, sub
from struct import Struct, unpack
from typing import Iterable, Mapping, NamedTuple, Union

PointLike = Union[tuple, list, int, Fraction, str]

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_SUPPORT_CAP = 2_000_000

# the slot rule's constants (_Walk._slots_pay)
SLOT_MIN_PAIRS = 40
SLOT_PAIR_BYTES = 256
SLOT_DECODE_BYTES = 8

STRICT = "strict"
WEAK = "weak"
MODES = (STRICT, WEAK)

MAX = "max"   # the read of a running max max_{i<=k} ||S_i|| (_Walk)


class SupportCapExceeded(RuntimeError):
    """An intermediate support grew past the configured atom cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"support size {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


def rat(value) -> Fraction:
    """Coerce to Fraction, rejecting floats and bools (not exact inputs)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing {type(value).__name__} {value!r}: pass "
                        "Fraction, int, or 'p/q' string")
    return Fraction(value)


def _threshold(t) -> Fraction:
    """A threshold t (a radius) as a Fraction; a negative t is refused."""
    t = rat(t)
    if t.numerator < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return t


# index rules of the claims; each also sets the corpus range (corpus._grid)
J_LE_K = "1 <= j <= k"
K_LE_J = "1 <= k <= j"
K_ONLY = "k >= 1"
FIRST_TWO = "(j, k) = (1, 2)"
_ADMITS = {
    J_LE_K: lambda j, k: 1 <= j <= k,
    K_LE_J: lambda j, k: 1 <= k <= j,
    K_ONLY: lambda j, k: k >= 1,
    FIRST_TWO: lambda j, k: (j, k) == (1, 2),
}


def _int(name: str, value) -> int:
    """The one int rule: value, or a TypeError naming it if not an int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not "
                        f"{type(value).__name__} {value!r}")
    return value


def require_indices(order: str, j, k) -> None:
    """The one index rule: refuse j, k unless they are ints obeying order."""
    if order != K_ONLY:
        _int("j", j)
    if not _ADMITS[order](j, _int("k", k)):
        raise ValueError(f"need {order}, got j={j}, k={k}")


def as_point(x: PointLike, dim: "int | None" = None) -> "tuple[Fraction, ...]":
    """Coerce a scalar or coordinate sequence to a canonical point."""
    if isinstance(x, (tuple, list)):
        pt = tuple(rat(c) for c in x)
    else:
        pt = (rat(x),)
    if dim is not None and len(pt) != dim:
        raise ValueError(f"point {x!r} has length {len(pt)}, expected {dim}")
    return pt


class Norm(Enum):
    """Supported norms. abs1d is |x| in dimension 1, sup is max_i |x_i|,
    euclidean is the usual 2-norm compared through its square."""

    ABS1D = "abs1d"
    SUP = "sup"
    EUCLIDEAN = "euclidean"

    @property
    def scale_exponent(self) -> int:
        """e such that gauge(c*x) = c**e * gauge(x) for rational c > 0."""
        return 2 if self is Norm.EUCLIDEAN else 1

    def defined_in(self, dim: int) -> bool:
        """The one rule of where a norm is defined: abs1d in dimension 1
        only, sup and euclidean in every dimension."""
        return self is not Norm.ABS1D or dim == 1

    def require_dim(self, dim: int) -> None:
        if not self.defined_in(dim):
            raise ValueError("abs1d norm requires dimension 1")

    def gauge(self, point: "tuple[Fraction, ...]") -> Fraction:
        """Order-preserving rational stand-in for ||point||: the norm itself
        for abs1d and sup, the squared norm for euclidean."""
        if self is Norm.ABS1D:
            self.require_dim(len(point))
            return abs(point[0])
        if self is Norm.SUP:
            return max(abs(c) for c in point)
        return sum(c * c for c in point)

    def to_gauge(self, t: Fraction) -> Fraction:
        """Map a radius t >= 0 into gauge space (t or t**2)."""
        return t * t if self is Norm.EUCLIDEAN else t


def default_norm(dim: int) -> Norm:
    """The norm of a law whose norm is not named: abs1d in dimension 1,
    euclidean above."""
    return Norm.ABS1D if dim == 1 else Norm.EUCLIDEAN


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be 'strict' or 'weak', got {mode!r}")
    return mode


class DiscreteDist:
    """A finite map point -> probability with probabilities summing to 1.

    Atoms are canonical: points are tuples of Fractions in lowest terms, all
    distinct, all of length ``dim``; probabilities are strictly positive.
    Instances are immutable by convention and compare by value.
    """

    __slots__ = ("dim", "atoms")

    def __init__(self, atoms, dim: "int | None" = None):
        pairs = atoms.items() if isinstance(atoms, Mapping) else list(atoms)
        canon: "dict[tuple[Fraction, ...], Fraction]" = {}
        for x, p in pairs:
            pt = as_point(x)
            if dim is None:
                dim = len(pt)
            elif len(pt) != dim:
                raise ValueError(
                    f"point {pt} has length {len(pt)}, expected dim {dim}"
                )
            prob = rat(p)
            if prob <= 0:
                raise ValueError(f"probability of atom {pt} is {prob}, not positive")
            if pt in canon:
                raise ValueError(f"duplicate atom at {pt}")
            canon[pt] = prob
        if not canon:
            raise ValueError("distribution needs at least one atom")
        total = sum(canon.values())
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected exactly 1")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "atoms", canon)

    @classmethod
    def _trusted(cls, dim: int, atoms: dict) -> "DiscreteDist":
        """The law of atoms, in their order, unchecked: atoms must map
        distinct dim-tuples of Fractions to positive Fractions summing to 1."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "dim", dim)
        object.__setattr__(dist, "atoms", atoms)
        return dist

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDist is immutable")

    @property
    def support(self) -> "list[tuple[Fraction, ...]]":
        """Atoms in sorted (lexicographic) order, for deterministic iteration."""
        return sorted(self.atoms)

    def p(self, x: PointLike) -> Fraction:
        return self.atoms.get(as_point(x, self.dim), ZERO)

    def scalar_items(self) -> "list[tuple[Fraction, Fraction]]":
        """Sorted (value, probability) pairs; only valid in dimension 1."""
        if self.dim != 1:
            raise ValueError("scalar_items requires dimension 1")
        return sorted((x[0], p) for x, p in self.atoms.items())

    def __eq__(self, other):
        if not isinstance(other, DiscreteDist):
            return NotImplemented
        return self.dim == other.dim and self.atoms == other.atoms

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        inner = ", ".join(
            f"{tuple(map(str, x)) if self.dim > 1 else str(x[0])}: {p}"
            for x, p in sorted(self.atoms.items())
        )
        return f"DiscreteDist({{{inner}}})"


def delta(x: PointLike, dim: "int | None" = None) -> DiscreteDist:
    """Point mass at x."""
    return DiscreteDist({as_point(x, dim): ONE})


# -- integer-lattice convolution kernel ------------------------------------
#
# A law is held as (atoms, den): atoms maps a packed lattice point to an int
# mass numerator, and den is the common mass denominator.  Coordinates are
# scaled by one integer `scale` shared by every operand, and an n-D point
# (v_1, ..., v_n) is packed as v_1 + v_2*base + ... + v_n*base**(n-1) with
# balanced digits.  base exceeds twice the largest |coordinate| any
# intermediate sum can reach, so adding two packed points adds every
# coordinate without carries and the packing stays one-to-one.


def _encode(laws: "list[DiscreteDist]"):
    """The lattice terms of laws, as _Walk takes them: (scale, dim,
    terms), coordinates over the least common denominator `scale` of every
    point and each law's masses over the least common denominator of its
    own.  Every law must have the first one's dimension."""
    for law in laws[1:]:
        if law.dim != laws[0].dim:
            raise ValueError(f"dimension mismatch: {laws[0].dim} vs "
                             f"{law.dim}")
    scale = lcm(*{c.denominator for law in laws for pt in law.atoms
                  for c in pt})
    terms = []
    for law in laws:
        den = lcm(*{p.denominator for p in law.atoms.values()})
        terms.append(([([c.numerator * (scale // c.denominator) for c in pt],
                        p.numerator * (den // p.denominator))
                       for pt, p in law.atoms.items()], den))
    return scale, laws[0].dim, terms


def _pack(coords: "list[int]", base: int) -> int:
    """The packed point of lattice coordinates."""
    z = 0
    for v in reversed(coords):
        z = z * base + v
    return z


def _convolve_lattice(a, b, cap: int):
    """The convolution loop: law of U + V on the shared lattice."""
    a_atoms, a_den = a
    b_atoms, b_den = b
    b_items = list(b_atoms.items())
    out: "dict[int, int]" = {}
    get = out.get
    for x, p in a_atoms.items():
        for y, q in b_items:
            z = x + y
            prev = get(z)
            if prev is None:
                if len(out) >= cap:
                    raise SupportCapExceeded(len(out) + 1, cap)
                out[z] = p * q
            else:
                out[z] = prev + p * q
    return out, a_den * b_den


# struct codes of the slot widths that decode as native words (_slot_nums)
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_width(den: int) -> int:
    """The byte width of a slot that holds any mass numerator over den:
    den's byte length, rounded up to 1, 2, 4 or 8 bytes when it is at
    most 8, so that such a slot decodes as one native word."""
    width = (den.bit_length() + 7) // 8
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _slot_nums(packed: int, width: int):
    """The one slot decoder: the values of the `width`-byte slots of
    `packed`, lowest slot first.  Widths 1, 2, 4 and 8 decode by one struct
    unpack of native words; wider slots by int.from_bytes each."""
    count = -(-packed.bit_length() // (8 * width))
    data = packed.to_bytes(count * width, "little")
    word = _WORDS.get(width)
    if word:
        return unpack(f"<{count}{word}", data)
    return list(map(int.from_bytes, Struct(f"{width}s" * count).unpack(data),
                    repeat("little")))


class _Slots(NamedTuple):
    """A lattice law held as a slot int (_slot_steps): slot j of
    `packed`, `width` bytes wide, holds the mass numerator of the packed
    point low + j*step, over den."""

    packed: int
    low: int
    step: int
    width: int
    den: int


def _atoms(law):
    """A lattice law as (atoms, den): a slot law decoded into its atom
    dict, any other law as it is."""
    if not isinstance(law, _Slots):
        return law
    nums = _slot_nums(law.packed, law.width)
    points = range(law.low, law.low + len(nums) * law.step, law.step)
    return dict(compress(zip(points, nums), nums)), law.den


def _folded(nums, low: int, step: int):
    """(|z| ascending, mass at each |z|) of a 1-D slot law whose slot j
    holds the mass of z = low + j*step: the law folded at zero.  The slots
    of z >= 0, and those of z < 0 reversed, each run up |z| by step; their
    two grids either coincide, and the runs add slot by slot (zero on the
    grid, or both runs starting at step/2), or interleave.  Masses may be
    0 where no atom lies."""
    zero = min(max(-(low // step), 0), len(nums))    # first slot at z >= 0
    up, down = nums[zero:], nums[zero - 1::-1] if zero else ()
    a = low + zero * step                            # |z| of up[0]
    b = step - a                                     # |z| of down[0]
    if not down or not up:
        start = a if up else b
        return range(start, start + len(nums) * step, step), up or down
    if a == 0 or 2 * a == step:
        shift = repeat(0, (b - a) // step)           # 1 with zero on the grid
        return range(a, a + len(nums) * step, step), list(starmap(
            add, zip_longest(up, (*shift, *down), fillvalue=0)))
    (a, first), (b, second) = sorted(((a, up), (b, down)))
    n = max(len(up), len(down))
    mags, masses = [0] * (2 * n), [0] * (2 * n)
    mags[0::2], mags[1::2] = (range(c, c + n * step, step) for c in (a, b))
    masses[0:2 * len(first):2], masses[1:2 * len(second):2] = first, second
    return mags, masses


def _row_gauges(nums, low: int, step: int, base: int, dim: int,
                euclidean: bool) -> "list[int]":
    """The int gauge of every slot of an n-D slot law (slot j at the packed
    point low + j*step), a row of the packed box at a time: a row is a run
    of slots that share every coordinate but the first, so its gauges are
    the gauge of those coordinates joined with the square (euclidean) or
    absolute value (sup) of each first coordinate.  Those terms are kept
    per row start and length, and only for the slots a row holds, so the
    cost follows the slot count, not base."""
    half = base // 2
    upper = _packed_gauge(base, dim - 1, euclidean)
    rows: "dict[tuple[int, int], list[int]]" = {}
    gauges: "list[int]" = []
    z, left = low + half, len(nums)
    while left:
        rest, v = divmod(z, base)                    # first coordinate v - half
        row = range(v - half, half + 1, step)[:left]
        terms = rows.get((v, len(row)))
        if terms is None:
            terms = rows[v, len(row)] = [x * x for x in row] if euclidean \
                else list(map(abs, row))
        g = upper(rest)
        gauges += [g + x for x in terms] if euclidean else \
            [x if x > g else g for x in terms]
        left -= len(row)
        z += len(row) * step
    return gauges


def _unpack(z: int, base: int, dim: int) -> "list[int]":
    """The lattice coordinates of a packed point."""
    half = base // 2
    coords = []
    for _ in range(dim):
        v = z % base
        if v > half:
            v -= base
        coords.append(v)
        z = (z - v) // base
    return coords


def _packed_gauge(base: int, dim: int, euclidean: bool):
    """norm.gauge(_unpack(z, base, dim)) of an n-D packed point z, read off
    its balanced digits in ints: sum of v**2 (euclidean) or max |v| (sup).
    Below the top digit each step peels one coordinate; what is left is
    the top coordinate itself."""
    half, lower = base // 2, range(dim - 1)

    def gauge(z: int) -> int:
        g = 0
        for _ in lower:
            z, v = divmod(z + half, base)
            v -= half
            if euclidean:
                g += v * v
            elif g < abs(v):
                g = abs(v)
        return g + z * z if euclidean else max(g, abs(z))
    return gauge


def _split(buckets, term, gauge, cap):
    """A step of the split pass, in one loop: each pair of an atom x of
    bucket m and an atom y of term sends its mass to the sum z = x + y in
    bucket max(m, gauge(z)), with no law of the bucket's sums in between.
    The sums of x with every y, and their gauges, are listed once per
    step, however many buckets hold x.  SupportCapExceeded(cap + 1, cap)
    once the distinct states (z, m) pass cap."""
    term_items = list(term[0].items())
    den = next(iter(buckets.values()))[1] * term[1]    # every bucket's
    sums, gauges, out, states = {}, {}, {}, 0
    for m, (atoms, _) in buckets.items():
        mine = out.setdefault(m, {})
        for x, p in atoms.items():
            to = sums.get(x)
            if to is None:
                to = sums[x] = []
                for y, q in term_items:
                    z = x + y
                    g = gauges.get(z)
                    if g is None:
                        g = gauges[z] = gauge(z)
                    to.append((z, g, q))
            for z, g, q in to:
                into = mine if g <= m else out.get(g)
                if into is None:
                    into = out[g] = {}
                prev = into.get(z)
                if prev is None:
                    if states >= cap:
                        raise SupportCapExceeded(cap + 1, cap)
                    states += 1
                    into[z] = p * q
                else:
                    into[z] = prev + p * q
    # a bucket whose every sum moved up is left empty, and dropped
    return {m: (atoms, den) for m, atoms in out.items() if atoms}


def _merged(buckets):
    """S_i's lattice law: one step's bucket laws summed point by point."""
    laws = list(buckets.values())
    if len(laws) == 1:
        return laws[0]
    atoms = {}
    for part, den in laws:
        for z, p in part.items():
            atoms[z] = atoms.get(z, 0) + p
    return atoms, den


def _dict_steps(terms, n: int, cap: int, gauge, reads):
    """A pass (_Walk) on dict laws.  Split by running max when a gauge is
    given: S_i is held as buckets, int gauge m -> the law of S_i on
    max_{j<=i} gauge(S_j) = m, and a step is the fused loop _split, which
    sends the sum z of each pair of a bucket atom and a term atom straight
    to bucket max(m, gauge(z)); S_1 is S_0 = 0 stepped the same way, and
    cap bounds the states (z, m) of each step after the first.  The
    running max's law is (int gauge -> int mass, mass denominator).
    Without a gauge there is one bucket, None, and a step is one
    convolution (_convolve_lattice), whose cap bounds S_i.  A step that
    passes cap raises SupportCapExceeded(cap + 1, cap), split or not."""
    # S_1: S_0 = 0 stepped by the first term, in bucket -1 < every gauge
    buckets = _split({-1: ({0: 1}, 1)}, terms[0], gauge, inf) if gauge \
        else {None: terms[0]}
    den = terms[0][1]
    for i in range(1, n + 1):
        if i > 1:
            term = terms[(i - 1) % len(terms)]
            den *= term[1]
            buckets = _split(buckets, term, gauge, cap) if gauge else \
                {None: _convolve_lattice(buckets[None], term, cap)}
        yield (_merged(buckets) if reads is None or i in reads else None,
               gauge and ({m: sum(atoms.values())
                           for m, (atoms, _) in buckets.items()}, den))


def _slot_steps(terms, n: int, grid, reads):
    """A pass (_Walk) without a norm on slots: S_i is one int whose slot j,
    `width` bytes wide, holds the mass numerator of low_i + j*step (grid,
    _Walk._grid).  No numerator exceeds 2**(8*width), so slots never carry,
    and a step by a term T is sum over (y, q) in T of (S*q) shifted by
    (y - min T)/step slots: |T| linear big-int passes.  Nothing is decoded
    here: a reader of S_i decodes its slot law (_Slots, _slot_nums)."""
    step, width, _ = grid
    bits = 8 * width
    plan = [(min(atoms), den, [((z - min(atoms)) // step * bits, q)
                               for z, q in atoms.items()])
            for atoms, den in terms]
    packed, low, den = 1, 0, 1           # S_0 = 0
    for i in range(1, n + 1):
        term_low, term_den, shifts = plan[(i - 1) % len(plan)]
        packed = sum((packed * q) << s for s, q in shifts)
        low, den = low + term_low, den * term_den
        yield (_Slots(packed, low, step, width, den)
               if reads is None or i in reads else None), None


class _Walk:
    """The partial sums S_i = T_1 + ... + T_i of independent terms, by the
    left fold S_i = S_{i-1} (+) T_i: the one way a sum is built, and the one
    object that answers every read of it.  The terms are lattice ints, as
    _encode gives them: each a list of (int coordinates, int mass
    numerator) pairs over an int mass denominator, coordinates over scale;
    the fold cycles through them, on a lattice packed for n terms.

    n is the largest S_i in `reads`, and one pass goes that far, split by
    running max iff reads hold MAX.  It keeps the lattice law of each S_i
    in reads (on slots as slot laws, which a curve reads without decoding
    them into atoms) and, with MAX, the running max's law at each step (a
    curve once read), and drops every other law once passed.  A read
    outside reads raises ValueError; one at or past the step where the
    pass stopped at the cap raises SupportCapExceeded again.  Each pass,
    which yields (S_i's law or None, the running max's law or None) per
    step i, is a module generator of the terms (_dict_steps, _slot_steps):
    a method's frame would hold the walk, a cycle that keeps every law
    read until the cyclic GC."""

    def __init__(self, scale: int, dim: int, terms, reads, cap: int,
                 norm: "Norm | None" = None):
        self.reads = reads = frozenset(reads)
        n = max(reads - {MAX}, default=MAX)   # k == MAX: _int refuses it
        if _int("k", n) < 1:
            raise ValueError(f"k must be >= 1, got {n}")
        self.dim, self.n, self.scale, self.norm = dim, n, scale, norm
        self._unit = norm and scale ** norm.scale_exponent   # gauge unit
        self.cap = _int("cap", cap)
        self.encoded = terms
        reach = max((abs(v) for atoms, _ in terms for coords, _ in atoms
                     for v in coords), default=0)
        # a base able to hold sums of n of the terms' points
        self.base = base = 2 * n * reach + 3
        self.terms = [({_pack(coords, base): p for coords, p in atoms}, den)
                      for atoms, den in terms]
        self.on_slots = (n - 1) * max(len(atoms) for atoms, _ in self.terms) \
            >= SLOT_MIN_PAIRS and self._slots_pay()
        self._pass = _dict_steps(self.terms, n, self.cap, self._gauge(norm),
                                 reads) if MAX in reads else self._sums(reads)
        self._laws, self._maxima = [], []       # per step
        self._curves, self._envelopes = {}, []  # per S_i read, per k
        self._cap_error = None        # (size, cap) where the pass stopped

    @cached_property
    def _grid(self):
        """(step, width, slots): the slot grid of the fold, computed once
        per walk.  Every S_i lies on low_i + step*Z, low_i the sum of its
        terms' least packed points and step the gcd of every term point's
        offset from its term's least; S_n spans `slots` grid points; and
        `width` holds S_n's mass denominator, the product of the terms',
        which bounds every mass numerator of every S_i (_slot_width)."""
        count = len(self.terms)
        uses = [len(range(t, self.n, count)) for t in range(count)]
        step = gcd(*(z - min(atoms) for atoms, _ in self.terms
                     for z in atoms)) or 1
        span = sum(u * (max(atoms) - min(atoms))
                   for u, (atoms, _) in zip(uses, self.terms))
        den = prod(den ** u for u, (_, den) in zip(uses, self.terms))
        return step, _slot_width(den), span // step + 1

    def _slots_pay(self) -> bool:
        """The rule that puts the fold without a norm on slots.  It reads
        only n, the terms' sizes, spans and denominators, and cap:
          - slots <= cap: S_n cannot pass cap, so SupportCapExceeded is
            raised only on the dict loop, at the step it always was;
          - (width + SLOT_DECODE_BYTES) * slots <= SLOT_PAIR_BYTES * atoms,
            width the rounded slot width (_slot_width) and atoms the bound
            min(slots, distinct sums) on S_n's atoms (a sum is fixed by the
            multiset of draws from each group of equal terms).  Measured
            under CPython 3.11 on a 2-core Xeon VM, a slot step costs
            ~0.6-1.6 ns per byte of S and term atom, the dict loop ~150-450
            ns per atom of S and term atom, and decoding (_slot_nums) ~25-35
            ns per slot of 8 bytes or fewer and ~130-200 ns per wider slot,
            which at (n - 1) * |T| >= SLOT_MIN_PAIRS is at most ~8 bytes
            per slot of the fold; so slots are taken only where they cost
            at most about what the dict loop does.
        Walks below SLOT_MIN_PAIRS ((n - 1) * max|T|, the term atoms the
        fold passes each atom of S through) stay on the dict loop without
        this test: there the slot path ran 0.4-3x the dict loop's time, and
        the test itself would cost about as much as their fold."""
        _, width, slots = self._grid
        if slots > self.cap:
            return False
        uses = {}
        for i in range(min(self.n, len(self.terms))):
            term = frozenset(self.terms[i][0].items())
            uses[term] = uses.get(term, 0) + len(range(i, self.n,
                                                       len(self.terms)))
        sums = prod(comb(u + len(term) - 1, u) for term, u in uses.items())
        return (width + SLOT_DECODE_BYTES) * slots \
            <= SLOT_PAIR_BYTES * min(slots, sums)

    def _sums(self, reads):
        """A pass without a norm, on slots iff on_slots."""
        if self.on_slots:
            return _slot_steps(self.terms, self.n, self._grid, reads)
        return _dict_steps(self.terms, self.n, self.cap, None, reads)

    def sums(self):
        """The lattice laws of S_1, ..., S_n, lazily, by a pass of their
        own that keeps none of them."""
        return (law for law, _ in self._sums(None))

    def _step(self, i: int) -> None:
        """Take the pass to step i.  Past the step where it stopped at the
        cap, every read raises its SupportCapExceeded again."""
        while len(self._maxima) < i:
            if self._cap_error is not None:
                raise SupportCapExceeded(*self._cap_error)
            try:
                law, maxima = next(self._pass)
            except SupportCapExceeded as exc:
                # the sizes, not exc, whose traceback would hold self
                self._cap_error = exc.size, exc.cap
                raise
            self._laws.append(law)
            self._maxima.append(maxima)

    def law(self, i: int):
        """S_i's lattice law: (atoms, den), or on slots its slot law."""
        if i not in self.reads:
            raise ValueError(f"S_{i} is not among the sums this walk "
                             f"reads, {sorted(self.reads - {MAX})}")
        self._step(i)
        return self._laws[i - 1]

    def curve(self, i: int) -> TailCurve:
        """S_i's tail curve under the walk's norm, built once."""
        if i not in self._curves:
            self._curves[i] = self._law_curve(self.law(i))
        return self._curves[i]

    def max_curve(self, k: int) -> TailCurve:
        """The tail curve of max_{i<=k} ||S_i||, made on its first read."""
        if MAX not in self.reads or k > self.n:
            raise ValueError(f"the running max to k={k} is not read")
        self._step(k)
        if not isinstance(law := self._maxima[k - 1], TailCurve):
            law = self._maxima[k - 1] = _gauge_curve(
                self.norm, law[0], self._unit, law[1])
        return law

    def envelope(self, k: int) -> TailCurve:
        """max_{i<=k} Pr(||S_i|| > .), the envelope to k - 1 raised by S_k's
        curve."""
        while len(self._envelopes) < k:
            curve = self.curve(len(self._envelopes) + 1)
            self._envelopes.append(upper_envelope(
                [self._envelopes[-1], curve]) if self._envelopes else curve)
        return self._envelopes[k - 1]

    def dist(self, law) -> DiscreteDist:
        """The DiscreteDist of a lattice law, its atoms in ascending packed
        order (lexicographic on reversed coordinates) whatever built it."""
        atoms, den = _atoms(law)
        if sum(atoms.values()) != den:
            raise ArithmeticError("lattice masses do not sum to their "
                                  "denominator")
        return DiscreteDist._trusted(self.dim, {
            tuple(Fraction(v, self.scale)
                  for v in _unpack(z, self.base, self.dim)):
            Fraction(atoms[z], den) for z in sorted(atoms)})

    def _gauge(self, norm: "Norm"):
        """The gauge of a packed point, an int: scale**e times the gauge of
        the point it stands for, so it orders points the same way."""
        if self.dim == 1:
            # a packed 1-D point is its own coordinate
            return (lambda z: z * z) if norm is Norm.EUCLIDEAN else abs
        norm.require_dim(self.dim)
        return _packed_gauge(self.base, self.dim, norm is Norm.EUCLIDEAN)

    def _law_curve(self, law) -> "TailCurve":
        """The tail curve of a lattice law under the walk's norm.  A slot
        law gives it straight from its slot values, with no atom dict: in
        1-D folded at zero (_folded), whose |z| ascend, so one accumulate
        gives the tail numerators; in n-D by the gauges of whole rows
        (_row_gauges), summed per gauge in one pass."""
        norm, unit, gauge = self.norm, self._unit, self._gauge(self.norm)
        if isinstance(law, _Slots):
            nums, den = _slot_nums(law.packed, law.width), law.den
            if self.dim == 1:
                mags, masses = _folded(nums, law.low, law.step)
                return _sorted_curve(norm, list(map(gauge, compress(
                    mags, masses))), list(compress(masses, masses)), unit, den)
            pairs = zip(compress(_row_gauges(
                nums, law.low, law.step, self.base, self.dim,
                norm is Norm.EUCLIDEAN), nums), compress(nums, nums))
        else:
            atoms, den = law
            pairs = zip(map(gauge, atoms), atoms.values())
        mass: "dict[int, int]" = {}
        for g, num in pairs:
            mass[g] = mass.get(g, 0) + num
        return _gauge_curve(norm, mass, unit, den)


def convolve(a: DiscreteDist, b: DiscreteDist,
             cap: int = DEFAULT_SUPPORT_CAP) -> DiscreteDist:
    """Law of U + V for independent U ~ a, V ~ b, with exact merging."""
    walk = _Walk(*_encode([a, b]), {2}, cap)
    return walk.dist(walk.law(2))


def affine(a: DiscreteDist, scale, shift: PointLike = 0) -> DiscreteDist:
    """Law of scale*U + shift; atoms merge when scale = 0."""
    s = rat(scale)
    sh = as_point(shift, a.dim) if isinstance(shift, (tuple, list)) \
        else (rat(shift),) * a.dim
    out: "dict[tuple[Fraction, ...], Fraction]" = {}
    for x, p in a.atoms.items():
        z = tuple(s * xi + ci for xi, ci in zip(x, sh))
        out[z] = out.get(z, ZERO) + p
    return DiscreteDist(out, dim=a.dim)


def iid_sum(x: DiscreteDist, k: int, cap: int = DEFAULT_SUPPORT_CAP) -> DiscreteDist:
    """Exact law of S_k = X_1 + ... + X_k for i.i.d. X_i ~ x: the k-th law
    of the left fold S_i = S_{i-1} (+) X over k copies of x."""
    walk = _Walk(*_encode([x]), {_int("k", k)}, cap)
    return walk.dist(walk.law(k))


def _weighted_walk(scale: int, dim: int, term, alphas: Iterable, cap: int,
                   norm: "Norm | None" = None) -> _Walk:
    """The walk of alpha_1 X_1 + ... + alpha_k X_k, read at its last sum:
    X's lattice term (as _Walk takes it, coordinates over scale), refined
    by the alphas' denominators, with every point times the int alpha_i
    takes on that lattice; a zero weight merges X into 0."""
    alphas = [rat(a) for a in alphas]
    if not alphas:
        raise ValueError("alphas must be nonempty")
    lift = lcm(*(a.denominator for a in alphas))
    mults = [a.numerator * (lift // a.denominator) for a in alphas]
    atoms, den = term
    terms = [([([m * v for v in coords], p) for coords, p in atoms]
              if m else [([0] * dim, den)], den) for m in mults]
    return _Walk(scale * lift, dim, terms, {len(mults)}, cap, norm)


def weighted_iid_sum(x: DiscreteDist, alphas: Iterable,
                     cap: int = DEFAULT_SUPPORT_CAP) -> DiscreteDist:
    """Exact law of sum_i alpha_i X_i for i.i.d. X_i ~ x."""
    scale, dim, (term,) = _encode([x])
    walk = _weighted_walk(scale, dim, term, alphas, cap)
    return walk.dist(walk.law(walk.n))


def tail(a: DiscreteDist, norm: Norm, t, mode: str = STRICT) -> Fraction:
    """Exact Pr(||U|| > t) (strict) or Pr(||U|| >= t) (weak)."""
    return tail_curve(a, norm).at_radius(t, mode)


@dataclass(frozen=True, init=False)
class TailCurve:
    """The survival function t -> Pr(||U|| > t) as a finite step function.

    criticals are the distinct gauge values of the support, sorted ascending
    (squared radii under the euclidean norm); values[i] = Pr(gauge > criticals[i]),
    so values is nonincreasing and ends at 0.  Below the first critical the
    survival probability is 1.

    A curve is held in ints: criticals[i] = crits[i] / unit and values[i] =
    nums[i] / den, each over its least common denominator, so two curves
    equal as functions have equal fields whatever lattice each came from.
    criticals and values are read-only Fraction views of those ints.
    """

    norm: Norm
    unit: int
    crits: "tuple[int, ...]"
    den: int
    nums: "tuple[int, ...]"

    def __init__(self, norm: Norm, criticals, values):
        qs, vs = [rat(q) for q in criticals], [rat(v) for v in values]
        if len(qs) != len(vs):
            raise ValueError("criticals and values must have equal length")
        if not qs:
            raise ValueError("a tail curve needs at least one critical")
        unit, den = (lcm(*(f.denominator for f in fs)) for fs in (qs, vs))
        crits = tuple(int(q * unit) for q in qs)
        nums = tuple(int(v * den) for v in vs)
        if any(b <= a for a, b in zip(crits, crits[1:])):
            raise ValueError("criticals must be strictly increasing")
        if any(b > a for a, b in zip(nums, nums[1:])):
            raise ValueError("values must be nonincreasing")
        if nums[-1] != 0:
            raise ValueError("survival beyond the largest critical must be 0")
        self._set(norm, unit, crits, den, nums)

    @classmethod
    def _of(cls, norm: Norm, unit: int, crits, den: int, nums) -> "TailCurve":
        """Trusted constructor from int criticals over unit and int tail
        numerators over den, in curve order; both units are reduced to the
        least ones."""
        g, h = gcd(unit, *crits), gcd(den, *nums)
        return object.__new__(cls)._set(norm, unit // g, _over(crits, g),
                                        den // h, _over(nums, h))

    def _set(self, *values) -> "TailCurve":
        for name, value in zip(_CURVE_FIELDS, values):
            object.__setattr__(self, name, value)
        return self

    @property
    def criticals(self) -> "tuple[Fraction, ...]":
        return tuple(Fraction(c, self.unit) for c in self.crits)

    @property
    def values(self) -> "tuple[Fraction, ...]":
        return tuple(Fraction(n, self.den) for n in self.nums)

    def at_gauge(self, q, mode: str = STRICT) -> Fraction:
        """Evaluate at a threshold already in gauge space."""
        _check_mode(mode)
        x = rat(q) * self.unit
        if mode == STRICT:
            i = bisect_right(self.crits, floor(x))
        else:
            i = bisect_left(self.crits, ceil(x))
        return ONE if i == 0 else Fraction(self.nums[i - 1], self.den)

    def at_radius(self, t, mode: str = STRICT) -> Fraction:
        return self.at_gauge(self.norm.to_gauge(_threshold(t)), mode)


_CURVE_FIELDS = tuple(f.name for f in fields(TailCurve))


def _over(values, g: int) -> "tuple[int, ...]":
    """values, each divided by their common divisor g."""
    return tuple(values) if g == 1 else tuple(v // g for v in values)


def _gauge_curve(norm: Norm, mass: "dict[int, int]", unit: int,
                 den: int) -> TailCurve:
    """The TailCurve of a law given as a map int gauge value -> int mass
    numerator, gauge values over `unit` and masses over `den`."""
    crits = sorted(mass)
    return _sorted_curve(norm, crits, [mass[g] for g in crits], unit, den)


def _sorted_curve(norm: Norm, crits: "list[int]", masses: "list[int]",
                  unit: int, den: int) -> TailCurve:
    """The TailCurve of distinct int gauge values in ascending order and
    the int mass numerator at each, gauge values over `unit` and masses
    over `den`: the tail numerators are the masses strictly above each
    critical, summed top down."""
    above = accumulate(masses[:0:-1], initial=0)
    return TailCurve._of(norm, unit, crits, den, list(above)[::-1])


def tail_curve(a: DiscreteDist, norm: Norm) -> TailCurve:
    """Exact survival step function of ||U|| in gauge space."""
    return _Walk(*_encode([a]), {1}, DEFAULT_SUPPORT_CAP, norm).curve(1)


def path_max_tail(x: DiscreteDist, k: int, norm: Norm, t,
                  mode: str = STRICT, cap: int = DEFAULT_SUPPORT_CAP) -> Fraction:
    """Exact Pr(sup_{1<=j<=k} ||S_j|| > t) (or >= t in weak mode).

    cap bounds the (sum, running max) states of each step of the pass.
    """
    return path_max_curve(x, k, norm, cap).at_radius(t, mode)


def first_exceedance_probs(x: DiscreteDist, k: int, norm: Norm, t,
                           mode: str = STRICT,
                           cap: int = DEFAULT_SUPPORT_CAP) -> "list[Fraction]":
    """Pr(A_j) for A_j = {||S_i|| inside for all i < j, ||S_j|| outside}.

    Pr(A_j) = Pr(max_{i<=j} ||S_i|| > t) - Pr(max_{i<j} ||S_i|| > t), read
    off consecutive horizons of one running-max pass, so the Pr(A_j) sum to
    path_max_tail exactly.
    """
    walk = _Walk(*_encode([x]), {_int("k", k), MAX}, cap, norm)
    tails = [walk.max_curve(i).at_radius(t, mode) for i in range(1, k + 1)]
    return [b - a for a, b in zip([ZERO] + tails, tails)]


def path_max_gauge_dist(x: DiscreteDist, k: int, norm: Norm,
                        cap: int = DEFAULT_SUPPORT_CAP) -> "dict[Fraction, Fraction]":
    """Exact law of max_{1<=j<=k} gauge(S_j) as a map gauge value -> mass:
    the drops of its tail curve, the mass at each critical."""
    curve = path_max_curve(x, k, norm, cap)
    return {Fraction(c, curve.unit): Fraction(p, curve.den) for c, p in zip(
        curve.crits, map(sub, (curve.den, *curve.nums), curve.nums))}


def path_max_curve(x: DiscreteDist, k: int, norm: Norm,
                   cap: int = DEFAULT_SUPPORT_CAP) -> TailCurve:
    """Tail curve (in gauge space) of the running maximum max_j ||S_j||."""
    return _Walk(*_encode([x]), {_int("k", k), MAX}, cap, norm).max_curve(k)


def upper_envelope(curves: "list[TailCurve]") -> TailCurve:
    """Pointwise maximum of survival step curves, again a step curve.

    All inputs share a norm.  The envelope jumps only where some input
    jumps, so its criticals are the union of the inputs' criticals.
    """
    if not curves:
        raise ValueError("need at least one curve")
    norm = curves[0].norm
    if any(c.norm is not norm for c in curves):
        raise ValueError("curves use different norms")
    unit = lcm(*(c.unit for c in curves))
    den = lcm(*(c.den for c in curves))
    cs = [[g * (unit // c.unit) for g in c.crits] for c in curves]
    xs = sorted(set().union(*cs))
    columns = []
    for crits, c in zip(cs, curves):   # its tail over den at each critical
        vals, up = (c.den, *c.nums), den // c.den
        columns.append([vals[bisect_right(crits, x)] * up for x in xs])
    return TailCurve._of(norm, unit, xs, den,
                         [max(ns) for ns in zip(*columns)])
