import copy
import hashlib
import json
import math
import pickle
import random
import sys
import threading
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deadline import within
from ttsupport import modcalc, znum
from ttsupport.homalg import homology, scalar_cone, tensor_chain, unit_complex
from ttsupport.modcalc import (
    Cyclic,
    GradedModule,
    Module,
    kunneth,
    localize_point,
    supp_mod,
    tensor_mod,
    tor_mod,
)
from oracles import naive_bilinear, naive_kunneth, naive_supp
from ttsupport.randgen import (
    SMALL_PRIMES,
    random_complex,
    random_cyclic,
    random_engineered_graded,
    random_graded,
    random_module,
    random_primeset,
)
from ttsupport.verify import _IDEMPOTENT_PRIMES, _generator_cyclics, run_verify
from ttsupport.znum import GENERIC, PointSet, PrimeSet, SpecZPoint, primes_up_to

Z = Cyclic.free(PrimeSet.none())
Q = Cyclic.rationals()


def fg_complex(c: Cyclic):
    """Free resolution of a finitely generated block, as a perfect complex."""
    if c.kind == "free" and c.primes.is_empty():
        return unit_complex()
    if c.kind == "torsion":
        return scalar_cone(c.p**c.k)
    raise ValueError("only finitely generated blocks have perfect resolutions")


FG_BLOCKS = [
    Z,
    Cyclic.torsion(2, 1),
    Cyclic.torsion(2, 3),
    Cyclic.torsion(3, 2),
    Cyclic.torsion(5, 1),
    Cyclic.torsion(7, 2),
]

GENERATORS = FG_BLOCKS + [
    Cyclic.free(PrimeSet.of([2])),
    Cyclic.free(PrimeSet.of([3, 5])),
    Cyclic.free(PrimeSet.cofinite([2])),
    Q,
    Cyclic.prufer(PrimeSet.of([2])),
    Cyclic.prufer(PrimeSet.of([2, 7])),
    Cyclic.prufer(PrimeSet.cofinite([3])),
    Cyclic.prufer(PrimeSet.all_primes()),
]

PROBE_PRIMES = [2, 3, 5, 7, 11, 13]


def module_products(x: Module, y: Module) -> tuple[Module, Module]:
    """The tensor product and Tor of two modules: degrees 0 and -1 of the
    Kunneth product of x and y placed in degree 0."""
    got = kunneth(GradedModule.of({0: x}), GradedModule.of({0: y}))
    return got.module_in(0), got.module_in(-1)


class TestCanonicalForms:
    def test_module_multiset(self):
        a = Module.of([Cyclic.torsion(2, 1), Z, Cyclic.torsion(2, 1)])
        assert a == Module.of([(Cyclic.torsion(2, 1), 2), (Z, 1)])

    def test_prufer_empty_forbidden(self):
        with pytest.raises(ValueError, match="prufer"):
            Cyclic.prufer(PrimeSet.none())

    def test_torsion_validation(self):
        with pytest.raises(ValueError):
            Cyclic.torsion(4, 1)
        with pytest.raises(ValueError):
            Cyclic.torsion(2, 0)

    def test_orders_from_ten_to_the_4300_print_as_powers(self):
        # 2^14284 < 10^4300 < 2^14285 and 3^9012 < 10^4300 < 3^9013
        assert str(Cyclic.torsion(2, 14284)) == f"Z/{2**14284}"
        assert str(Cyclic.torsion(2, 14285)) == "Z/2^14285"
        assert str(Cyclic.torsion(3, 9012)) == f"Z/{3**9012}"
        assert str(Cyclic.torsion(3, 9013)) == "Z/3^9013"
        assert within(5, lambda: str(Cyclic.torsion(7, 10**12))) == "Z/7^1000000000000"

    def test_zero_prints_as_0(self):
        assert str(Module.zero()) == "0"
        assert str(GradedModule.zero()) == "0"

    def test_graded_drops_zero(self):
        assert GradedModule.of({0: [], 2: [Z]}).degrees() == [2]

    def test_json_roundtrip(self):
        x = GradedModule.of({-1: [Q, Cyclic.prufer(PrimeSet.of([2]))], 3: [(Z, 2)]})
        assert GradedModule.from_json(x.to_json()) == x


class TestExactConstruction:
    """Module.of and GradedModule.of take degrees and multiplicities that are
    exactly integers, where int() would truncate a float or read a string."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: GradedModule.of({1.9: [Cyclic.torsion(2, 1)]}),
                "degree: expected an integer, got 1.9",
            ),
            (
                lambda: GradedModule.of({"3": [Cyclic.torsion(2, 1)]}),
                "degree: expected an integer, got '3'",
            ),
            (
                lambda: Module.of([(Cyclic.torsion(2, 1), 1.5)]),
                "multiplicity of Z/2: expected an integer, got 1.5",
            ),
            (
                lambda: Module.of([(Cyclic.torsion(2, 1), True)]),
                "multiplicity of Z/2: expected an integer, got True",
            ),
        ],
        ids=["float-degree", "string-degree", "float-multiplicity", "bool-multiplicity"],
    )
    def test_inexact_input_is_refused(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_exact_integer_types_are_accepted(self):
        class Tagged(int):
            pass

        x = GradedModule.of({Tagged(1): [(Z, Tagged(2))]})
        assert x == GradedModule.of({1: [(Z, 2)]})
        (n, m), = x.graded
        assert type(n) is int and type(m.parts[0][1]) is int


def _block_entry(kind, primes=None, p=None, k=None):
    """The block that the table holds for this key, or None."""
    return modcalc._CYCLICS.get((kind, primes, p, k))


def drawn_by_verify(s):
    """Whether the prime set s lists only verify's first ten primes, or at
    most three of the primes that idempotent-laws draws from."""
    listed = set(s.primes)
    return listed <= set(SMALL_PRIMES) or len(listed) <= 3 and listed <= set(_IDEMPOTENT_PRIMES)


class TestHashConsing:
    def test_every_construction_path_gives_the_same_object(self):
        two = PrimeSet.of([2])
        t = Cyclic.torsion(2, 3)
        f = Cyclic.free(two)
        u = Cyclic.prufer(PrimeSet.cofinite([3]))
        assert t is Cyclic("torsion", p=2, k=3) is Cyclic("torsion", None, 2, 3)
        assert t is Cyclic.from_json({"kind": "torsion", "p": "2", "k": 3})
        assert f is Cyclic("free", two) is Cyclic.free(PrimeSet(True, (2,)))
        assert f is Cyclic.from_json({"kind": "free", "invert": two.to_json()})
        assert u is Cyclic("prufer", primes=PrimeSet.of([3]).complement())
        assert u is Cyclic.from_json({"kind": "prufer", "primes": {"mode": "cofinite", "primes": [3]}})
        assert Cyclic.free() is Cyclic.free(PrimeSet.none()) is Z
        assert Cyclic.rationals() is Cyclic("free", PrimeSet.all_primes()) is Q
        for c in (t, f, u, Z, Q):
            assert c is copy.copy(c) is copy.deepcopy(c) is pickle.loads(pickle.dumps(c))
            assert _block_entry(c.kind, c.primes, c.p, c.k) is c
        m = Module.of([t, (f, 2)])
        assert pickle.loads(pickle.dumps(m)) == m and copy.deepcopy(m) == m

    @given(st.builds(random_cyclic, st.randoms(use_true_random=False)),
           st.builds(random_cyclic, st.randoms(use_true_random=False)))
    def test_equality_is_identity(self, a, b):
        assert (a == b) == (a is b)
        assert (a == b) == ((a.kind, a.primes, a.p, a.k) == (b.kind, b.primes, b.p, b.k))
        assert (a == b) == (a.sort_key() == b.sort_key())

    def test_values_are_immutable(self):
        with pytest.raises(AttributeError):
            Z.kind = "torsion"
        assert repr(Cyclic.torsion(3, 1)) == "Cyclic(kind='torsion', primes=None, p=3, k=1)"

    @pytest.mark.parametrize(
        "kind, primes, p, k, message",
        [
            ("free", None, None, None, "free block takes exactly a prime set"),
            ("free", PrimeSet.none(), 2, None, "free block takes exactly a prime set"),
            ("torsion", None, 2, None, "torsion block takes a prime and an exponent"),
            ("torsion", PrimeSet.none(), 2, 1, "torsion block takes a prime and an exponent"),
            ("torsion", None, 4, 1, "4 is not prime"),
            ("torsion", None, 2, 0, "torsion exponent must be >= 1"),
            ("torsion", None, 7883.0, 1, "torsion block takes an integer prime and exponent"),
            ("torsion", None, 7883, True, "torsion block takes an integer prime and exponent"),
            ("prufer", None, None, None, "prufer block takes exactly a prime set"),
            ("prufer", PrimeSet.none(), None, None, "empty prufer family is forbidden"),
            ("prufer", (2,), None, None, "prufer block takes exactly a prime set"),
            ("prufer", [2], None, None, "prufer block takes exactly a prime set"),
            ("cyclic", None, None, None, "unknown kind 'cyclic'"),
        ],
    )
    def test_invalid_blocks_are_rejected_and_leave_no_entry(self, kind, primes, p, k, message):
        # 7883.0 and True equal 7883 and 1: were they let in, the table would
        # hand them out for Z/7883 later
        size = len(modcalc._CYCLICS)
        with pytest.raises(ValueError, match=message):
            Cyclic(kind, primes, p, k)
        assert len(modcalc._CYCLICS) == size

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Cyclic.torsion(2.0, True),
            lambda: Cyclic.torsion(2, True),
            lambda: Cyclic("torsion", None, 2.0, 1),
            lambda: Cyclic("torsion", p=2, k=1.0),
        ],
        ids=["torsion-float-bool", "torsion-bool", "new-float-prime", "new-float-exponent"],
    )
    def test_inexact_fields_are_refused_while_an_equal_block_is_alive(self, build):
        # 2.0 and True hash and compare equal to 2 and 1, so a lookup before
        # the type test would hand out the live Z/2
        alive = Cyclic.torsion(2, 1)
        with pytest.raises(ValueError, match="^torsion block takes an integer prime and exponent$"):
            build()
        assert _block_entry("torsion", None, 2, 1) is alive

    def test_verify_fills_the_tables_once(self, checks_in_process):
        # verify's blocks are over its first ten primes and bounded
        # exponents, or over the fixed pool that idempotent-laws draws from,
        # so a second seed adds to the tables that hold each value for good
        # only values from a bounded set
        run_verify(1, 60, 50)
        cyclics, sets = set(modcalc._CYCLICS.values()), set(znum._PRIMESETS.values())
        run_verify(2, 60, 50)
        new_sets = set(znum._PRIMESETS.values()) - sets
        new_cyclics = set(modcalc._CYCLICS.values()) - cyclics
        assert all(drawn_by_verify(s) for s in new_sets)
        assert all(c.kind != "torsion" and drawn_by_verify(c.primes) for c in new_cyclics)

    def test_randgen_keeps_each_drawn_value_once(self):
        # a repeated draw is the interned object, so there are as many
        # objects as values: at most 352 prime sets of at most three of its
        # ten primes, and 352 free, 40 torsion and 351 Prufer blocks
        rng = random.Random(11)
        sets, blocks = set(), set()
        for _ in range(20000):
            sets.add(random_primeset(rng))
            blocks.add(random_cyclic(rng))
        assert len(sets) == len({repr(v) for v in sets}) <= 352
        assert len(blocks) == len({repr(c) for c in blocks}) <= 352 + 40 + 351
        for v in sets:
            assert PrimeSet.of(v.primes, v.finite) is v
        for c in blocks:
            assert Cyclic(c.kind, c.primes, c.p, c.k) is c

    def test_randgen_draws_pinned(self):
        # holding drawn values must not change the draws, their order or the
        # generator state after them
        h = hashlib.sha256()
        for seed in range(400):
            rng = random.Random(seed)
            draws = (random_primeset(rng), random_cyclic(rng), random_graded(rng))
            h.update(repr((*draws, rng.getstate())).encode())
        assert h.hexdigest() == "d49c468888ec54bf0e865ad03575aaab7dcd132ccb5bef9cfd337f27c3a0f147"

    def test_concurrent_construction_gives_one_object_per_value(self):
        """Eight threads, more than there are cores, race to build the same
        values through different constructors, round after round; each
        round builds values that no earlier round built, so every round
        races on the inserts."""
        threads_n, rounds, deadline = 8, 30, time.monotonic() + 10
        # 42 primes a round, below those of the racing-insert test below and
        # far past what other tests build
        primes = primes_up_to(50000)[-rounds * 42:]
        builders = [
            lambda fin, ps: PrimeSet(fin, ps),
            lambda fin, ps: PrimeSet.of(reversed(ps), finite=fin),
            lambda fin, ps: PrimeSet._checked(fin, set(ps)),
            lambda fin, ps: PrimeSet.from_json({"mode": "finite" if fin else "cofinite",
                                                "primes": [str(p) for p in ps]}),
        ]

        def build(t, r):
            make = builders[t % len(builders)]
            window = primes[r * 42:(r + 1) * 42]
            out = []
            for fin, ps in ((fin, tuple(window[i:i + 3])) for i in range(40) for fin in (True, False)):
                s = make(fin, ps)
                out.append(s)
                out.append(Cyclic.free(s) if t % 2 else Cyclic("free", s))
                out.append(Cyclic.prufer(s) if t % 2 else Cyclic("prufer", primes=s))
                out.append(Cyclic.torsion(ps[0], 1 + len(out) % 5) if t % 2
                           else Cyclic("torsion", None, ps[0], 1 + len(out) % 5))
            return out

        barrier = threading.Barrier(threads_n, timeout=30)
        built: list = [None] * threads_n
        errors: list = []
        late = [False]

        def work(t):
            try:
                for r in range(rounds):
                    built[t] = build(t, r)
                    barrier.wait()
                    if t == 0:
                        errors.extend(
                            (a, b) for other in built[1:] for a, b in zip(built[0], other)
                            if a is not b
                        )
                        late[0] = time.monotonic() > deadline
                    barrier.wait()
                    if late[0]:
                        break
                    barrier.wait()
            except Exception as exc:  # a broken barrier or a failed build
                errors.append(exc)
                barrier.abort()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(threads_n)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(w.is_alive() for w in workers)
        assert errors == []


    def test_threads_racing_to_insert_new_values_keep_one_object(self):
        """Eight threads leave a barrier together each round and build values
        that no earlier round built, so every round races on the inserts:
        a value once in a table is never inserted again."""
        threads_n, rounds, width = 8, 20, 40
        primes = primes_up_to(60000)[-rounds * width:]  # far past what other tests build
        barrier = threading.Barrier(threads_n, timeout=30)
        built = [[] for _ in range(threads_n)]
        errors: list = []

        def work(t):
            try:
                for r in range(rounds):
                    ps = primes[r * width:(r + 1) * width]
                    barrier.wait()
                    if t % 2:
                        sets = [PrimeSet(i % 2 == 1, (p,)) for i, p in enumerate(ps)]
                        blocks = [Cyclic("torsion", None, p, 1) for p in ps]
                    else:
                        sets = [PrimeSet.of([p], finite=i % 2 == 1) for i, p in enumerate(ps)]
                        blocks = [Cyclic.torsion(p, 1) for p in ps]
                    built[t] += sets + blocks + [Cyclic.prufer(s) for s in sets]
            except Exception as exc:  # a broken barrier or a failed build
                errors.append(exc)
                barrier.abort()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(threads_n)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        for t in range(1, threads_n):
            assert len(built[t]) == len(built[0])
            assert all(a is b for a, b in zip(built[0], built[t]))


class TestTableAgainstChainOracle:
    """Every finitely generated table row is forced by the chain level:
    H(A x B) = (a x b) in degree 0 and Tor(a, b) in degree -1."""

    def test_fg_rows(self):
        for a in FG_BLOCKS:
            for b in FG_BLOCKS:
                got = homology(tensor_chain(fg_complex(a), fg_complex(b)))
                want = GradedModule.of(
                    {0: tensor_mod(a, b), -1: tor_mod(a, b)}
                )
                assert got == want, f"table row ({a}, {b})"

    def test_spec_example_tor_of_four_and_two(self):
        # presentation Z --4--> Z tensored with Z/2, frozen from the oracle
        got = homology(tensor_chain(scalar_cone(4), scalar_cone(2)))
        assert got == GradedModule.of(
            {-1: [Cyclic.torsion(2, 1)], 0: [Cyclic.torsion(2, 1)]}
        )
        assert tensor_mod(Cyclic.torsion(2, 2), Cyclic.torsion(2, 1)) == Module.of(
            [Cyclic.torsion(2, 1)]
        )
        assert tor_mod(Cyclic.torsion(2, 2), Cyclic.torsion(2, 1)) == Module.of(
            [Cyclic.torsion(2, 1)]
        )

    def test_coprime_residue_fields_annihilate(self):
        assert tensor_mod(Cyclic.torsion(2, 1), Cyclic.torsion(3, 1)).is_zero()
        assert tor_mod(Cyclic.torsion(2, 1), Cyclic.torsion(3, 1)).is_zero()
        assert homology(tensor_chain(scalar_cone(2), scalar_cone(3))).is_zero()


class TestLocalisationRows:
    """Rows involving Z[T^-1]: verified through invertibility certificates
    and residue probes rather than (non-perfect) resolutions."""

    def test_torsion_survives_coprime_localisation(self):
        for T in [PrimeSet.of([3]), PrimeSet.of([3, 5]), PrimeSet.cofinite([2])]:
            # every invertible scalar stays invertible mod 2^k
            for t in T.up_to(50):
                for k in range(1, 9):
                    assert math.gcd(t, 2**k) == 1
            assert tensor_mod(Cyclic.free(T), Cyclic.torsion(2, 3)) == Module.of(
                [Cyclic.torsion(2, 3)]
            )

    def test_torsion_dies_when_its_prime_is_inverted(self):
        for T in [PrimeSet.of([2]), PrimeSet.cofinite([]), PrimeSet.cofinite([3])]:
            assert tensor_mod(Cyclic.free(T), Cyclic.torsion(2, 3)).is_zero()

    def test_free_times_free_by_residue_probes(self):
        pairs = [
            (PrimeSet.of([2]), PrimeSet.of([3])),
            (PrimeSet.of([2]), PrimeSet.cofinite([2, 5])),
            (PrimeSet.cofinite([2]), PrimeSet.cofinite([3])),
        ]
        for s, t in pairs:
            prod = tensor_mod(Cyclic.free(s), Cyclic.free(t))
            assert prod == Module.of([Cyclic.free(s.union(t))])
            # probing with residue fields distinguishes localisations
            for q in PROBE_PRIMES:
                via_assoc = module_products(
                    tensor_mod(Cyclic.torsion(q, 1), Cyclic.free(s)),
                    Module.of([Cyclic.free(t)]),
                )[0]
                direct = module_products(Module.of([Cyclic.torsion(q, 1)]), prod)[0]
                assert via_assoc == direct

    def test_rationals_kill_everything_torsion(self):
        assert tensor_mod(Q, Cyclic.torsion(5, 2)).is_zero()
        assert tensor_mod(Q, Cyclic.prufer(PrimeSet.all_primes())).is_zero()
        assert tensor_mod(Q, Q) == Module.of([Q])


class TestPruferRowsByTruncation:
    """Prufer rows come from the truncation tower Z/p^k with k growing:
    the stage values must match the table's stabilised answer."""

    def stage(self, p, k, other: Cyclic) -> Module:
        return tensor_mod(Cyclic.torsion(p, k), other)

    def stage_tor(self, p, k, other: Cyclic) -> Module:
        return tor_mod(Cyclic.torsion(p, k), other)

    def test_prufer_times_free(self):
        fam, inv = PrimeSet.of([2, 3]), PrimeSet.of([3])
        got = tensor_mod(Cyclic.prufer(fam), Cyclic.free(inv))
        assert got == Module.of([Cyclic.prufer(PrimeSet.of([2]))])
        for p in fam.up_to(50):
            # stage k: Z/p^k x Z[T^-1]; stabilises to the Prufer piece
            # exactly when the stages keep their full exponent
            survives = all(
                self.stage(p, k, Cyclic.free(inv)) == Module.of([Cyclic.torsion(p, k)])
                for k in range(1, 9)
            )
            dies = all(self.stage(p, k, Cyclic.free(inv)).is_zero() for k in range(1, 9))
            assert survives or dies
            in_answer = any(
                c.kind == "prufer" and c.primes.contains(p) for c, _ in got.parts
            )
            assert in_answer == survives

    def test_tor_prufer_prufer(self):
        a, b = PrimeSet.of([2]), PrimeSet.all_primes()
        got = tor_mod(Cyclic.prufer(a), Cyclic.prufer(b))
        assert got == Module.of([Cyclic.prufer(PrimeSet.of([2]))])
        # chain stages: Tor(Z/2^k, Z/2^l) = Z/2^min(k,l) grows without bound
        for k in range(1, 9):
            got_stage = homology(tensor_chain(scalar_cone(2**k), scalar_cone(2**k)))
            assert got_stage.module_in(-1) == Module.of([Cyclic.torsion(2, k)])

    def test_tor_torsion_prufer(self):
        assert tor_mod(Cyclic.torsion(2, 3), Cyclic.prufer(PrimeSet.of([2]))) == Module.of(
            [Cyclic.torsion(2, 3)]
        )
        assert tor_mod(Cyclic.torsion(2, 3), Cyclic.prufer(PrimeSet.of([3]))).is_zero()

    def test_prufer_tensor_prufer_vanishes(self):
        assert tensor_mod(
            Cyclic.prufer(PrimeSet.of([2])), Cyclic.prufer(PrimeSet.of([2]))
        ).is_zero()


class TestSymmetryAndBilinearity:
    def test_symmetry_exhaustive(self):
        for a in GENERATORS:
            for b in GENERATORS:
                assert tensor_mod(a, b) == tensor_mod(b, a)
                assert tor_mod(a, b) == tor_mod(b, a)

    def test_bilinear_extension(self):
        x = Module.of([(Cyclic.torsion(2, 1), 2)])
        y = Module.of([Cyclic.torsion(2, 2), Z])
        assert module_products(x, y) == (
            Module.of([(Cyclic.torsion(2, 1), 4)]),
            Module.of([(Cyclic.torsion(2, 1), 2)]),
        )


# tensor_mod and tor_mod over every pair of verify's generators, pinned:
# oracles.naive_kunneth reads the same block tables as kunneth, so it cannot
# catch a wrong entry.
GOLDEN_TABLES = Path(__file__).resolve().parent / "golden" / "modcalc_block_tables.json"


def _table_json(m: Module) -> list[dict]:
    return [c.to_json() for c in m.cyclics()]


def test_block_tables_pinned():
    want = json.loads(GOLDEN_TABLES.read_text())
    gens = _generator_cyclics()
    pairs = [(a, b) for a in gens for b in gens]
    assert [(e["a"], e["b"]) for e in want] == [(str(a), str(b)) for a, b in pairs]
    for (a, b), entry in zip(pairs, want):
        tensor, tor = entry["tensor"], entry["tor"]
        assert _table_json(tensor_mod(a, b)) == tensor, (a, b)
        assert _table_json(tor_mod(a, b)) == tor, (a, b)
        # kunneth reads the same tables
        got_tensor, got_tor = module_products(Module.of([a]), Module.of([b]))
        assert _table_json(got_tensor) == tensor, (a, b)
        assert _table_json(got_tor) == tor, (a, b)


class TestKunneth:
    def test_unit_law(self):
        unit = GradedModule.unit()
        rng = random.Random(3)
        for _ in range(30):
            y = random_graded(rng)
            assert kunneth(unit, y) == y

    def test_residue_square_frozen_from_chain(self):
        x = GradedModule.of({0: [Cyclic.torsion(2, 1)]})
        assert kunneth(x, x) == GradedModule.of(
            {-1: [Cyclic.torsion(2, 1)], 0: [Cyclic.torsion(2, 1)]}
        )

    def test_prufer_idempotency_instance(self):
        x = GradedModule.of({1: [Cyclic.prufer(PrimeSet.of([2]))]})
        assert kunneth(x, x) == x

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_commutative_associative(self, seed):
        rng = random.Random(seed)
        x, y, z = (random_graded(rng) for _ in range(3))
        assert kunneth(x, y) == kunneth(y, x)
        assert kunneth(kunneth(x, y), z) == kunneth(x, kunneth(y, z))

    def test_chain_oracle_equivalence(self):
        rng = random.Random(5)
        for _ in range(150):
            a, _ = random_complex(rng, max_cells=3)
            b, _ = random_complex(rng, max_cells=3)
            assert homology(tensor_chain(a, b)) == kunneth(homology(a), homology(b))


class TestSupport:
    def localization_probe(self, m: Module) -> PointSet:
        """supp via the localisation at sampled points; independent of the rules."""
        out = PointSet.empty()
        for p in PROBE_PRIMES:
            if localize_point(SpecZPoint.closed(p), m):
                out = out.union(PointSet.singleton(SpecZPoint.closed(p)))
        if localize_point(GENERIC, m):
            out = out.union(PointSet.singleton(GENERIC))
        return out

    def test_localize_point_agrees_with_supp_mod_on_the_generator_blocks(self):
        points = [GENERIC] + [SpecZPoint.closed(p) for p in primes_up_to(31)]
        for c in _generator_cyclics():
            m = Module.of([c])
            supp = supp_mod(m)
            for x in points:
                got = localize_point(x, m)
                assert isinstance(got, bool)
                assert got == supp.contains(x), (str(c), str(x))

    def test_unit_support_is_everything(self):
        assert supp_mod(Module.of([Z])).is_everything()

    def test_torsion_sum(self):
        m = Module.of([Cyclic.torsion(2, 3), Cyclic.torsion(3, 1)])
        got = supp_mod(m)
        assert got == PointSet(False, PrimeSet.of([2, 3]))
        probe = self.localization_probe(m)
        for p in PROBE_PRIMES:
            assert got.contains(SpecZPoint.closed(p)) == probe.contains(SpecZPoint.closed(p))

    def test_cofinite_prufer(self):
        got = supp_mod(Module.of([Cyclic.prufer(PrimeSet.cofinite([5]))]))
        assert got == PointSet(False, PrimeSet.cofinite([5]))
        assert not got.contains(GENERIC)
        assert not got.contains(SpecZPoint.closed(5))
        assert got.contains(SpecZPoint.closed(7))

    def test_probe_agreement_random(self):
        rng = random.Random(17)
        for _ in range(200):
            m = random_module(rng)
            got = supp_mod(m)
            probe = self.localization_probe(m)
            for p in PROBE_PRIMES:
                x = SpecZPoint.closed(p)
                assert got.contains(x) == probe.contains(x)
            assert got.contains(GENERIC) == probe.contains(GENERIC)

    def test_one_pass_union_matches_fold(self):
        rng = random.Random(31)
        for _ in range(400):
            m = random_module(rng)
            assert supp_mod(m) == naive_supp(m), m
        assert supp_mod(Module.zero()) == PointSet.empty()

    def test_sum_law(self):
        rng = random.Random(19)
        for _ in range(100):
            x, y = random_module(rng), random_module(rng)
            assert supp_mod(x.plus(y)) == supp_mod(x).union(supp_mod(y))

    def test_product_law(self):
        rng = random.Random(23)
        for _ in range(200):
            x, y = random_module(rng), random_module(rng)
            tensor, tor = module_products(x, y)
            meet = supp_mod(x).intersect(supp_mod(y))
            assert supp_mod(tensor.plus(tor)).leq(meet)
            fg = all(
                c.kind == "torsion" or (c.kind == "free" and c.primes.is_empty())
                for m in (x, y)
                for c, _ in m.parts
            )
            if fg:
                assert supp_mod(tensor) == meet


class TestGradedOps:
    def test_is_zero(self):
        assert GradedModule.zero().is_zero()
        assert not GradedModule.unit().is_zero()

    def test_shift(self):
        assert GradedModule.of({0: [Z]}).shift(2) == GradedModule.of({-2: [Z]})

    def test_sum_multiplicities(self):
        x = GradedModule.of({0: [Cyclic.torsion(2, 1)]})
        assert x.plus(x) == GradedModule.of({0: [(Cyclic.torsion(2, 1), 2)]})


def _with_repeats(rng: random.Random) -> GradedModule:
    """A graded object whose modules list blocks again and again, some of
    them in several degrees at once."""
    blocks = [random_cyclic(rng) for _ in range(rng.randint(1, 3))]
    degrees = rng.sample(range(-2, 3), rng.randint(1, 3))
    return GradedModule.of(
        {
            n: Module.of([(rng.choice(blocks), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))])
            for n in degrees
        }
    )


class TestOnePassCanonicalForms:
    """kunneth against the pairwise fold."""

    @staticmethod
    def inputs(seed: int, n: int):
        rng = random.Random(seed)
        makers = (random_graded, random_engineered_graded, _with_repeats)
        for i in range(n):
            x = makers[i % 3](rng)
            y = makers[(i // 3) % 3](rng)
            if i % 17 == 0:
                x = GradedModule.zero()
            yield x, y

    def test_kunneth_matches_pairwise_fold(self):
        seen_zero = seen_repeats = 0
        for x, y in self.inputs(2024, 600):
            seen_zero += x.is_zero() or y.is_zero()
            seen_repeats += any(mult > 1 for g in (x, y) for _, m in g.graded for _, mult in m.parts)
            assert kunneth(x, y) == naive_kunneth(x, y), (x, y)
        assert seen_zero >= 30 and seen_repeats >= 200

    def test_module_products_match_pairwise_fold(self):
        cases = 0
        for x, y in self.inputs(7, 600):
            for (_, a), (_, b) in product(x.graded, y.graded):
                cases += 1
                assert module_products(a, b) == (
                    naive_bilinear(tensor_mod, a, b), naive_bilinear(tor_mod, a, b)
                )
        assert cases >= 500
        zero = Module.zero()
        rng = random.Random(8)
        for _ in range(50):
            m = random_module(rng)
            assert module_products(zero, m) == module_products(m, zero) == (zero, zero)

    def test_plus_matches_concatenation(self):
        rng = random.Random(9)
        for _ in range(500):
            a, b = random_module(rng), random_module(rng)
            assert a.plus(b) == Module.of(list(a.parts) + list(b.parts))

    def test_results_are_canonical(self):
        for x, y in self.inputs(11, 200):
            for n, m in kunneth(x, y).graded:
                keys = [c.sort_key() for c, _ in m.parts]
                assert keys == sorted(set(keys))
                assert all(mult > 0 for _, mult in m.parts)

    def test_of_still_rejects_negative_multiplicity(self):
        with pytest.raises(ValueError, match="negative multiplicity"):
            Module.of([(Z, -1)])
