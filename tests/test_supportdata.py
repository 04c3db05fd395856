import json
import random
from itertools import combinations
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from deadline import within
from oracles import naive_ideals, naive_primes, naive_thomason_lattice, naive_validate
from ttsupport import supportdata
from ttsupport.cli import main
from ttsupport.supportdata import (
    Catalogue,
    CatalogueError,
    FiniteSpace,
    SupportDatum,
    check_axioms,
    classify,
    enumerate_ideals,
    enumerate_primes,
    five_object_model,
    random_subset_catalogue,
    spc_support,
    thomason_lattice,
    universal_map,
)


def field_like_model():
    return Catalogue.of(
        ["0", "U"],
        zero="0",
        unit="U",
        tensor={"0": {"0": "0", "U": "0"}, "U": {"0": "0", "U": "U"}},
    )


def _random_poset(rng, npts):
    """Strict up-closure of each point of a random order on range(npts)
    that refines the natural order."""
    density = rng.random()
    above = [{y for y in range(x + 1, npts) if rng.random() < density} for x in range(npts)]
    for x in reversed(range(npts)):
        for y in list(above[x]):
            above[x] |= above[y]
    return above


def _up_sets(npts, above):
    out = []
    for combo in range(1 << npts):
        s = frozenset(p for p in range(npts) if combo >> p & 1)
        if all(above[x] <= s for x in s):
            out.append(s)
    return out


def _lattice_tables(ups):
    """Catalogue.of arguments for the lattice of the up-sets ups: tensor is
    intersection, smaller up-sets are summands and (a, a | b, b) are
    triangles."""
    names = [f"x{i}" for i in range(len(ups))]
    name = dict(zip(ups, names))
    return dict(
        objects=names,
        zero=name[frozenset()],
        unit=name[max(ups, key=len)],
        tensor={name[a]: {name[b]: name[a & b] for b in ups} for a in ups},
        summands=[(name[a], name[b]) for a in ups for b in ups if b < a],
        triangles=[(name[a], name[a | b], name[b]) for a in ups for b in ups],
    )


def _chain_up_sets(npts):
    """The up-sets of the chain 0 < 1 < ... < npts - 1."""
    return [frozenset(range(k, npts)) for k in range(npts + 1)]


def _chain_catalogue(n_objects):
    return Catalogue.of(**_lattice_tables(_chain_up_sets(n_objects - 1)))


def _nilpotent_catalogue(n_objects):
    """0, a unit U and objects a1, a2, ... whose products with each other
    are all 0: every set of the a's together with 0 is an ideal, so there
    are 2^(n_objects - 2) + 1 ideals, and only the largest proper one is
    prime."""
    names = ["0", "U"] + [f"a{i}" for i in range(1, n_objects - 1)]
    tensor = {x: {y: y if x == "U" else x if y == "U" else "0" for y in names} for x in names}
    return Catalogue.of(names, zero="0", unit="U", tensor=tensor)


def _by_size(sets):
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


IDEMPOTENTS = ["0", "U", "A", "B", "C"]


def _idempotent_tables():
    """Catalogue.of arguments for 0, a unit U and orthogonal idempotents A, B
    and C (x * x = x, x * y = 0), with each tensor row a fresh dict."""
    def product(x, y):
        if x == "U" or y == "U":
            return y if x == "U" else x
        return x if x == y else "0"

    return dict(
        objects=list(IDEMPOTENTS),
        zero="0",
        unit="U",
        tensor={x: {y: product(x, y) for y in IDEMPOTENTS} for x in IDEMPOTENTS},
    )


def _set_symmetric(tensor, x, y, value):
    tensor[x][y] = tensor[y][x] = value


def _rejection(**tables):
    with pytest.raises(CatalogueError) as info:
        Catalogue.of(**tables)
    return str(info.value)


def _perturbed_tables(rng):
    """A shift and a tensor table on 1-5 objects, as index lists: a valid
    base (min on a chain, a nilpotent ideal, orthogonal idempotents or
    multiplication modulo n), relabelled at random, then with up to two
    entries changed on one side or both and, now and then, a random shift."""
    n = rng.randint(1, 5)
    kind = rng.choice(["chain", "nilpotent", "idempotents", "modular"] if n > 1 else ["chain"])
    zero, unit = (0, n - 1) if kind == "chain" else (0, 1)

    def base(i, j):
        if kind == "chain":
            return min(i, j)
        if kind == "modular":
            return i * j % n
        if unit in (i, j):
            return i + j - unit
        return i if kind == "idempotents" and i == j else zero

    perm = rng.sample(range(n), n)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[base(i, j)]
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        table[i][j] = v
        if rng.random() < 0.6:
            table[j][i] = v
    shift = list(range(n))
    if rng.random() < 0.2:
        for i in rng.sample(range(n), rng.randint(1, n)):
            shift[i] = rng.randrange(n)
    return [f"x{i}" for i in range(n)], perm[zero], perm[unit], shift, table


def _outcome_of(names, zero, unit, shift, table):
    """None when Catalogue.of accepts the index tables, else its message."""
    try:
        Catalogue.of(
            names,
            zero=names[zero],
            unit=names[unit],
            tensor={a: {b: names[v] for b, v in zip(names, row)} for a, row in zip(names, table)},
            shift={a: names[s] for a, s in zip(names, shift)},
        )
    except CatalogueError as exc:
        return str(exc)
    return None


class TestValidation:
    def test_unit_must_be_neutral(self):
        with pytest.raises(CatalogueError, match="unit"):
            Catalogue.of(
                ["0", "U"],
                zero="0",
                unit="U",
                tensor={"0": {"0": "0", "U": "0"}, "U": {"0": "0", "U": "0"}},
            )

    def test_commutativity(self):
        with pytest.raises(CatalogueError, match="commutative"):
            Catalogue.of(
                ["0", "U", "A", "B"],
                zero="0",
                unit="U",
                tensor={
                    "0": {"0": "0", "U": "0", "A": "0", "B": "0"},
                    "U": {"0": "0", "U": "U", "A": "A", "B": "B"},
                    "A": {"0": "0", "U": "A", "A": "A", "B": "A"},
                    "B": {"0": "0", "U": "B", "A": "B", "B": "B"},
                },
            )

    def test_associativity(self):
        # (A*A)*B = B*B = B but A*(A*B) = A*U = A
        with pytest.raises(CatalogueError, match="associative"):
            Catalogue.of(
                ["0", "U", "A", "B"],
                zero="0",
                unit="U",
                tensor={
                    "0": {"0": "0", "U": "0", "A": "0", "B": "0"},
                    "U": {"0": "0", "U": "U", "A": "A", "B": "B"},
                    "A": {"0": "0", "U": "A", "A": "B", "B": "U"},
                    "B": {"0": "0", "U": "B", "A": "U", "B": "B"},
                },
            )

    def test_shift_must_fix_zero(self):
        with pytest.raises(CatalogueError, match="zero"):
            Catalogue.of(
                ["0", "U"],
                zero="0",
                unit="U",
                tensor={"0": {"0": "0", "U": "0"}, "U": {"0": "0", "U": "U"}},
                shift={"0": "U", "U": "0"},
            )

    def test_unknown_object_located(self):
        with pytest.raises(CatalogueError, match="tensor.U"):
            Catalogue.of(
                ["0", "U"],
                zero="0",
                unit="U",
                tensor={"0": {"0": "0", "U": "0"}, "U": {"0": "0", "U": "X"}},
            )

    def test_size_bound(self):
        names = [f"x{i}" for i in range(25)]
        tensor = {a: {b: "x0" for b in names} for a in names}
        with pytest.raises(CatalogueError, match="bound"):
            Catalogue.of(names, zero="x0", unit="x0", tensor=tensor)

    def test_json_roundtrip(self):
        cat = five_object_model()
        again = Catalogue.from_json(cat.to_json())
        assert again == cat

    def test_lattice_leaves_equality_and_hash_alone(self):
        cat = five_object_model()
        before = hash(cat)
        assert len(cat.spectrum.space.points) == 2
        again = Catalogue.from_json(cat.to_json())
        assert again == cat and cat == again
        assert hash(cat) == before == hash(again)

    def test_rotation_orbit_longer_than_three_times_size(self):
        # The shift has a 3-cycle and a 4-cycle, so the triangle below comes
        # back to itself after 3 * lcm(3, 4) = 36 rotations, more than 3n = 27.
        names = ["0", "U", "a0", "a1", "a2", "b0", "b1", "b2", "b3"]
        tensor = {
            x: {y: y if x == "U" else x if y == "U" else "0" for y in names} for x in names
        }
        shift = {"a0": "a1", "a1": "a2", "a2": "a0", "b0": "b1", "b1": "b2", "b2": "b3", "b3": "b0"}
        cat = Catalogue.of(names, "0", "U", tensor, shift, triangles=[("a0", "b0", "0")])
        assert len(cat.triangles) == 36
        assert enumerate_ideals(cat) == naive_ideals(cat)

    def test_one_triangle_brings_its_whole_orbit(self):
        # (a, b, c) -> (b, c, S a) under a shift with the 4-cycle
        # b0 -> b1 -> b2 -> b3 -> b0 returns to (b0, b1, 0) after 12 steps
        names = ["0", "U", "b0", "b1", "b2", "b3"]
        tensor = {
            x: {y: y if x == "U" else x if y == "U" else "0" for y in names} for x in names
        }
        shift = {"b0": "b1", "b1": "b2", "b2": "b3", "b3": "b0"}
        cat = Catalogue.of(names, "0", "U", tensor, shift, triangles=[("b0", "b1", "0")])
        orbit = [
            ("b0", "b1", "0"), ("b1", "0", "b1"), ("0", "b1", "b2"),
            ("b1", "b2", "0"), ("b2", "0", "b2"), ("0", "b2", "b3"),
            ("b2", "b3", "0"), ("b3", "0", "b3"), ("0", "b3", "b0"),
            ("b3", "b0", "0"), ("b0", "0", "b0"), ("0", "b0", "b1"),
        ]
        idx = {name: i for i, name in enumerate(names)}
        assert cat.triangles == frozenset(tuple(idx[x] for x in t) for t in orbit)
        for a, b, c in cat.triangles:
            assert (b, c, cat.shift[a]) in cat.triangles


class TestValidationMessages:
    """The exact CatalogueError of each table check, and which location it
    names when several are at fault: the first in object order, with unit,
    zero and commutativity checked object by object before associativity."""

    def test_unit_names_the_first_object(self):
        tables = _idempotent_tables()
        _set_symmetric(tables["tensor"], "U", "A", "B")
        _set_symmetric(tables["tensor"], "U", "B", "A")
        assert _rejection(**tables) == "tensor: unit not neutral at A"

    def test_zero_names_the_first_object(self):
        tables = _idempotent_tables()
        _set_symmetric(tables["tensor"], "0", "A", "A")
        _set_symmetric(tables["tensor"], "0", "C", "C")
        assert _rejection(**tables) == "tensor: zero not absorbing at A"

    def test_commutativity_names_the_first_pair(self):
        tables = _idempotent_tables()
        tables["tensor"]["A"]["C"] = "A"
        tables["tensor"]["B"]["C"] = "B"
        assert _rejection(**tables) == "tensor: not commutative at (A, C)"

    def test_commutativity_at_an_earlier_object_comes_before_unit(self):
        tables = _idempotent_tables()
        tables["tensor"]["A"]["B"] = "A"
        _set_symmetric(tables["tensor"], "U", "C", "A")
        assert _rejection(**tables) == "tensor: not commutative at (A, B)"

    def test_unit_at_an_earlier_object_comes_before_commutativity(self):
        tables = _idempotent_tables()
        _set_symmetric(tables["tensor"], "U", "A", "B")
        tables["tensor"]["B"]["C"] = "B"
        assert _rejection(**tables) == "tensor: unit not neutral at A"

    def test_associativity_names_the_first_triple(self):
        # (A * A) * B = B * B = B but A * (A * B) = A * U = A; the triples
        # (A, A, 0), (A, A, U) and (A, A, A) before it hold
        tables = _idempotent_tables()
        tensor = tables["tensor"]
        tensor["A"]["A"] = "B"
        _set_symmetric(tensor, "A", "B", "U")
        _set_symmetric(tensor, "A", "C", "C")
        assert _rejection(**tables) == "tensor: not associative at (A, A, B)"

    def test_associativity_checked_after_every_commutativity(self):
        tables = _idempotent_tables()
        tensor = tables["tensor"]
        tensor["A"]["A"] = "B"
        _set_symmetric(tensor, "A", "B", "U")
        tensor["B"]["C"] = "B"
        assert _rejection(**tables) == "tensor: not commutative at (B, C)"

    def test_shift_not_a_permutation(self):
        tables = _idempotent_tables()
        assert _rejection(**tables, shift={"A": "B"}) == "shift: not a permutation"

    def test_shift_must_fix_zero(self):
        tables = _idempotent_tables()
        assert _rejection(**tables, shift={"0": "A", "A": "0"}) == "shift: must fix zero"

    def test_missing_row_names_the_first_object(self):
        tables = _idempotent_tables()
        tensor = tables["tensor"]
        # listed in another order than the objects
        tables["tensor"] = {x: tensor[x] for x in ["C", "U", "0"]}
        assert _rejection(**tables) == "tensor: missing row for 'A'"

    def test_missing_entry_names_the_first_object(self):
        tables = _idempotent_tables()
        tables["tensor"]["B"] = {"C": "0", "A": "X", "0": "0"}
        assert _rejection(**tables) == "tensor.B: missing entry for 'U'"

    def test_missing_row_comes_before_a_bad_entry_of_a_later_row(self):
        tables = _idempotent_tables()
        del tables["tensor"]["B"]
        tables["tensor"]["C"]["A"] = "X"
        assert _rejection(**tables) == "tensor: missing row for 'B'"

    def test_unknown_in_tensor_names_the_first_entry(self):
        tables = _idempotent_tables()
        tables["tensor"]["U"]["B"] = "Y"
        tables["tensor"]["U"]["C"] = "X"
        tables["tensor"]["A"]["0"] = "W"
        assert _rejection(**tables) == "tensor.U.B: unknown object 'Y'"

    @pytest.mark.parametrize(
        "summands, name",
        [([("A", "B"), ("X", "A"), ("A", "Y")], "X"), ([("A", "Z"), ("W", "A")], "Z")],
    )
    def test_unknown_in_summands(self, summands, name):
        tables = _idempotent_tables()
        assert _rejection(**tables, summands=summands) == f"summands: unknown object {name!r}"

    @pytest.mark.parametrize(
        "triangles, name",
        [([("A", "B", "C"), ("A", "B", "Q"), ("W", "A", "B")], "Q"), ([("R", "S", "T")], "R")],
    )
    def test_unknown_in_triangles(self, triangles, name):
        tables = _idempotent_tables()
        assert _rejection(**tables, triangles=triangles) == f"triangles: unknown object {name!r}"

    def test_unknown_in_shift(self):
        tables = _idempotent_tables()
        assert _rejection(**tables, shift={"A": "B", "X": "A"}) == "shift: unknown object 'X'"
        assert _rejection(**tables, shift={"A": "Y"}) == "shift.A: unknown object 'Y'"

    def test_sections_checked_in_order(self):
        # shift, then tensor entries, summands and triangles, then the tables
        tables = _idempotent_tables()
        _set_symmetric(tables["tensor"], "U", "A", "B")
        tables["tensor"]["C"]["C"] = "V"
        extra = dict(shift={"X": "A"}, summands=[("A", "Y")], triangles=[("Z", "A", "B")])
        assert _rejection(**tables, **extra) == "shift: unknown object 'X'"
        del extra["shift"]
        assert _rejection(**tables, **extra) == "tensor.C.C: unknown object 'V'"
        tables["tensor"]["C"]["C"] = "C"
        assert _rejection(**tables, **extra) == "summands: unknown object 'Y'"
        del extra["summands"]
        assert _rejection(**tables, **extra) == "triangles: unknown object 'Z'"
        del extra["triangles"]
        assert _rejection(**tables) == "tensor: unit not neutral at A"

    def test_from_json_prefixes_the_location(self):
        tables = _idempotent_tables()
        tables["tensor"]["U"]["B"] = "Y"
        data = Catalogue.of(**_idempotent_tables()).to_json()
        data["tensor"] = tables["tensor"]
        with pytest.raises(CatalogueError) as info:
            Catalogue.from_json(data, "cat.json")
        assert str(info.value) == "cat.json.tensor.U.B: unknown object 'Y'"

    def test_one_object(self):
        cat = Catalogue.of(["0"], zero="0", unit="0", tensor={"0": {"0": "0"}})
        assert cat.tensor == ((0,),)
        assert cat.ideals == (frozenset({0}),)
        assert enumerate_primes(cat) == []

    def test_two_objects(self):
        cat = field_like_model()
        assert cat.tensor == ((0, 0), (0, 1))
        assert [cat.names_of(p) for p in enumerate_primes(cat)] == [("0",)]
        assert _outcome_of(["0", "U"], 0, 1, [0, 1], [[0, 0], [0, 0]]) == (
            "tensor: unit not neutral at U"
        )


class TestValidationOracle:
    """Catalogue.of accepts exactly the tables that the cell-by-cell oracle
    accepts, and rejects the others with the same message."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_naive_validate(self, rng):
        tables = _perturbed_tables(rng)
        assert _outcome_of(*tables) == naive_validate(*tables)

    def test_every_outcome_is_drawn(self):
        rng = random.Random(101)
        seen = set()
        for _ in range(600):
            tables = _perturbed_tables(rng)
            got = _outcome_of(*tables)
            assert got == naive_validate(*tables)
            seen.add(got if got is None else got.split(" at ")[0].split(":")[1].strip())
        assert seen == {
            None,
            "not a permutation",
            "must fix zero",
            "unit not neutral",
            "zero not absorbing",
            "not commutative",
            "not associative",
        }


class TestEnumeration:
    def test_model5_primes(self):
        cat = five_object_model()
        primes = enumerate_primes(cat)
        assert [cat.names_of(p) for p in primes] == [("0", "A"), ("0", "B")]

    def test_model5_ideals(self):
        cat = five_object_model()
        ideals = enumerate_ideals(cat)
        assert [cat.names_of(i) for i in ideals] == [
            ("0",),
            ("0", "A"),
            ("0", "B"),
            ("0", "U", "A", "B", "S"),
        ]

    def test_against_naive_oracle(self):
        for cat in [five_object_model(), field_like_model()]:
            assert enumerate_ideals(cat) == naive_ideals(cat)
            assert enumerate_primes(cat) == naive_primes(cat)
        rng = random.Random(61)
        for _ in range(3):
            cat = random_subset_catalogue(rng, 6)
            assert enumerate_ideals(cat) == naive_ideals(cat)
            assert enumerate_primes(cat) == naive_primes(cat)

    def test_field_like(self):
        cat = field_like_model()
        assert [cat.names_of(p) for p in enumerate_primes(cat)] == [("0",)]

    def test_spectrum_nonempty(self):
        rng = random.Random(67)
        for _ in range(5):
            cat = random_subset_catalogue(rng, rng.choice([4, 6, 8]))
            assert enumerate_primes(cat)

    def test_against_naive_with_shift_summands_and_triangles(self):
        # Up-set lattices with a random shift that fixes zero and random
        # subsets of their summands and triangles, so every closure rule is
        # exercised and the ideals are no longer the up-sets.
        rng = random.Random(83)
        seen = {n: 0 for n in range(2, 13)}
        for _ in range(5000):
            if min(seen.values()) >= 4:
                break
            npts = rng.randint(1, 5)
            tables = _lattice_tables(_up_sets(npts, _random_poset(rng, npts)))
            objects = tables["objects"]
            if len(objects) not in seen or seen[len(objects)] >= 4:
                continue
            seen[len(objects)] += 1
            moved = [x for x in objects if x != tables["zero"] and rng.random() < 0.5]
            tables["shift"] = dict(zip(moved, rng.sample(moved, len(moved))))
            # summands and triangles of the lattice are implied by its tensor
            # table, so a few arbitrary ones are added too
            keep = rng.random()
            tables["summands"] = [p for p in tables["summands"] if rng.random() < keep]
            tables["summands"] += [tuple(rng.sample(objects, 2)) for _ in range(rng.randint(0, 2))]
            tables["triangles"] = [t for t in tables["triangles"] if rng.random() < keep / 4]
            tables["triangles"] += [tuple(rng.choices(objects, k=3)) for _ in range(rng.randint(0, 2))]
            cat = Catalogue.of(**tables)
            assert enumerate_ideals(cat) == naive_ideals(cat)
            assert enumerate_primes(cat) == naive_primes(cat)
        assert min(seen.values()) >= 4, seen

    def test_up_set_lattices_of_16_to_24_objects(self):
        # The ideals of an up-set lattice are the families {c : c <= U}, one
        # per up-set U, and its primes the families {c : p not in c}.
        rng = random.Random(89)
        spaces = [(23, _chain_up_sets(23))]
        while len(spaces) < 25:
            npts = rng.randint(4, 7)
            ups = _up_sets(npts, _random_poset(rng, npts))
            if 16 <= len(ups) <= 24:
                spaces.append((npts, ups))
        for npts, ups in spaces:
            rng.shuffle(ups)
            cat = Catalogue.of(**_lattice_tables(ups))
            families = [frozenset(i for i, c in enumerate(ups) if c <= u) for u in ups]
            primes = [frozenset(i for i, c in enumerate(ups) if p not in c) for p in range(npts)]
            assert enumerate_ideals(cat) == _by_size(families)
            assert enumerate_primes(cat) == _by_size(primes)

    def test_maximal_implies_prime(self):
        rng = random.Random(71)
        for _ in range(5):
            cat = random_subset_catalogue(rng, rng.choice([6, 8, 12]))
            ideals = enumerate_ideals(cat)
            primes = set(enumerate_primes(cat))
            proper = [i for i in ideals if len(i) < cat.size]
            maximal = [i for i in proper if not any(i < j for j in proper)]
            assert maximal
            for m in maximal:
                assert m in primes


class TestSpcSupport:
    def test_model5_supports(self):
        cat = five_object_model()
        datum = spc_support(cat)
        primes = enumerate_primes(cat)
        by_name = {cat.names_of(p): p for p in primes}
        idx = {name: i for i, name in enumerate(cat.objects)}
        assert datum.sigma[idx["U"]] == frozenset(primes)
        assert datum.sigma[idx["S"]] == frozenset(primes)
        assert datum.sigma[idx["A"]] == frozenset({by_name[("0", "B")]})
        assert datum.sigma[idx["B"]] == frozenset({by_name[("0", "A")]})
        assert datum.sigma[idx["0"]] == frozenset()

    def test_shift_invariance_of_support(self):
        cat = five_object_model()
        datum = spc_support(cat)
        for i in range(cat.size):
            assert datum.sigma[cat.shift[i]] == datum.sigma[i]

    def test_axioms_pass(self):
        cat = five_object_model()
        assert check_axioms(spc_support(cat), cat).passed

    def test_axioms_pass_on_random(self):
        rng = random.Random(73)
        for _ in range(4):
            cat = random_subset_catalogue(rng, rng.choice([6, 8]))
            assert check_axioms(spc_support(cat), cat).passed

    def test_corrupted_sigma_fails_with_witness(self):
        cat = five_object_model()
        datum = spc_support(cat)
        corrupted = SupportDatum.of(
            datum.space,
            [frozenset() if i == cat.unit else s for i, s in enumerate(datum.sigma)],
        )
        rep = check_axioms(corrupted, cat)
        assert not rep.passed
        names = [r.name for r in rep.failures()]
        assert "axiom.a.unit" in names


class TestUniversalMap:
    def test_identity_from_spectrum(self):
        cat = five_object_model()
        datum = spc_support(cat)
        result = universal_map(datum, cat)
        assert result.report.passed
        for x in datum.space.points:
            assert result.apply(x) == x

    def test_two_point_discrete_datum(self):
        cat = five_object_model()
        x1, x2 = "x1", "x2"
        space = FiniteSpace.of([x1, x2], [])
        idx = {name: i for i, name in enumerate(cat.objects)}
        sigma = [frozenset()] * cat.size
        sigma = list(sigma)
        sigma[idx["U"]] = frozenset({x1, x2})
        sigma[idx["A"]] = frozenset({x1})
        sigma[idx["B"]] = frozenset({x2})
        sigma[idx["S"]] = frozenset({x1, x2})
        datum = SupportDatum.of(space, sigma)
        assert check_axioms(datum, cat).passed
        result = universal_map(datum, cat)
        assert result.report.passed
        assert cat.names_of(result.apply(x1)) == ("0", "B")
        assert cat.names_of(result.apply(x2)) == ("0", "A")

    def test_unique_checked_beyond_two_million_maps(self):
        # 8 points and 8 primes: 8 ** 8 candidate maps
        cat = _chain_catalogue(9)
        spc = spc_support(cat)
        result = universal_map(spc, cat)
        assert result.report.passed
        assert [r.name for r in result.report.records if "unique" in r.name] == ["universal.unique"]

    def test_unique_fails_when_a_point_misses_the_primes(self):
        # x goes to {0}, which is not a prime of the model
        cat = five_object_model()
        space = FiniteSpace.of(["x"], [])
        sigma = [frozenset() if i == cat.zero else frozenset({"x"}) for i in range(cat.size)]
        result = universal_map(SupportDatum.of(space, sigma), cat)
        unique = [r for r in result.report.records if r.name == "universal.unique"]
        assert len(unique) == 1 and not unique[0].passed

    def test_empty_support_advisory(self):
        cat = five_object_model()
        x = "x"
        space = FiniteSpace.of([x], [])
        idx = {name: i for i, name in enumerate(cat.objects)}
        sigma = [frozenset()] * cat.size
        sigma = list(sigma)
        # everything but B supported at the single point: B gets flagged
        for name in ("U", "A", "S"):
            sigma[idx[name]] = frozenset({x})
        datum = SupportDatum.of(space, sigma)
        rep = check_axioms(datum, cat)
        advisories = [r for r in rep.records if r.advisory]
        assert advisories and not advisories[0].passed and "B" in advisories[0].detail


class TestClassification:
    def test_model5_four_four(self):
        cat = five_object_model()
        datum = spc_support(cat)
        subsets = thomason_lattice(datum.space)
        assert len(subsets) == 4  # discrete two-point space
        assert len(enumerate_ideals(cat)) == 4
        assert classify(cat).passed

    def test_empty_subset_matches_zero_ideal(self):
        cat = five_object_model()
        datum = spc_support(cat)
        idx = {name: i for i, name in enumerate(cat.objects)}
        tau_empty = frozenset(
            i for i in range(cat.size) if datum.sigma[i] <= frozenset()
        )
        assert cat.names_of(tau_empty) == ("0",)

    def test_full_subset_matches_everything(self):
        cat = five_object_model()
        datum = spc_support(cat)
        full = frozenset(datum.space.points)
        tau_full = frozenset(i for i in range(cat.size) if datum.sigma[i] <= full)
        assert len(tau_full) == cat.size

    def test_random_catalogues(self):
        rng = random.Random(79)
        for _ in range(4):
            cat = random_subset_catalogue(rng, rng.choice([6, 8, 12]))
            assert classify(cat).passed

    def test_non_radical_ideals_fail(self):
        # a and b are nilpotent, so the ideals {0}, {0, a} and {0, b} are
        # not radical and have no specialisation-closed subset of their own
        cat = _nilpotent_catalogue(4)
        assert cat.objects == ("0", "U", "a1", "a2")
        records = {r.name: r for r in classify(cat).records}
        assert records["classify.counts"].detail == "5 != 2"
        missed = records["classify.tau-sigma-identity"]
        assert not missed.passed
        assert missed.detail.startswith("[['0'], ['0', 'a1'], ['0', 'a2']] != ")
        advisories = [r for r in check_axioms(spc_support(cat), cat).records if r.advisory]
        assert [r.name for r in advisories] == ["advisory.empty-support-nonzero"]
        assert not advisories[0].passed and advisories[0].detail.endswith(": a1, a2")


class TestIdealBound:
    """Enumeration stops once it finds more than MAX_IDEALS ideals; the
    nilpotent catalogue of n objects has 2^(n - 2) + 1."""

    @pytest.mark.parametrize("n_objects", [16, 24])
    def test_rejected(self, n_objects):
        cat = _nilpotent_catalogue(n_objects)
        with pytest.raises(CatalogueError, match=f"bound of {supportdata.MAX_IDEALS} "):
            within(2, lambda: cat.ideals)

    @pytest.mark.parametrize("n_objects", [16, 24])
    @pytest.mark.parametrize("command", ["catalogue-spc", "catalogue-universal"])
    def test_rejected_by_the_cli(self, tmp_path, capsys, n_objects, command):
        path = tmp_path / "nilpotent.json"
        path.write_text(json.dumps(_nilpotent_catalogue(n_objects).to_json()))
        code = within(2, lambda: main([command, str(path)]))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: {path}: ") and " 16384 " in err

    def test_accepted_below_the_bound(self):
        cat = _nilpotent_catalogue(15)
        ideals, report = within(2, lambda: (cat.ideals, classify(cat)))
        assert len(ideals) == 2 ** 13 + 1 <= supportdata.MAX_IDEALS
        assert [r.name for r in report.failures()] == [
            "classify.counts",
            "classify.tau-sigma-identity",
            "classify.order-isomorphism",
        ]


class TestThomasonLattice:
    def test_against_subset_scan(self):
        rng = random.Random(97)
        for _ in range(60):
            npts = rng.randint(0, 8)
            above = _random_poset(rng, npts)
            label = rng.choice([str, lambda x: x, lambda x: frozenset({x, -x})])
            names = [label(x) for x in range(npts)]
            points = rng.sample(names, npts)  # listed in no particular order
            order = [(names[x], names[y]) for x in range(npts) for y in above[x]]
            space = FiniteSpace.of(points, order)
            assert thomason_lattice(space) == naive_thomason_lattice(points, order)


class TestTwentyFourObjects:
    """classify and catalogue-universal at the MAX_OBJECTS cap."""

    def test_classify_under_a_second(self):
        cat = _chain_catalogue(24)
        start = perf_counter()
        report = classify(cat)
        elapsed = perf_counter() - start
        assert report.passed
        assert elapsed < 1.0

    def test_catalogue_universal_under_a_second(self, tmp_path, capsys):
        path = tmp_path / "chain24.json"
        path.write_text(json.dumps(_chain_catalogue(24).to_json()))
        start = perf_counter()
        code = main(["--format", "json", "catalogue-universal", str(path)])
        elapsed = perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["passed"] is True
        assert "universal.unique" in [c["name"] for c in payload["checks"]]
        assert elapsed < 1.0


class TestBeyondTheCap:
    def test_boolean_lattice_of_128_objects(self, monkeypatch):
        # the up-sets of a 7-point antichain: 16384 triangles but only 128
        # ideals; Close-by-One without inherited failures took about 7 s here
        monkeypatch.setattr(supportdata, "MAX_OBJECTS", 128)
        cat = Catalogue.of(**_lattice_tables(_up_sets(7, [set()] * 7)))
        ideals, report = within(2, lambda: (enumerate_ideals(cat), classify(cat)))
        assert len(ideals) == 128
        assert report.passed


def _up_set_counts_by_brute_force(max_points: int) -> set[int]:
    """Up-set counts of every order on 2..max_points points that refines the
    natural order, from every set of generating pairs."""
    counts = set()
    for n in range(2, max_points + 1):
        pairs = list(combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for gens in combinations(pairs, r):
                above = {x: {x} for x in range(n)}
                for x in reversed(range(n)):
                    for a, b in gens:
                        if a == x:
                            above[x] |= above[b]
                counts.add(
                    sum(
                        all(above[x] <= set(s) for x in s)
                        for k in range(n + 1)
                        for s in combinations(range(n), k)
                    )
                )
    return counts


def _lattice_height(cat):
    """The length of a longest chain of containments in an up-set lattice,
    which is the number of points of its poset."""
    below = {a: {b for x, b in cat.summands if x == a} for a in range(cat.size)}
    height = {}
    for a in sorted(below, key=lambda a: len(below[a])):
        height[a] = max((height[b] + 1 for b in below[a]), default=0)
    return height[cat.unit]


class TestRandomSubsetCatalogue:
    @pytest.mark.parametrize("n_objects, max_points", [(2, 6), (63, 6), (19, 5), (7, 3)])
    def test_unreachable_sizes_rejected(self, monkeypatch, n_objects, max_points):
        monkeypatch.setattr(supportdata, "MAX_POSET_POINTS", max_points)
        with pytest.raises(ValueError):
            within(5, lambda: random_subset_catalogue(random.Random(0), n_objects))

    def test_rejects_exactly_the_unreachable_sizes(self, monkeypatch):
        # sizes up to 2^5 + 1 are tried, past the default bound on objects
        monkeypatch.setattr(supportdata, "MAX_OBJECTS", 2 ** 5 + 1)
        for max_points in (2, 3, 4, 5):
            monkeypatch.setattr(supportdata, "MAX_POSET_POINTS", max_points)
            reachable = _up_set_counts_by_brute_force(max_points)
            rng = random.Random(max_points)
            for n_objects in range(2 ** max_points + 2):
                if n_objects in reachable:
                    assert random_subset_catalogue(rng, n_objects).size == n_objects
                else:
                    with pytest.raises(ValueError):
                        within(5, lambda: random_subset_catalogue(rng, n_objects))

    def test_rare_and_large_sizes_are_drawn_quickly(self, monkeypatch):
        # 23 objects come from about one in a thousand random 2..6-point
        # orders, so drawing orders until one fits took over a second
        rng = random.Random(23)
        cats = within(1, lambda: [random_subset_catalogue(rng, 23) for _ in range(20)])
        assert all(cat.size == 23 for cat in cats)
        for max_points in (7, 8, 9, 10):
            monkeypatch.setattr(supportdata, "MAX_POSET_POINTS", max_points)
            cat = within(1, lambda: random_subset_catalogue(rng, 24))
            assert cat.size == 24
            assert 2 <= _lattice_height(cat) <= max_points
            assert classify(cat).passed

    def test_stream_unchanged_for_reachable_sizes(self):
        rng = random.Random(2024)
        assert [random_subset_catalogue(rng, n).objects for n in (6, 8, 12)] == [
            ("empty", "v3", "v23", "v023", "v123", "v0123"),
            ("empty", "v2", "v3", "v13", "v23", "v013", "v123", "v0123"),
            (
                "empty", "v3", "v4", "v14", "v23", "v34", "v014", "v134",
                "v234", "v0134", "v1234", "v01234",
            ),
        ]


class TestFiniteSpace:
    def test_poset_axioms_enforced(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            FiniteSpace.of([1, 2], [(1, 2), (2, 1)])
        with pytest.raises(ValueError, match="transitive"):
            FiniteSpace.of([1, 2, 3], [(1, 2), (2, 3)])
        FiniteSpace.of([1, 2, 3], [(1, 2), (2, 3), (1, 3)])

    def test_duplicate_point_rejected(self):
        with pytest.raises(ValueError, match="duplicate point 'p'"):
            FiniteSpace.of(["p", "q", "p"], [])

    def test_up_is_the_reflexive_closure_of_the_pairs(self):
        rng = random.Random(41)
        for _ in range(100):
            npts = rng.randint(0, 9)
            above = _random_poset(rng, npts)
            points = rng.sample(range(npts), npts)
            order = [(x, y) for x in range(npts) for y in above[x]]
            rng.shuffle(order)
            space = FiniteSpace.of(points, order)
            assert space.index == {x: i for i, x in enumerate(points)}
            for i, x in enumerate(points):
                got = {points[j] for j in range(npts) if space.up[i] >> j & 1}
                assert got == above[x] | {x}

    def test_equality_ignores_how_the_pairs_are_listed(self):
        chain = [("a", "b"), ("b", "c"), ("a", "c")]
        space = FiniteSpace.of("abc", chain)
        same = FiniteSpace.of(["a", "b", "c"], chain[::-1] + chain + [("b", "b")])
        assert space == same and hash(space) == hash(same)
        assert space != FiniteSpace.of("abc", [("a", "b"), ("a", "c")])
        assert space != FiniteSpace.of("abc", [])

    def test_sigma_must_be_closed(self):
        space = FiniteSpace.of(["g", "c"], [("g", "c")])  # c specialises g
        with pytest.raises(ValueError, match="specialisation"):
            SupportDatum.of(space, [frozenset({"g"})])
        SupportDatum.of(space, [frozenset({"g", "c"})])
