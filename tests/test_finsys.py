import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from approxdiag.abstraction import AbstractionParams, build_abstraction, solve_epsilon
from approxdiag.diagnosis import FaultSpec
from approxdiag.errors import DimensionMismatchError, DomainError
from approxdiag.finsys import FiniteSystem, observation_symbol
from approxdiag.fixtures import d1, d1_doc, e1, nd1, nd1_doc, random_finite_system
from approxdiag.report import canonical_json
from reference import synchronized_product


def output_run(s: FiniteSystem, run) -> tuple:
    """Pointwise outputs of a state run; the run must be a valid path."""
    if not s.is_run(run):
        raise DomainError(f"not a run of this system: {run}")
    return tuple(s.outputs[i] for i in run)


def test_ball_states_examples():
    s = d1()  # 1-D embeddings 0, 2, 4
    assert s.ball_states({1}, 0) == {1}
    assert s.ball_states({1}, 1) == {1}  # distance 2 to both neighbors
    assert s.ball_states({1}, 2) == {0, 1, 2}
    assert s.ball_states({1}, 100) == {0, 1, 2}
    assert s.ball_states(set(), 5) == frozenset()


def test_ball_states_monotone_in_rho():
    rng = np.random.default_rng(40)
    for _ in range(30):
        s, spec = random_finite_system(rng)
        smaller = s.ball_states(spec.faults, 0)
        bigger = s.ball_states(spec.faults, 1)
        assert smaller <= bigger
        assert smaller == spec.faults  # injective integer embeddings


def test_output_run():
    s = d1()
    assert output_run(s, (0,)) == ((Fraction(0),),)
    assert output_run(s, (0, 1, 1)) == ((Fraction(0),), (Fraction(2),), (Fraction(2),))
    with pytest.raises(DomainError):
        output_run(s, (0, 0))  # no self-loop at the initial state
    with pytest.raises(DomainError):
        output_run(s, (1, 1))  # not anchored at an initial state


@pytest.mark.parametrize(
    "rho, message",
    [(float("nan"), "finite, got nan"), (float("inf"), "finite, got inf"), (-1, "nonnegative")],
)
def test_fault_spec_rejects_bad_radius(rho, message):
    with pytest.raises(DomainError, match=message):
        FaultSpec.of([1], rho)


def test_product_diagonal_when_outputs_distinct():
    s = d1()  # all outputs distinct
    twin = synchronized_product(s)
    assert set(twin.pairs) == {(i, i) for i in range(s.n_states)}


def test_product_contains_offdiagonal_confusion():
    s = nd1()
    twin = synchronized_product(s)
    assert (1, 2) in twin.pairs  # the faulty/clean confusion pair
    k = twin.pairs.index((1, 2))
    assert k in twin.system.succ[k][0]  # it loops on itself


def test_product_empty_without_initial_states():
    s = d1()
    empty = FiniteSystem(s.states, (), s.inputs, s.succ, s.outputs, s.p)
    twin = synchronized_product(empty)
    assert twin.system.initial == ()


def enumerate_runs(s: FiniteSystem, length: int):
    """All state runs with `length` states, by brute expansion."""
    runs = [[i] for i in s.initial]
    for _ in range(length - 1):
        runs = [r + [j] for r in runs for j in sorted({j for t in s.succ[r[-1]] for j in t})]
    return [tuple(r) for r in runs]


def test_product_soundness_by_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(10):
        s, _spec = random_finite_system(rng)
        twin = synchronized_product(s)
        horizon = 5
        # Product runs decode to pairs of runs with identical output runs.
        pair_runs = enumerate_runs(twin.system, horizon)
        decoded = {
            (tuple(twin.pairs[k][0] for k in pr), tuple(twin.pairs[k][1] for k in pr))
            for pr in pair_runs
        }
        for run_a, run_b in itertools.islice(decoded, 200):
            assert s.is_run(run_a) and s.is_run(run_b)
            assert output_run(s, run_a) == output_run(s, run_b)
        # Conversely, equal-output run pairs lift into the product.
        runs = enumerate_runs(s, horizon)
        by_out = {}
        for r in runs:
            by_out.setdefault(tuple(s.outputs[i] for i in r), []).append(r)
        lifted = 0
        for group in by_out.values():
            for ra in group[:4]:
                for rb in group[:4]:
                    assert (ra, rb) in decoded
                    lifted += 1
        assert lifted > 0


def test_abstraction_model_round_trip(tmp_path):
    sysdef, cert = e1()
    params = AbstractionParams(solve_epsilon(cert, 0.5, 0.5), 0.5, 0.5)
    system = build_abstraction(sysdef, cert, params)
    path = tmp_path / "model.json"
    system.save(str(path))
    back = FiniteSystem.load(str(path))
    assert back.states == system.states
    assert back.succ == system.succ
    assert back.initial == system.initial
    assert back.outputs == system.outputs
    assert back.deterministic


def test_raw_system_round_trip(tmp_path):
    s = nd1()
    path = tmp_path / "nd1.json"
    s.save(str(path))
    back = FiniteSystem.load(str(path))
    assert back.states == s.states
    assert back.succ == s.succ
    assert not back.deterministic  # two successors under one input


def test_deterministic_flag():
    assert not d1().deterministic
    sysdef, cert = e1()
    params = AbstractionParams(solve_epsilon(cert, 0.5, 0.5), 0.5, 0.5)
    assert build_abstraction(sysdef, cert, params).deterministic


def test_observation_symbol_lattice_and_raw():
    sysdef, cert = e1()
    params = AbstractionParams(solve_epsilon(cert, 0.5, 0.5), 0.5, 0.5)
    system = build_abstraction(sysdef, cert, params)
    # 0.9 lies in the cell of embedding 1.0 on the 1.0-grid.
    assert observation_symbol(system, [0.9]) == (2 * Fraction(0.5) * 1,)
    raw = d1()
    assert observation_symbol(raw, [2]) == (Fraction(2),)
    assert observation_symbol(raw, ["4"]) == (Fraction(4),)


@pytest.mark.parametrize(
    "succ, error, message",
    [
        # A short row, alone and before a bad index in a later row.
        ((((1,), (2,)), ((0,),), ((0,), (0,))), DimensionMismatchError, "cover every input"),
        ((((1,), (2,)), ((0,),), ((0,), (3,))), DimensionMismatchError, "cover every input"),
        # A short row that also holds a bad index: the length is checked first.
        ((((1,), (2,)), ((-1,),), ((0,), (0,))), DimensionMismatchError, "cover every input"),
        # A bad index before a short row in a later row.
        ((((1,), (3,)), ((0,),), ((0,), (0,))), DomainError, "successor index 3 out of range"),
        ((((-1,), (2,)), ((0,), (0,)), ((0,), (0,))), DomainError, "successor index -1 out of range"),
        ((((1,), (2,)), ((0,), (0,)), ((0,), (3,))), DomainError, "successor index 3 out of range"),
        # Both kinds in one row: the first in input order is reported, not
        # the smallest or the largest.
        ((((5,), (-1,)), ((0,), (0,)), ((0,), (0,))), DomainError, "successor index 5 out of range"),
        ((((0, 4), (-2, 1)), ((0,), (0,)), ((0,), (0,))), DomainError, "successor index 4 out of range"),
        ((((-3, 1), (9,)), ((0,), (0,)), ((0,), (0,))), DomainError, "successor index -3 out of range"),
    ],
)
def test_construction_error_precedence(succ, error, message):
    states = tuple((Fraction(v),) for v in range(3))
    with pytest.raises(error) as exc:
        FiniteSystem(states, (0,), ("a", "b"), succ, states, 1)
    assert type(exc.value) is error
    assert message in str(exc.value)


def random_lattice_model(rng) -> FiniteSystem:
    """Array-native model whose output classes (the first coordinate, of
    three values) hold several successors of one state."""
    n, m = int(rng.integers(1, 12)), int(rng.integers(1, 6))
    coords = tuple((int(rng.integers(0, 3)), k) for k in range(n))
    inputs = tuple((u,) for u in range(m))
    return FiniteSystem.on_lattice(coords, 0.5, inputs, 0.5, (0,), rng.integers(0, n, (n, m)), 1, {})


def test_construction_derives_integer_tables():
    rng = np.random.default_rng(20260810)
    systems = [random_finite_system(rng)[0] for _ in range(200)] + [d1(), nd1()]
    for s in systems + [random_lattice_model(rng) for _ in range(50)]:
        assert s.class_of == {out: k for k, out in enumerate(dict.fromkeys(s.outputs))}
        assert s.output_ids == tuple(s.class_of[out] for out in s.outputs)
        ptr, cls, succ = s.successor_groups
        assert ptr[0] == 0 and len(ptr) == s.n_states + 1
        assert len(cls) == len(succ) == ptr[-1]
        # The same table as int64 arrays: stored by a lattice-backed model,
        # derived on first read by any other.
        assert ("successor_arrays" in vars(s)) == (s.state_coords is not None)
        arrays = s.successor_arrays
        assert [a.dtype for a in arrays] == [np.int64] * 3
        assert [a.tolist() for a in arrays] == [ptr, cls, succ]
        for i, row in enumerate(s.succ):
            members, classes = succ[ptr[i] : ptr[i + 1]], cls[ptr[i] : ptr[i + 1]]
            # The row holds the distinct successors of i under any input.
            assert sorted(members) == sorted({j for t in row for j in t})
            assert classes == [s.output_ids[j] for j in members]
            # Groups are contiguous and come in the order of their first
            # member, and members ascend within a group.
            groups = list(dict.fromkeys(classes))
            assert classes == sorted(classes, key=groups.index)
            firsts = [members[classes.index(c)] for c in groups]
            assert firsts == sorted(firsts)
            for c in groups:
                js = [j for j, k in zip(members, classes) if k == c]
                assert js == sorted(js)


@pytest.mark.parametrize(
    "values",
    [{"a": 1}, 5, None, "4", ["x"], [[1]], ["1/0"], [None], [True], [False], np.array([True])],
)
def test_observation_symbol_rejects_malformed_input(values):
    with pytest.raises(DomainError):
        observation_symbol(d1(), values)
    sysdef, cert = e1()
    params = AbstractionParams(solve_epsilon(cert, 0.5, 0.5), 0.5, 0.5)
    lattice = build_abstraction(sysdef, cert, params)
    with pytest.raises(DomainError):
        observation_symbol(lattice, values)


def test_observation_symbol_reads_numpy_integers():
    # np.array([2]) iterates as np.int64, which reads as the int it holds.
    s = d1()
    assert observation_symbol(s, np.array([2])) == observation_symbol(s, np.array([2.0])) == (2,)
    assert type(observation_symbol(s, [np.int32(2)])[0]) is int
    sysdef, cert = e1()
    params = AbstractionParams(solve_epsilon(cert, 0.5, 0.5), 0.5, 0.5)
    lattice = build_abstraction(sysdef, cert, params)
    assert observation_symbol(lattice, np.array([1])) == observation_symbol(lattice, [1.0])


BAD_TRANSITIONS = {
    "source 9": [9, 0, 1],
    "input 5": [0, 5, 1],
    "source -1": [-1, 0, 0],
    "input -1": [0, -1, 0],
    "source 1.7": [1.7, 0, 0],
    "target 2.0": [0, 0, 2.0],
    "input true": [0, True, 1],
}
BAD_INITIAL = {"initial state": ["q"], "initial true": [True], "initial 0.0": [0.0]}


BAD_P = {
    "p 3": ("finite", 3),
    "p 0": ("finite", 0),
    "lattice p -1": ("lattice", -1),
    "lattice p 3": ("lattice", 3),
}


@pytest.mark.parametrize(
    "case", ["raw value", "raw value true", "p 1.0", *BAD_P, *BAD_INITIAL, *BAD_TRANSITIONS]
)
def test_from_json_rejects_malformed_file(case):
    doc = d1_doc()
    if case == "raw value":
        doc["raw_states"][1] = ["x"]
    elif case == "raw value true":
        doc["raw_states"][1] = [True]
    elif case == "p 1.0":
        doc["p"] = 1.0
    elif case in BAD_P:
        kind, p = BAD_P[case]
        doc = lattice_doc() if kind == "lattice" else doc
        doc["p"] = p
    elif case in BAD_INITIAL:
        doc["initial"] = BAD_INITIAL[case]
    else:
        doc["transitions"].append(BAD_TRANSITIONS[case])
    with pytest.raises(DomainError):
        FiniteSystem.from_json(doc)


def lattice_doc() -> dict:
    return {
        "kind": "abstraction-model", "schema": 1, "p": 1,
        "state_theta": 0.03, "input_theta": 0.01,
        "states": [[0, 0], [25, 10]], "inputs": [[0]],
        "initial": [0], "successors": [[1], [1]],
    }


@pytest.mark.parametrize(
    "key, value",
    [
        ("states", [[0, 0], [25.5, 10]]),
        ("states", [[0, False], [25, 10]]),
        ("inputs", [[0.0]]),
        ("initial", [True]),
        ("successors", [[1.7], [1]]),
        ("successors", [[True], [1]]),
        ("p", True),
    ],
)
def test_from_json_rejects_non_integer_lattice_fields(key, value):
    assert FiniteSystem.from_json(lattice_doc()).succ == (((1,),), ((1,),))
    doc = lattice_doc()
    doc[key] = value
    with pytest.raises(DomainError, match="expected an integer"):
        FiniteSystem.from_json(doc)


@pytest.mark.parametrize("key", ["state_theta", "input_theta"])
@pytest.mark.parametrize(
    "value", [True, "0.01", -0.5, 0, 0.0, None, [0.03], float("inf"), float("nan")]
)
def test_from_json_rejects_bad_lattice_spacing(key, value):
    doc = lattice_doc()
    doc[key] = value
    with pytest.raises(DomainError, match="finite positive number"):
        FiniteSystem.from_json(doc)


def test_from_json_accepts_integer_lattice_spacing():
    doc = lattice_doc()
    doc["state_theta"] = 1
    system = FiniteSystem.from_json(doc)
    assert system.state_theta == 1.0 and system.states[1] == (Fraction(50), Fraction(20))


@pytest.mark.parametrize(
    "key, value",
    [
        ("states", [[0, 0], [1 << 63, 10]]),
        ("states", [[0, -(1 << 63) - 1], [25, 10]]),
        ("successors", [[1 << 64], [1]]),
    ],
)
def test_from_json_rejects_coordinates_beyond_int64(key, value):
    doc = lattice_doc()
    doc[key] = value
    with pytest.raises(DomainError, match="int64|out of range"):
        FiniteSystem.from_json(doc)


def test_from_json_keeps_int64_edge_coordinates():
    doc = lattice_doc()
    doc["states"] = [[0, 0], [(1 << 63) - 1, -(1 << 63)]]
    system = FiniteSystem.from_json(doc)
    assert system.state_coords[1] == ((1 << 63) - 1, -(1 << 63))
    # Differences of these coordinates overflow int64: the ball is exact.
    assert system.ball_states({1}, 0) == {1}


# A hand-written model with integral and non-integral values written every
# way a model file may write them, and its canonical JSON, which the Fraction
# representation wrote.
THIRDS_DOC = {
    "kind": "finite-system", "schema": 1, "p": 1,
    "raw_states": [[0, "1/3"], ["0.4", 2], [0.5, "2/2"], ["-7/3", -1]],
    "raw_outputs": [["1/3"], ["0.4"], [1], ["2/2"]],
    "inputs": ["a", "b"], "initial": [0],
    "transitions": [[0, 0, 1], [0, 1, 2], [1, 0, 3], [2, 1, 0], [3, 0, 3], [3, 1, 1]],
}
THIRDS_JSON = (
    '{"initial":[0],"inputs":["a","b"],"kind":"finite-system","p":1,'
    '"raw_outputs":[["1/3"],["2/5"],[1],[1]],'
    '"raw_states":[[0,"1/3"],["2/5",2],["1/2",1],["-7/3",-1]],"schema":1,'
    '"transitions":[[0,0,1],[0,1,2],[1,0,3],[2,1,0],[3,0,3],[3,1,1]]}'
)
GOLDEN = Path(__file__).resolve().parent / "golden"


def exact_types(rows) -> bool:
    """Every value an int when integral and a Fraction otherwise."""
    return all(type(v) is (int if v.denominator == 1 else Fraction) for row in rows for v in row)


def hand_written_models() -> dict:
    models = {"d1": d1(), "nd1": nd1(), "thirds": FiniteSystem.from_json(THIRDS_DOC)}
    for name in ("fts40_diag", "fts40_nondiag", "mixed_outputs"):
        models[name] = FiniteSystem.load(str(GOLDEN / f"{name}_model.json"))
    return models


def test_exact_values_take_their_cheapest_type():
    for name, s in hand_written_models().items():
        assert exact_types(s.states) and exact_types(s.outputs) and exact_types(s.class_of), name
        # The public constructor holds values the same way, whatever it is given.
        as_fractions = [tuple(map(Fraction, row)) for row in s.states]
        built = FiniteSystem(as_fractions, s.initial, s.inputs, s.succ, as_fractions, s.p)
        assert exact_types(built.states) and exact_types(built.class_of), name
    thirds = FiniteSystem.from_json(THIRDS_DOC)
    assert thirds.states == (
        (0, Fraction(1, 3)), (Fraction(2, 5), 2), (Fraction(1, 2), 1), (Fraction(-7, 3), -1)
    )
    assert [type(v) for row in thirds.states for v in row] == [int, Fraction, Fraction, int] + [Fraction, int] * 2
    assert list(thirds.class_of.items()) == [
        ((Fraction(1, 3),), 0), ((Fraction(2, 5),), 1), ((Fraction(1),), 2)
    ]
    for values, want in [([7], (7,)), (["4/2"], (2,)), (["1/2"], (Fraction(1, 2),)), ([0.5], (Fraction(1, 2),))]:
        got = observation_symbol(thirds, values)
        assert got == want and exact_types([got]), values
    # Lattice views: 2 * 0.25 * coords, integral at even coordinates.
    doc = lattice_doc() | {"state_theta": 0.25, "input_theta": 0.25, "states": [[0, 1], [4, -3]], "inputs": [[1]]}
    lattice = FiniteSystem.from_json(doc)
    assert lattice.states == ((0, Fraction(1, 2)), (2, Fraction(-3, 2)))
    assert exact_types(lattice.states) and exact_types(lattice.outputs) and exact_types(lattice.inputs)
    assert exact_types(lattice.class_of) and list(lattice.class_of) == [(0,), (2,)]


def test_hand_written_models_equal_their_fraction_forms():
    # Ints compare and hash equal to the integral Fractions: the systems, the
    # class lookups and the written files are those of Fraction values.
    for name, s in hand_written_models().items():
        states = tuple(tuple(map(Fraction, row)) for row in s.states)
        outputs = tuple(tuple(map(Fraction, row)) for row in s.outputs)
        assert s.states == states and s.outputs == outputs, name
        assert list(s.class_of) == list(dict.fromkeys(outputs)), name
        assert [s.class_of[out] for out in outputs] == list(s.output_ids), name
    models = hand_written_models()
    assert canonical_json(models["thirds"].to_json()) == THIRDS_JSON
    assert canonical_json(models["d1"].to_json()) == canonical_json(d1_doc())
    assert canonical_json(models["nd1"].to_json()) == canonical_json(nd1_doc())
    for name in ("fts40_diag", "fts40_nondiag", "mixed_outputs"):
        want = (GOLDEN / f"{name}_model.json").read_bytes()
        assert (canonical_json(models[name].to_json()) + "\n").encode() == want, name
