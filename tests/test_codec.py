import pytest
from hypothesis import given, settings, strategies as st

from delins import channels as ch
from delins import codec as cdc
from delins import oracle as orc
from delins import qstrings as qs
from delins.codec import LEFT, RIGHT, InsertTriple
from delins.errors import CapExceededError

from codec_reference import EdgeParameter, construct_edge, enumerate_parameters
from lcs_reference import lcs_at_least
from qstrings_reference import is_alternating


def nonalternating(q: int, min_len: int = 2, max_len: int = 5):
    return (
        st.integers(min_len, max_len)
        .flatmap(lambda n: st.sampled_from(qs.non_alternating_strings(q, n)))
    )


class TestInsertStep:
    @pytest.mark.parametrize(
        "side,offset,interval,q,expected",
        [
            (LEFT, 1, (0, 1), 2, ((1, 0, 1), (0, 1))),
            (RIGHT, 1, (0, 0), 2, ((0, 0), (1, 0, 0))),
            (LEFT, 2, (1, 0), 3, ((0, 1, 0), (1, 0))),
        ],
    )
    def test_examples(self, side, offset, interval, q, expected):
        assert cdc.insert_step(InsertTriple(side, offset, interval), q) == expected

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            cdc.insert_step(InsertTriple(LEFT, 1, ()), 2)

    def test_rejects_zero_offset(self):
        with pytest.raises(ValueError):
            cdc.insert_step(InsertTriple(LEFT, 0, (0, 0)), 2)

    @given(
        st.integers(2, 5).flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.sampled_from((LEFT, RIGHT)),
                st.integers(1, q - 1),
                st.lists(st.integers(0, q - 1), min_size=1, max_size=6).map(tuple),
            )
        )
    )
    def test_outputs_differ_in_first_symbol(self, args):
        q, side, offset, interval = args
        u, v = cdc.insert_step(InsertTriple(side, offset, interval), q)
        assert u[0] != v[0]
        assert sorted((len(u), len(v))) == [len(interval), len(interval) + 1]


class TestConstruct:
    def test_no_steps_gives_diagonal(self):
        assert cdc.construct((0, 1, 1), (), 2) == ((0, 1, 1), (0, 1, 1))

    def test_hand_traced_example(self):
        triples = (InsertTriple(LEFT, 1, (0, 0)),)
        assert cdc.construct((0, 0), triples, 2) == ((0, 0, 1, 0, 0), (0, 0, 0, 0))

    def test_endpoint_lengths_and_common_subsequence(self):
        for q, l, a, b in [(2, 4, 1, 1), (3, 4, 1, 0), (2, 5, 2, 0)]:
            for param in enumerate_parameters(q, l, a, b):
                x, y = construct_edge(param, q)
                assert len(x) == l + a and len(y) == l + b
                assert lcs_at_least(x, y, l), (param, x, y)


class TestMatch:
    @pytest.mark.parametrize(
        "x,y,expected",
        [
            ((0, 0, 1, 1), (0, 0, 1, 0), ((0, 0, 1), (1,), (0,))),
            ((0, 1), (0, 1), ((0, 1), (), ())),
            ((1, 0), (0, 1), ((), (1, 0), (0, 1))),
            ((), (1,), ((), (), (1,))),
        ],
    )
    def test_examples(self, x, y, expected):
        assert cdc.match(x, y) == expected


def _short_splits(q):
    """Every (z0, u, v) over [q] with len(z0) <= 3 and len(u), len(v) <= 4."""
    def upto(n):
        return [w for k in range(n + 1) for w in qs.all_strings(q, k)]

    rests = upto(4)
    return ((z0, u, v) for z0 in upto(3) for u in rests for v in rests)


def _prefix_property_counterexample(splits):
    """The first (z0, u, v) at which match(z0 + u, z0 + v) is not
    (z0 + p, u2, v2) for (p, u2, v2) = match(u, v), or None."""
    for z0, u, v in splits:
        p, u2, v2 = cdc.match(u, v)
        if cdc.match(z0 + u, z0 + v) != (z0 + p, u2, v2):
            return z0, u, v
    return None


class TestMatchPrefixProperty:
    # roundtrip_counterexample decides a tail for every z0 of its block by
    # match on the tail's own rests; that rests on this property

    @pytest.mark.parametrize("q", [2, 3])
    def test_a_common_prefix_only_moves_the_split(self, q):
        assert _prefix_property_counterexample(_short_splits(q)) is None

    @pytest.mark.parametrize("q,l,a,b", [(2, 4, 1, 0), (3, 4, 1, 0)])
    def test_refuses_a_match_wrong_only_at_a_later_z0(self, monkeypatch, q, l, a, b):
        # the edge lies inside the grid above, so the property check refuses
        # the fault; the round trip alone no longer sees it
        bad = _later_z0_edge(q, l, a, b)
        match = cdc.match

        def misreports(x, y):
            z0, rx, ry = match(x, y)
            return (z0[:-1], rx, ry) if (x, y) == bad else (z0, rx, ry)

        monkeypatch.setattr(cdc, "match", misreports)
        z0, u, v = _prefix_property_counterexample(_short_splits(q))
        assert (z0 + u, z0 + v) == bad
        assert cdc.roundtrip_counterexample(q, l, a, b) == (cdc.parameter_count(q, l, a, b), None)
        assert _per_edge_roundtrip(q, l, a, b)[1] == bad


class TestDeleteStep:
    def test_undoes_insert_with_suffixes(self):
        for param_w in qs.non_alternating_strings(2, 3):
            for side in (LEFT, RIGHT):
                triple = InsertTriple(side, 1, param_w)
                x, y = cdc.insert_step(triple, 2)
                result = cdc.delete_step(x + (0,), y + (1,), 2)
                assert result == (triple, (0,), (1,))

    def test_ambiguous_tie_raises(self):
        with pytest.raises(
            cdc.NotDeconstructableError, match="^matches of equal length 1 deleting either head$"
        ):
            cdc.delete_step((1, 0), (0, 1), 2)

    def test_trailing_empty_suffixes(self):
        assert cdc.delete_step((1, 0, 0), (0, 0), 2) == (
            InsertTriple(LEFT, 1, (0, 0)),
            (),
            (),
        )

    def test_rejects_equal_heads(self):
        with pytest.raises(ValueError):
            cdc.delete_step((0, 1), (0, 0), 2)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            cdc.delete_step((), (0,), 2)

    @pytest.mark.parametrize(
        "q,suffix_length,limit,instances",
        [
            (2, 3, 6, 22572),
            (3, 2, 3, 9312),
        ],
    )
    def test_inversion_exhaustive(self, monkeypatch, q, suffix_length, limit, instances):
        # every non-alternating interval, both sides, all offsets, suffix pairs
        # with differing heads plus the both-empty pair
        monkeypatch.setattr(orc, "SUFFIX_LENGTH", suffix_length)
        result = orc.run_check("insert_delete", q, limit)
        assert result.passed, result.counterexample
        assert result.instances == instances


def _slicing_delete_step(x, y, q):
    """delete_step by slicing both candidate matches through match: the
    reference that the prefix-counting delete_step must agree with."""
    qs.check_alphabet(q)
    if not x or not y:
        raise ValueError("delete step needs two nonempty strings")
    if x[0] == y[0]:
        raise ValueError("delete step needs strings with different first symbols")
    gap = (x[0] - y[0]) % q
    left_prefix, lx, ly = cdc.match(x[1:], y)
    right_prefix, rx, ry = cdc.match(x, y[1:])
    if len(left_prefix) == len(right_prefix):
        raise cdc.NotDeconstructableError(
            f"matches of equal length {len(left_prefix)} deleting either head"
        )
    if len(left_prefix) > len(right_prefix):
        return InsertTriple(LEFT, gap, left_prefix), lx, ly
    return InsertTriple(RIGHT, (-gap) % q, right_prefix), rx, ry


def _outcome(step, x, y, q):
    """The result with the type of each part, or the exception class and message."""
    try:
        triple, rest_x, rest_y = step(x, y, q)
    except ValueError as err:
        return type(err), str(err)
    parts = (triple.interval, rest_x, rest_y)
    return tuple(triple), rest_x, rest_y, tuple(type(p) for p in parts)


class TestDeleteStepMatchesSlicingReference:
    @pytest.mark.parametrize("q,max_len", [(2, 6), (3, 4)])
    def test_every_pair_of_short_strings(self, q, max_len):
        strings = [s for n in range(max_len + 1) for s in qs.all_strings(q, n)]
        raised = set()
        for x in strings:
            for y in strings:
                want = _outcome(_slicing_delete_step, x, y, q)
                assert _outcome(cdc.delete_step, x, y, q) == want, (x, y)
                if isinstance(want[0], type):
                    raised.add(want[0])
        # every failure route was exercised
        assert raised == {ValueError, cdc.NotDeconstructableError}

    def test_list_input_returns_tuples(self):
        for x in qs.all_strings(2, 4):
            for y in qs.all_strings(2, 3):
                want = _outcome(_slicing_delete_step, x, y, 2)
                assert _outcome(cdc.delete_step, list(x), list(y), 2) == want, (x, y)

    @pytest.mark.parametrize("q,max_len", [(2, 6), (3, 4)])
    def test_triple_is_an_insert_triple_with_its_fields(self, q, max_len):
        strings = [s for n in range(max_len + 1) for s in qs.all_strings(q, n)]
        checked = 0
        for x in strings:
            for y in strings:
                try:
                    want = _slicing_delete_step(x, y, q)[0]
                except ValueError:
                    continue
                triple = cdc.delete_step(x, y, q)[0]
                assert type(triple) is InsertTriple
                assert (triple.side, triple.offset, triple.interval) == (
                    want.side, want.offset, want.interval
                ), (x, y)
                checked += 1
        assert checked > 0

    def test_alphabet_is_checked_first(self):
        with pytest.raises(ValueError, match="alphabet size"):
            cdc.delete_step((), (), 1)


class TestDeconstruct:
    def test_diagonal(self):
        assert cdc.deconstruct((0, 1, 1), (0, 1, 1), 2) == ((0, 1, 1), ())

    def test_worked_example(self):
        z0, triples = cdc.deconstruct((0, 0, 1, 0, 0), (0, 0, 0, 0), 2)
        assert z0 == (0, 0)
        assert triples == (InsertTriple(LEFT, 1, (0, 0)),)

    def test_leftover_remainder_raises(self):
        with pytest.raises(cdc.NotDeconstructableError):
            cdc.deconstruct((0,), (), 2)

    def test_ambiguous_pair_raises_not_deconstructable(self):
        with pytest.raises(cdc.NotDeconstructableError):
            cdc.deconstruct((1, 0), (0, 1), 2)

    def test_step_callback_sees_trace(self):
        steps = []
        cdc.deconstruct(
            (0, 0, 1, 0, 0), (0, 0, 0, 0), 2, on_step=lambda t, rx, ry: steps.append((t, rx, ry))
        )
        assert steps == [(InsertTriple(LEFT, 1, (0, 0)), (), ())]


class TestEnumerateParameters:
    def test_single_interval_counts(self):
        for q in (2, 3):
            for l in range(2, 7):
                count = sum(1 for _ in enumerate_parameters(q, l, 0, 0))
                assert count == q ** l - qs.alternating_count(q, l)

    def test_hand_counted_instances(self):
        assert cdc.parameter_count(2, 4, 1, 0) == 4
        assert cdc.parameter_count(3, 4, 1, 0) == 18
        assert cdc.parameter_count(2, 4, 0, 0) == 14

    def test_yielded_parameters_satisfy_invariants(self):
        for q, l, a, b in [(2, 5, 1, 1), (3, 4, 1, 0), (2, 6, 0, 2)]:
            seen = set()
            for p in enumerate_parameters(q, l, a, b):
                assert p not in seen
                seen.add(p)
                assert sum(1 for side in p.gap_sides if side == LEFT) == a
                assert sum(1 for side in p.gap_sides if side == RIGHT) == b
                assert all(1 <= off <= q - 1 for off in p.offsets)
                assert all(not is_alternating(w) for w in p.intervals)
                assert sum(len(w) for w in p.intervals) == l
            assert len(seen) == cdc.parameter_count(q, l, a, b)

    def test_deterministic_stream_prefix(self):
        first = list(enumerate_parameters(2, 4, 1, 0))
        assert first[0] == EdgeParameter(
            gap_sides=(LEFT,), offsets=(1,), intervals=((0, 0), (0, 0))
        )
        assert first == list(enumerate_parameters(2, 4, 1, 0))

    def test_cap_guard(self):
        # raised at the call, before any block is drawn
        with pytest.raises(CapExceededError) as err:
            cdc.parameter_blocks(2, 22, 1, 1, cap=1 << 10)
        assert err.value.what == "edge parameter enumeration at q=2 l=22 a=1 b=1"

    def test_constructable_edge_count_cross_checks(self):
        # the enumeration and the closed product-sum give the same count
        for args, expected in [((2, 4, 0, 0), 14), ((3, 4, 1, 0), 18)]:
            assert sum(1 for _ in enumerate_parameters(*args)) == expected
            assert cdc.parameter_count(*args) == expected
        assert sum(1 for _ in enumerate_parameters(2, 2, 1, 1)) == cdc.parameter_count(2, 2, 1, 1)


def _block(p: EdgeParameter) -> tuple:
    """The parameter_blocks block of a parameter: sides, offsets, interval lengths."""
    return p.gap_sides, p.offsets, tuple(map(len, p.intervals))


def _on_first_z0(params: list[EdgeParameter]) -> list[bool]:
    """For each parameter, whether its z0 is the first z0 of its block."""
    first: dict[tuple, qs.Qstr] = {}
    return [first.setdefault(_block(p), p.intervals[0]) == p.intervals[0] for p in params]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "q,l,a,b",
        [(2, 4, 1, 0), (2, 5, 1, 1), (2, 6, 2, 0), (3, 4, 1, 1), (3, 5, 0, 2)],
    )
    def test_deconstruct_inverts_construct(self, q, l, a, b):
        assert cdc.roundtrip_counterexample(q, l, a, b) == (cdc.parameter_count(q, l, a, b), None)

    def test_counterexample_is_the_first_edge_that_fails(self, monkeypatch):
        # (2, 6, 1, 1): two blocks of 8 edges, z0 in (00, 11) times 4 tails,
        # so edges[5] shares its tail with edges[1], the first z0's row
        edges = [construct_edge(p, 2) for p in enumerate_parameters(2, 6, 1, 1)]
        match, undo_steps = cdc.match, cdc.undo_steps
        bad_rests = match(*edges[5])[1:]

        def misreports_later_edges(x, y):
            z0, rx, ry = match(x, y)
            return (z0[:-1], rx, ry) if (x, y) in edges[5:] else (z0, rx, ry)

        # match only ever sees rests now, so the round trip passes a fault
        # on whole edges; the per-edge reference still refuses it
        monkeypatch.setattr(cdc, "match", misreports_later_edges)
        assert cdc.roundtrip_counterexample(2, 6, 1, 1) == (16, None)
        assert _per_edge_roundtrip(2, 6, 1, 1) == (6, edges[5])

        def splits_one_tail_late(rx, ry):
            p, u, v = match(rx, ry)
            return (p + u[:1], u[1:], v[1:]) if (rx, ry) == bad_rests else (p, u, v)

        monkeypatch.setattr(cdc, "match", splits_one_tail_late)
        assert cdc.roundtrip_counterexample(2, 6, 1, 1) == (2, edges[1])
        monkeypatch.setattr(cdc, "match", match)

        def drops_last_step_of_one_tail(rx, ry, q, on_step=None):
            triples = undo_steps(rx, ry, q, on_step)
            return triples[:-1] if (rx, ry) == bad_rests else triples

        monkeypatch.setattr(cdc, "undo_steps", drops_last_step_of_one_tail)
        assert cdc.roundtrip_counterexample(2, 6, 1, 1) == (2, edges[1])

        def refuses(rx, ry, q, on_step=None):
            raise cdc.NotDeconstructableError("refused")

        monkeypatch.setattr(cdc, "undo_steps", refuses)
        assert cdc.roundtrip_counterexample(2, 6, 1, 1) == (1, edges[0])

    def test_distinct_parameters_give_distinct_edges(self):
        for q, l, a, b in [(2, 5, 1, 1), (3, 4, 1, 0)]:
            edges = {construct_edge(p, q) for p in enumerate_parameters(q, l, a, b)}
            assert len(edges) == cdc.parameter_count(q, l, a, b)

    @pytest.mark.parametrize(
        "q,l,a,b", [(2, 6, 1, 1), (3, 6, 1, 1), (2, 7, 2, 0), (2, 8, 1, 2), (4, 4, 1, 0)]
    )
    def test_deconstruct_gets_each_constructed_edge_once(self, monkeypatch, q, l, a, b):
        # each tail is decided once, in parameter order, by one match and one
        # undo_steps on its own rests: those of its edge on the first z0 of
        # its block; every edge is still counted once
        matched, decoded = [], []
        match, undo_steps = cdc.match, cdc.undo_steps

        def record_match(x, y):
            matched.append((x, y))
            return match(x, y)

        def record_undo(rx, ry, q, on_step=None):
            decoded.append((rx, ry))
            return undo_steps(rx, ry, q, on_step)

        monkeypatch.setattr(cdc, "match", record_match)
        monkeypatch.setattr(cdc, "undo_steps", record_undo)
        count, failure = cdc.roundtrip_counterexample(q, l, a, b)
        assert failure is None
        params = list(enumerate_parameters(q, l, a, b))
        edges = [construct_edge(p, q) for p in params]
        assert count == len(edges) == cdc.parameter_count(q, l, a, b) > 0
        tails = [match(*edge)[1:] for edge, first in zip(edges, _on_first_z0(params)) if first]
        assert matched == decoded == tails
        assert len(tails) == len({(_block(p), p.intervals[1:]) for p in params}) < count

    def test_insert_steps_come_from_insert_step(self, monkeypatch):
        insert_step = cdc.insert_step

        def wrong_side_for_offset_one(triple, q):
            u, v = insert_step(triple, q)
            return (v, u) if triple.offset == 1 else (u, v)

        monkeypatch.setattr(cdc, "insert_step", wrong_side_for_offset_one)
        first = next(enumerate_parameters(3, 6, 1, 1))
        assert first.offsets == (1, 1)
        assert cdc.roundtrip_counterexample(3, 6, 1, 1) == (1, construct_edge(first, 3))


def _per_edge_roundtrip(q, l, a, b):
    """roundtrip_counterexample as a plain loop of deconstruct(construct(p)) == p."""
    count = 0
    for p in enumerate_parameters(q, l, a, b):
        count += 1
        x, y = construct_edge(p, q)
        want = (p.intervals[0], tuple(map(InsertTriple, p.gap_sides, p.offsets, p.intervals[1:])))
        try:
            if cdc.deconstruct(x, y, q) != want:
                return count, (x, y)
        except cdc.NotDeconstructableError:
            return count, (x, y)
    return count, None


def _later_z0_edge(q, l, a, b):
    """The middle edge, in parameter order, among those whose z0 is not the
    first z0 of its block."""
    params = list(enumerate_parameters(q, l, a, b))
    later = [p for p, first in zip(params, _on_first_z0(params)) if not first]
    return construct_edge(later[len(later) // 2], q)


REFERENCE_INSTANCES = [(2, 6, 1, 1), (3, 6, 1, 1), (2, 7, 2, 0), (2, 8, 1, 2), (4, 4, 1, 0), (2, 3, 0, 0)]


@pytest.mark.parametrize("q,l,a,b", REFERENCE_INSTANCES)
class TestRoundTripMatchesPerEdgeReference:
    # deconstruct reads match and undo_steps from the module, so a fault
    # patched into either reaches the reference loop too

    def test_without_fault(self, q, l, a, b):
        want = (cdc.parameter_count(q, l, a, b), None)
        assert cdc.roundtrip_counterexample(q, l, a, b) == _per_edge_roundtrip(q, l, a, b) == want

    def test_match_misreports_an_edge_at_a_later_z0(self, monkeypatch, q, l, a, b):
        # the round trip calls match on rests only, so it alone now passes
        # this fault; the per-edge reference refuses it at that edge, and so
        # does the prefix property at the edge's own split (exhaustively so
        # in TestMatchPrefixProperty when the edge is short)
        bad = _later_z0_edge(q, l, a, b)
        match = cdc.match
        split = match(*bad)

        def misreports(x, y):
            z0, rx, ry = match(x, y)
            return (z0[:-1], rx, ry) if (x, y) == bad else (z0, rx, ry)

        monkeypatch.setattr(cdc, "match", misreports)
        assert cdc.roundtrip_counterexample(q, l, a, b) == (cdc.parameter_count(q, l, a, b), None)
        assert _per_edge_roundtrip(q, l, a, b)[1] == bad
        assert _prefix_property_counterexample([split]) == split

    @pytest.mark.parametrize("fault", ["raises", "adds_a_step"])
    def test_one_tail_fails_to_decode(self, monkeypatch, q, l, a, b, fault):
        # the tail of an edge at a later z0 fails first on its block's first z0
        bad = _later_z0_edge(q, l, a, b)
        bad_rests = cdc.match(*bad)[1:]
        undo_steps = cdc.undo_steps

        def faulty(rx, ry, q, on_step=None):
            triples = undo_steps(rx, ry, q, on_step)
            if (rx, ry) != bad_rests:
                return triples
            if fault == "raises":
                raise cdc.NotDeconstructableError("forced")
            return triples + (InsertTriple(LEFT, 1, (0, 0)),)

        monkeypatch.setattr(cdc, "undo_steps", faulty)
        got = cdc.roundtrip_counterexample(q, l, a, b)
        assert got == _per_edge_roundtrip(q, l, a, b)
        assert got[1] is not None and got[1] != bad
        assert cdc.match(*got[1])[1:] == bad_rests

    def test_insert_step_without_a_fresh_head(self, monkeypatch, q, l, a, b):
        # both sides get the bare interval, so the rests start alike:
        # delete_step refuses them, and match splits every edge past its z0
        monkeypatch.setattr(cdc, "insert_step", lambda triple, q: (triple.interval,) * 2)
        got = cdc.roundtrip_counterexample(q, l, a, b)
        assert got == _per_edge_roundtrip(q, l, a, b)
        assert got[0] == 1 or a + b == 0
