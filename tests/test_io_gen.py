import hashlib
import math
import random
from array import array

import pytest

from tdroute import (
    CONSTANT,
    LINEAR,
    PERIODIC,
    STATIC,
    GeneratorConfig,
    GraphFormatError,
    TdGraph,
    build_ael,
    dumps,
    generate,
    load,
    loads,
    sample_graph,
    save,
    shortest_paths,
    validate_file,
)
from tdroute.io_gen import MAX_INTERVALS
from tdroute.model import MAX_NODES
from support import random_graph, static_dijkstra

DEMO_TEXT = """\
# two-node demo network
tdgraph 1 constant static
division 4 0 10 15 30 40
nodes 2
arcs 1
arc 0 1 170 10 6 8 10
"""


class TestLoad:
    def test_demo_file(self):
        graph = loads(DEMO_TEXT)
        assert graph == sample_graph()
        assert graph.arcs[0].length == 170.0
        assert tuple(graph.arcs[0].profile.values) == (10.0, 6.0, 8.0, 10.0)
        assert graph.division.breakpoints == (0.0, 10.0, 15.0, 30.0, 40.0)

    def test_empty_arc_list(self):
        graph = loads("tdgraph 1 constant static\ndivision 1 0 10\nnodes 3\narcs 0\n")
        assert graph.nodes == 3
        assert graph.arc_count == 0

    def test_comments_and_blank_lines(self):
        text = "\n# hi\n" + DEMO_TEXT.replace("arcs 1", "arcs 1  # count") + "\n\n"
        assert loads(text) == sample_graph()

    def test_load_from_disk(self, tmp_path):
        target = tmp_path / "demo.tdg"
        target.write_text(DEMO_TEXT)
        assert load(target) == sample_graph()


# Every line boundary str.splitlines knows.
SEPARATORS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029")


class TestReadLineByLine:
    """``load`` and ``validate_file`` read the file line by line and number
    the lines as ``str.splitlines`` does for the whole text."""

    @pytest.mark.parametrize("separator", SEPARATORS)
    def test_every_separator_ends_a_line(self, tmp_path, separator):
        target = tmp_path / "g.tdg"
        lines = DEMO_TEXT.splitlines()
        target.write_bytes(separator.join(lines).encode())
        assert load(target) == sample_graph()
        lines[-1] = "arc 0 1 170 10 6 8 -10"
        lines.insert(2, "")
        target.write_bytes((separator.join(lines) + separator).encode())
        assert [str(e) for e in validate_file(target)] == [
            "line 7: non-positive speed"
        ]

    def test_mixed_separators_number_lines_like_the_text(self, tmp_path):
        body = (
            "# mixed\n\ntdgraph 1 constant static\ndivision 1 0 10\n"
            "nodes 3\narcs 4\narc 0 1 100 10\n\n# gap\narc 1 1 100 10\n"
            "arc 0 2 100 x\narc 2 0 100 10\n\n"
        ).splitlines()
        target = tmp_path / "g.tdg"
        for shift in range(len(SEPARATORS)):
            separators = SEPARATORS[shift:] + SEPARATORS[:shift]
            text = "".join(
                line + separators[i % len(separators)]
                for i, line in enumerate(body)
            )
            target.write_bytes(text.encode())
            # The text's own numbering, through loads.
            with pytest.raises(GraphFormatError) as caught:
                loads(text)
            errors = [str(e) for e in validate_file(target)]
            assert errors[0] == str(caught.value)
            assert len(errors) == 2 and "invalid number 'x'" in errors[1]
            fixed = text.replace("arc 1 1", "arc 1 2").replace(" x", " 9")
            target.write_bytes(fixed.encode())
            assert validate_file(target) == []
            assert load(target) == loads(fixed)


class TestRoundTrip:
    def test_load_save_identity(self):
        rng = random.Random(90)
        for _ in range(50):
            graph = random_graph(rng)
            assert loads(dumps(graph)) == graph

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = random.Random(91)
        for i in range(20):
            graph = random_graph(rng)
            first = tmp_path / f"a{i}.tdg"
            second = tmp_path / f"b{i}.tdg"
            save(graph, first)
            save(load(first), second)
            assert first.read_bytes() == second.read_bytes()

    def test_awkward_floats_survive(self):
        graph = loads(
            "tdgraph 1 constant static\n"
            f"division 2 0 {1/3!r} {2/3!r}\n"
            "nodes 2\narcs 1\n"
            f"arc 0 1 {math.pi!r} {1/7!r} {math.e!r}\n"
        )
        again = loads(dumps(graph))
        assert again.arcs[0].length == math.pi
        assert tuple(again.arcs[0].profile.values) == (1 / 7, math.e)
        assert again.division.breakpoints == (0.0, 1 / 3, 2 / 3)


def mutate(lines, kind):
    """Apply one named corruption to the demo file's lines."""
    out = list(lines)
    if kind == "header-magic":
        out[0] = "tdgrph 1 constant static"
    elif kind == "header-version":
        out[0] = "tdgraph 9 constant static"
    elif kind == "header-kind":
        out[0] = "tdgraph 1 cubic static"
    elif kind == "header-policy":
        out[0] = "tdgraph 1 constant sometimes"
    elif kind == "breakpoint-count":
        out[1] = "division 4 0 10 15 30"
    elif kind == "breakpoints-order":
        out[1] = "division 4 0 15 10 30 40"
    elif kind == "breakpoints-duplicate":
        out[1] = "division 4 0 10 10 30 40"
    elif kind == "first-breakpoint":
        out[1] = "division 4 1 10 15 30 40"
    elif kind == "interval-count":
        out[1] = "division 0 0"
    elif kind == "node-count":
        out[2] = "nodes 0"
    elif kind == "node-cap":
        out[2] = f"nodes {MAX_NODES + 1}"
    elif kind == "arc-count":
        out[3] = "arcs -2"
    elif kind == "zero-length":
        out[4] = "arc 0 1 0 10 6 8 10"
    elif kind == "zero-speed":
        out[4] = "arc 0 1 170 10 0 8 10"
    elif kind == "negative-speed":
        out[4] = "arc 0 1 170 10 -6 8 10"
    elif kind == "speed-count":
        out[4] = "arc 0 1 170 10 6 8"
    elif kind == "node-id":
        out[4] = "arc 0 7 170 10 6 8 10"
    elif kind == "self-loop":
        out[4] = "arc 1 1 170 10 6 8 10"
    elif kind == "bad-number":
        out[4] = "arc 0 1 fast 10 6 8 10"
    elif kind == "bad-integer":
        out[4] = "arc 0 one 170 10 6 8 10"
    elif kind == "truncated":
        out = out[:4]
    elif kind == "trailing":
        out.append("arc 1 0 170 10 6 8 10")
    else:
        raise AssertionError(kind)
    return "\n".join(out) + "\n"


EXPECTED_DIAGNOSTIC = {
    "header-magic": "malformed header",
    "header-version": "malformed header",
    "header-kind": "malformed header",
    "header-policy": "malformed header",
    "breakpoint-count": "breakpoint count mismatch",
    "breakpoints-order": "non-increasing breakpoints",
    "breakpoints-duplicate": "non-increasing breakpoints",
    "first-breakpoint": "first breakpoint must be 0",
    "interval-count": "interval count must be at least 1",
    "node-count": "node count must be at least 1",
    "node-cap": f"node count {MAX_NODES + 1} exceeds the cap",
    "arc-count": "arc count must be non-negative",
    "zero-length": "non-positive arc length",
    "zero-speed": "non-positive speed",
    "negative-speed": "non-positive speed",
    "speed-count": "speed count mismatch",
    "node-id": "node id out of range",
    "self-loop": "self-loop arc",
    "bad-number": "invalid number",
    "bad-integer": "invalid integer 'one'",
    "truncated": "missing arc line",
    "trailing": "trailing content",
}


class TestStorage:
    """Speeds and prefix rows are dense doubles, one copy of each."""

    @pytest.mark.parametrize("kind, policy", [(CONSTANT, STATIC), (LINEAR, PERIODIC)])
    def test_one_array_per_arc_shared_with_the_engine(self, kind, policy):
        generated = generate(GeneratorConfig(
            nodes=8, avg_degree=2, intervals=6, horizon=100, speed_range=(1, 3),
            length_range=(20, 400), kind=kind, policy=policy, seed=4,
        ))
        for graph in (loads(DEMO_TEXT), generated):
            for i, arc in enumerate(graph.arcs):
                values = graph._speeds[i]
                assert values is arc.profile.values
                assert isinstance(values, array) and values.typecode == "d"
            rows = build_ael(graph).rows
            assert len(rows) == graph.arc_count
            for row in rows:
                assert isinstance(row, array) and row.typecode == "d"
            assert loads(dumps(graph)) == graph


class TestDiagnostics:
    @pytest.mark.parametrize("mutation", sorted(EXPECTED_DIAGNOSTIC))
    def test_each_mutation_has_its_diagnostic(self, mutation):
        text = mutate(DEMO_TEXT.splitlines()[1:], mutation)
        with pytest.raises(GraphFormatError) as caught:
            loads(text)
        assert EXPECTED_DIAGNOSTIC[mutation] in str(caught.value)
        assert caught.value.line >= 1

    def test_line_numbers_point_at_the_culprit(self):
        text = mutate(DEMO_TEXT.splitlines()[1:], "zero-speed")
        with pytest.raises(GraphFormatError) as caught:
            loads(text)
        assert caught.value.line == 5

    def test_periodic_linear_seam(self):
        text = (
            "tdgraph 1 linear periodic\n"
            "division 1 0 10\n"
            "nodes 2\narcs 1\n"
            "arc 0 1 100 10 12\n"
        )
        with pytest.raises(GraphFormatError) as caught:
            loads(text)
        assert "begin and end at the same speed" in str(caught.value)

    def test_validate_collects_multiple_arc_errors(self, tmp_path):
        text = (
            "tdgraph 1 constant static\n"
            "division 1 0 10\n"
            "nodes 3\narcs 3\n"
            "arc 0 1 100 10\n"
            "arc 1 1 100 10\n"
            "arc 0 2 -5 10\n"
        )
        target = tmp_path / "bad.tdg"
        target.write_text(text)
        errors = validate_file(target)
        assert len(errors) == 2
        assert "self-loop arc" in str(errors[0])
        assert "non-positive arc length" in str(errors[1])

    def test_validate_clean_file(self, tmp_path):
        target = tmp_path / "ok.tdg"
        target.write_text(DEMO_TEXT)
        assert validate_file(target) == []

    @pytest.mark.parametrize(
        "text, expected",
        [
            # An arc error on the last line ends the arc list: no
            # "missing arc line" follows it.
            (
                "tdgraph 1 constant static\ndivision 1 0 10\nnodes 3\narcs 3\n"
                "arc 0 1 100 10\narc 1 1 100 10\n",
                ["line 6: self-loop arc"],
            ),
            (
                "tdgraph 1 constant static\ndivision 1 0 10\nnodes 3\narcs 1\n"
                "arc 1 1 100 10\n\n# more\narc 0 1 100 10\n",
                ["line 5: self-loop arc", "line 8: trailing content"],
            ),
            # A missing line points at the last content line, not at the
            # comments and blank lines after it.
            (
                "tdgraph 1 constant static\n# c\n\ndivision 1 0 10\n\n# end\n",
                ["line 4: missing nodes line"],
            ),
            (
                "tdgraph 1 constant static\ndivision 1 0 10\nnodes 3\narcs 2\n"
                "arc 0 1 100 10\n# note\n\n",
                ["line 5: missing arc line"],
            ),
            (
                "tdgraph 1 constant static\ndivision 1 0 10\nnodes 3\narcs 1\n"
                "arc 0 1 100 10\n\n# note\narc 1 0 100 10\n",
                ["line 8: trailing content"],
            ),
            ("", ["line 1: missing header line"]),
            ("# only a comment\n\n", ["line 1: missing header line"]),
        ],
    )
    def test_validate_lists_exactly(self, tmp_path, text, expected):
        target = tmp_path / "g.tdg"
        target.write_text(text)
        assert [str(error) for error in validate_file(target)] == expected

    @pytest.mark.parametrize("position", [0, 47, 95])
    @pytest.mark.parametrize(
        "token, message",
        [(t, "non-positive speed") for t in ("nan", "inf", "-inf", "1e999", "-0.0", "0")]
        + [("x", "invalid number 'x'")],
    )
    def test_bad_speed_on_a_long_line(self, token, message, position):
        speeds = ["10"] * 96
        speeds[position] = token
        text = (
            "tdgraph 1 constant static\n"
            f"division 96 {' '.join(map(str, range(97)))}\n"
            "nodes 2\narcs 2\n"
            f"arc 0 1 100 {' '.join(['12'] * 96)}\n"
            f"arc 1 0 100 {' '.join(speeds)}\n"
        )
        with pytest.raises(GraphFormatError) as caught:
            loads(text)
        assert str(caught.value) == f"line 6: {message}"


class TestFuzz:
    def test_mutations_never_crash(self):
        classes = sorted(EXPECTED_DIAGNOSTIC)
        base = DEMO_TEXT.splitlines()[1:]
        for i in range(300):
            mutation = classes[i % len(classes)]
            text = mutate(base, mutation)
            with pytest.raises(GraphFormatError) as caught:
                loads(text)
            assert EXPECTED_DIAGNOSTIC[mutation] in str(caught.value)

    def test_token_garbage_never_crashes(self):
        rng = random.Random(93)
        base = dumps(sample_graph()).splitlines()
        alphabet = "abc01 .-+e#\t"
        for _ in range(300):
            lines = list(base)
            target = rng.randrange(len(lines))
            junk = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            mode = rng.random()
            if mode < 0.4:
                lines[target] = junk
            elif mode < 0.7:
                lines.insert(target, junk)
            else:
                del lines[target]
            try:
                loads("\n".join(lines) + "\n")
            except GraphFormatError:
                pass  # any diagnostic is fine; crashing is not


class TestGenerator:
    def test_same_seed_same_graph(self):
        config = GeneratorConfig(
            nodes=20, avg_degree=2.5, intervals=6, horizon=600.0,
            speed_range=(5.0, 30.0), length_range=(50.0, 500.0), seed=1234,
        )
        assert dumps(generate(config)) == dumps(generate(config))

    def test_different_seeds_differ(self):
        base = dict(
            nodes=20, avg_degree=2.5, intervals=6, horizon=600.0,
            speed_range=(5.0, 30.0), length_range=(50.0, 500.0),
        )
        a = generate(GeneratorConfig(seed=1, **base))
        b = generate(GeneratorConfig(seed=2, **base))
        assert dumps(a) != dumps(b)

    def test_seeded_output_is_pinned(self):
        # Sparse, dense and below-one degrees; the digest changes with any
        # change to the seeded draws.
        digest = hashlib.sha256()
        for nodes, degree, kind, policy in (
            (12, 2.5, CONSTANT, STATIC),
            (40, 0.5, LINEAR, PERIODIC),
            (5, 3.9, LINEAR, STATIC),
        ):
            config = GeneratorConfig(
                nodes=nodes, avg_degree=degree, intervals=4, horizon=600.0,
                speed_range=(5.0, 30.0), length_range=(50.0, 500.0),
                kind=kind, policy=policy, seed=8,
            )
            digest.update(dumps(generate(config)).encode())
        assert digest.hexdigest() == (
            "57b3c728e8032370d929dd1f72e2c964665a22acef06633461d5c95724476ebb"
        )

    def test_single_isolated_node(self):
        config = GeneratorConfig(
            nodes=1, avg_degree=0.0, intervals=2, horizon=60.0,
            speed_range=(5.0, 30.0), length_range=(50.0, 500.0),
        )
        graph = generate(config)
        assert graph.nodes == 1
        assert graph.arc_count == 0

    def test_every_node_has_an_out_arc_when_degree_at_least_one(self):
        config = GeneratorConfig(
            nodes=30, avg_degree=1.0, intervals=3, horizon=60.0,
            speed_range=(5.0, 30.0), length_range=(50.0, 500.0), seed=5,
        )
        graph = generate(config)
        assert all(graph.out_arcs(node) for node in range(graph.nodes))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(nodes=0),
            dict(nodes=MAX_NODES + 1, avg_degree=0.0),
            dict(intervals=0),
            dict(horizon=0.0),
            dict(horizon=math.inf),
            dict(horizon=5e-324),   # no room for two interior breakpoints
            dict(speed_range=(0.0, 10.0)),
            dict(speed_range=(10.0, 5.0)),
            dict(length_range=(-1.0, 10.0)),
            dict(avg_degree=10.0),   # exceeds nodes-1
            dict(kind="cubic"),
            dict(policy="sometimes"),
            dict(intervals=MAX_INTERVALS + 1),
            dict(nodes=MAX_NODES, avg_degree=2.0),   # about 2^35 B of arcs
            dict(speed_range=(1.0, math.inf)),
            dict(length_range=(1.0, math.inf)),
        ],
    )
    def test_degenerate_configs_rejected(self, overrides):
        base = dict(
            nodes=4, avg_degree=1.0, intervals=3, horizon=60.0,
            speed_range=(5.0, 30.0), length_range=(50.0, 500.0),
        )
        base.update(overrides)
        with pytest.raises(ValueError):
            GeneratorConfig(**base)

    def test_output_always_validates(self, tmp_path):
        rng = random.Random(94)
        for i in range(30):
            graph = random_graph(rng)
            target = tmp_path / f"g{i}.tdg"
            save(graph, target)
            assert validate_file(target) == []
            assert load(target) == graph

    def test_periodic_linear_profiles_wrap(self):
        config = GeneratorConfig(
            nodes=6, avg_degree=1.5, intervals=4, horizon=100.0,
            speed_range=(5.0, 30.0), length_range=(50.0, 500.0),
            kind=LINEAR, policy=PERIODIC, seed=6,
        )
        graph = generate(config)
        for arc in graph.arcs:
            assert arc.profile.values[0] == arc.profile.values[-1]

    def test_tight_speed_range_behaves_statically(self):
        speed = 12.0
        config = GeneratorConfig(
            nodes=8, avg_degree=2.0, intervals=6, horizon=300.0,
            speed_range=(speed, speed), length_range=(50.0, 500.0), seed=7,
        )
        graph = generate(config)
        table = build_ael(graph)
        result = shortest_paths(graph, table, 0, 17.0, "fatt")
        baseline = static_dijkstra(graph, 0, speed)
        for node in range(graph.nodes):
            if baseline[node] == math.inf:
                continue
            assert result.arrival[node] - 17.0 == pytest.approx(
                baseline[node], rel=1e-9, abs=1e-9
            )
