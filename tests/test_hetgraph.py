import hashlib
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference
from conftest import write_edge_files
from graph_checks import neighbors, validate
from dgnnrec import hetgraph as hg
from dgnnrec import synthetic
from dgnnrec.seeding import NEGATIVES, rng_for
from dgnnrec.synthetic import make_planted_dataset

INT64_MAX = int(np.iinfo(np.int64).max)


# ---------------------------------------------------------------------------
# edge files


def test_load_edge_file_parses_and_keeps_duplicates(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\t3\n1\t2\n# comment\n\n0\t3\n", encoding="utf-8")
    pairs = hg.load_edge_file(path, "interaction")
    assert pairs.dtype == np.int64 and pairs.shape == (3, 2)
    assert pairs.tolist() == [[0, 3], [1, 2], [0, 3]]


def test_load_edge_file_rejects_bad_delimiter(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0,3\n", encoding="utf-8")
    with pytest.raises(hg.EdgeFileError) as exc:
        hg.load_edge_file(path, "interaction")
    assert exc.value.line == 1


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("bad_line", [1, 4])
def test_load_edge_file_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, end, bad_line):
    lines = [b"0\t1", "# café".encode("utf-8"), b"", b"2\t3", b"4\t5"]
    lines[bad_line - 1] = b"5\t\xff7"
    path = tmp_path / "edges.tsv"
    path.write_bytes(end.join(lines) + end)
    with pytest.raises(hg.EdgeFileError, match=rf"^line {bad_line}: byte 0xff in social "
                                               rf"file is not UTF-8$") as exc:
        hg.load_edge_file(path, "social")
    assert exc.value.line == bad_line


def test_load_edge_file_rejects_negative_id(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\t1\n-2\t4\n", encoding="utf-8")
    with pytest.raises(hg.EdgeFileError, match="negative"):
        hg.load_edge_file(path, "social")


def test_load_edge_file_unknown_kind(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\t1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="kind"):
        hg.load_edge_file(path, "bogus")


@pytest.mark.parametrize("dst, ok", [(10 ** 18 - 1, True), (10 ** 18, False), (INT64_MAX, False),
                                     (INT64_MAX + 1, False), (10 ** 20 - 1, False)])
def test_load_edge_file_takes_ids_of_at_most_18_digits(tmp_path, dst, ok):
    path = tmp_path / "edges.tsv"
    line = f"1\t{dst}"
    path.write_text(f"0\t1\n{line}\n", encoding="utf-8")
    if ok:
        assert hg.load_edge_file(path, "interaction").tolist() == [[0, 1], [1, dst]]
        return
    with pytest.raises(hg.EdgeFileError, match=re.escape(f"18 ASCII digits joined by one tab, "
                                                         f"got {line!r}")) as exc:
        hg.load_edge_file(path, "interaction")
    assert exc.value.line == 2


def _reference_outcome(path, kind):
    """Every line's pair in file order, or (message, line) of the first line that the
    reference rejects."""
    try:
        return [[src, dst] for _, src, dst in ingest_reference.edge_lines(path, kind)]
    except hg.EdgeFileError as err:
        return str(err), err.line


_PLAIN_LINE = st.builds("{}\t{}".format, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
_EDGE_LINE = st.one_of(
    _PLAIN_LINE, _PLAIN_LINE,
    st.builds("{}\t{}".format, st.integers(-5, 10 ** 20), st.integers(0, 10 ** 20)),
    st.text(alphabet="0123456789+-_ \t#", max_size=12))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_EDGE_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12),
       st.booleans())
def test_load_edge_file_matches_line_reference(lines, final_newline):
    text = "".join(line + end for line, end in lines)
    if lines and not final_newline:
        text = text[:-len(lines[-1][1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        path.write_bytes(text.encode("utf-8"))
        want = _reference_outcome(path, "social")
        try:
            got = hg.load_edge_file(path, "social")
        except hg.EdgeFileError as err:
            assert isinstance(want, tuple), f"rejected {text!r}: {err}"
            message, line = want
            assert err.line == line
            assert message in str(err)
        else:
            assert got.dtype == np.int64 and got.shape == (len(want), 2)
            assert got.tolist() == want, text


_SKIPPED_LINE = st.sampled_from(["", "  ", "\t", "# comment", "  # indented", "\t#\tx",
                                 "# café ✓", " #  ümlaut"])


@settings(max_examples=75, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 18 - 1), st.integers(0, 10 ** 18 - 1)),
                max_size=200),
       st.data())
def test_edge_file_round_trips_pairs_in_file_order(pairs, data):
    lines = []
    for pair in pairs:
        lines += data.draw(st.lists(_SKIPPED_LINE, max_size=2)) + ["%d\t%d" % pair]
    lines += data.draw(st.lists(_SKIPPED_LINE, max_size=2))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                              min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and not data.draw(st.booleans()):
        text = text[:-len(ends[-1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        path.write_bytes(text.encode("utf-8"))
        got = hg.load_edge_file(path, "interaction")
    assert got.dtype == np.int64 and got.shape == (len(pairs), 2)
    assert got.tolist() == [list(pair) for pair in pairs]


# ---------------------------------------------------------------------------
# build


def test_build_graph_symmetrizes_social():
    g = hg.build_graph([(0, 0)], [(0, 1)], [], 2, 1, 0)
    assert neighbors(g.uu, 0).tolist() == [1]
    assert neighbors(g.uu, 1).tolist() == [0]


def test_build_graph_empty_social_and_relations():
    g = hg.build_graph([(0, 0), (1, 1)], [], [], 2, 2, 3)
    assert g.uu.num_edges == 0
    assert g.ir.num_edges == 0
    assert g.num_interactions == 2
    validate(g)


@pytest.mark.parametrize("row1", [[1, 0], [1, 1]])
def test_validate_rejects_row_not_strictly_ascending(row1):
    from dataclasses import replace
    # Row 0 ends above where row 1 starts: a boundary is not a descent.
    g = hg.build_graph([(0, 2), (1, 0), (1, 1)], [], [], 3, 3, 0)
    validate(g)
    bad = hg.Adjacency(np.array([0, 1, 3, 3]), np.array([2] + row1))
    with pytest.raises(hg.GraphBuildError, match="ui: row 1 not strictly ascending"):
        validate(replace(g, ui=bad))


def test_build_graph_rejects_out_of_range():
    with pytest.raises(hg.GraphBuildError, match=r"\(0, 5\)"):
        hg.build_graph([(0, 5)], [], [], 2, 3, 0)


def test_build_graph_rejects_social_self_loop():
    with pytest.raises(hg.GraphBuildError, match="self-loop"):
        hg.build_graph([(0, 0)], [(1, 1)], [], 2, 1, 0)


def test_build_graph_sorts_and_dedups_messy_edge_files(tmp_path):
    ds = make_planted_dataset(seed=0)
    graphs = []
    for name, rng in (("clean", None), ("messy", np.random.default_rng(7))):
        files = write_edge_files(tmp_path / name, ds, rng)
        edges = [hg.load_edge_file(files[kind], kind) for kind in hg.EDGE_KINDS]
        graphs.append(hg.build_graph(*edges, ds.num_users, ds.num_items, ds.num_relations))
    assert len(edges[0]) > len(ds.interactions)
    clean, messy = graphs
    for name in ("ui", "iu", "uu", "ir", "ri"):
        assert np.array_equal(getattr(clean, name).indptr, getattr(messy, name).indptr)
        assert np.array_equal(getattr(clean, name).indices, getattr(messy, name).indices)


@pytest.mark.parametrize("pairs, counts, named", [
    (([(0, 0)], [], []), (2 ** 31, 1, 0), "2147483648 users"),
    (([(0, 0)], [], []), (1, 2 ** 31, 0), "2147483648 items"),
    (([(0, 0)], [], [(0, 0)]), (1, 1, 2 ** 31), "2147483648 relation nodes"),
    (([(10 ** 11, 3)], [], []), (10 ** 11 + 1, 4, 0), "100000000001 users"),
    (([(INT64_MAX - 1, 3)], [], []), (INT64_MAX, 4, 0), f"{INT64_MAX} users"),
    (([(0, 3)], [], [(INT64_MAX - 1, 0)]), (1, INT64_MAX, 1), f"{INT64_MAX} items"),
], ids=["users", "items", "relations", "1e11_user", "int64_user", "int64_item"])
def test_build_graph_refuses_node_counts_from_2_to_the_31(pairs, counts, named):
    # from_pairs keys a pair as row * width + col in int64.
    with pytest.raises(hg.GraphBuildError, match=rf"^{named}: .*below 2\*\*31$"):
        hg.build_graph(*pairs, *counts)


def test_a_replaced_relation_brings_its_reverse_along():
    # A graph stores ui, uu and ir; iu and ri are their transposes, so a copy
    # made by replace cannot keep the reverse of the relation it replaced.
    from dataclasses import replace
    from conftest import random_params
    from dgnnrec.model import forward
    ds = make_planted_dataset(num_users=30, num_items=160, num_relations=5,
                              interactions_per_user=8, seed=9)
    g = hg.build_graph(ds.interactions, ds.social, ds.item_relations,
                       ds.num_users, ds.num_items, ds.num_relations)
    counts = (g.num_users, g.num_items, g.num_relations)
    ui, uu, ir = g.interaction_pairs(), g.social_pairs(), g.item_relation_pairs()
    params = random_params(g, 4, 2, 2)
    for copy, rebuilt in (
            (replace(g, ui=hg.Adjacency.from_pairs(ui[::2], g.num_users)),
             hg.build_graph(ui[::2], uu, ir, *counts)),
            (replace(g, ir=hg.Adjacency.from_pairs(ir[::2], g.num_items)),
             hg.build_graph(ui, uu, ir[::2], *counts))):
        validate(copy)
        got, want = forward(copy, params), forward(rebuilt, params)
        for x, y in zip(got.layers + [got.hstar], want.layers + [want.hstar]):
            assert x.tobytes() == y.tobytes()


def test_round_trip_rebuild_is_identical(tiny_graph):
    g = tiny_graph
    g2 = hg.build_graph(g.interaction_pairs(), g.social_pairs(),
                        g.item_relation_pairs(), g.num_users, g.num_items,
                        g.num_relations)
    for name in ("ui", "iu", "uu", "ir", "ri"):
        assert np.array_equal(getattr(g, name).indptr, getattr(g2, name).indptr)
        assert np.array_equal(getattr(g, name).indices, getattr(g2, name).indices)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_graph_invariants(seed):
    from conftest import random_small_graph
    g = random_small_graph(np.random.default_rng(seed))
    validate(g)  # symmetry, bidirectional consistency, sortedness, ranges


# ---------------------------------------------------------------------------
# split


def _chain_graph(num_users=8, num_items=112, per_user=3, seed=0):
    rng = np.random.default_rng(seed)
    edges = set()
    for u in range(num_users):
        for j in rng.choice(num_items, size=per_user, replace=False):
            edges.add((u, int(j)))
    return hg.build_graph(sorted(edges), [(0, 1)], [], num_users, num_items, 0)


def test_split_partitions_each_user():
    g = _chain_graph()
    split = hg.split_leave_one_out(g, seed=5)
    for u, held in zip(split.test_users.tolist(), split.test_items.tolist()):
        train_items = set(neighbors(split.train_graph.ui, u).tolist())
        full_items = set(neighbors(g.ui, u).tolist())
        assert held not in train_items
        assert train_items | {held} == full_items


def test_split_deterministic_same_seed():
    g = _chain_graph()
    a = hg.split_leave_one_out(g, seed=9)
    b = hg.split_leave_one_out(g, seed=9)
    assert np.array_equal(a.test_users, b.test_users)
    assert np.array_equal(a.test_items, b.test_items)
    assert np.array_equal(a.eval_negatives, b.eval_negatives)
    c = hg.split_leave_one_out(g, seed=10)
    assert not (np.array_equal(a.test_items, c.test_items)
                and np.array_equal(a.eval_negatives, c.eval_negatives))


def test_split_skips_single_interaction_users():
    g = hg.build_graph([(0, 0), (1, 0), (1, 1), (1, 2)], [], [], 2, 110, 0)
    split = hg.split_leave_one_out(g, seed=0)
    assert 0 not in split.test_users.tolist()
    assert split.num_skipped == 1


def test_split_negatives_avoid_all_interactions():
    g = _chain_graph(num_users=6, num_items=130, per_user=4)
    split = hg.split_leave_one_out(g, seed=3)
    keys = g.interaction_keys
    for row, u in enumerate(split.test_users):
        negs = split.eval_negatives[row]
        assert np.unique(negs).size == negs.size
        assert not hg._in_sorted(keys, u * g.num_items + negs).any()


def test_split_errors_when_negatives_unavailable():
    g = hg.build_graph([(0, 0), (0, 1)], [], [], 1, 2, 0)
    with pytest.raises(hg.SplitError):
        hg.split_leave_one_out(g, seed=0)


@pytest.mark.parametrize("num_items, untouched", [(130, 100), (300, 100)])
def test_negatives_match_reference_when_users_need_more_chunks(num_items, untouched):
    """Each user leaves at least ``untouched`` items alone, enough for its negatives."""
    rng = np.random.default_rng(num_items)
    num_users = 150  # more users than one block of first chunks
    pairs = sorted({(u, int(j)) for u in range(num_users) for j in rng.choice(
        num_items, size=int(rng.integers(2, num_items - untouched + 1)), replace=False)})
    g = hg.build_graph(pairs, [], [], num_users, num_items, 0)
    split = hg.split_leave_one_out(g, seed=4)
    want, chunks = ingest_reference.draw_negatives(g, split.test_users, hg.NUM_EVAL_NEGATIVES,
                                                   rng_for(4, NEGATIVES))
    assert chunks.max() >= 2
    if num_items == 130:  # 128 draws from 130 items hold about 81 distinct ones
        assert chunks.min() >= 2
    if num_items == 300:
        assert chunks.min() == 1 and np.count_nonzero(chunks >= 2) > 1
    assert np.array_equal(split.eval_negatives, want)


def test_planted_manifest_bytes_are_pinned(tmp_path):
    # Any change to the hold-out pick or to the negatives' RNG stream shows here.
    split = hg.split_leave_one_out(make_planted_dataset(seed=0).build(), seed=0)
    hg.save_split_manifest(split, tmp_path / "split.txt")
    assert hashlib.sha256((tmp_path / "split.txt").read_bytes()).hexdigest() == (
        "77115c500a753b5460e57fe2026b520fe0a997f60b77f975e3e8c00e2229d434")


def test_planted_top_pairs_match_a_per_row_loop():
    rng = np.random.default_rng(3)
    for rows, cols, k in ((1, 5, 2), (30, 40, 6), (12, 12, 11), (8, 3, 0)):
        scores = rng.normal(size=(rows, cols))
        want = sorted({(r, int(c)) for r in range(rows)
                       for c in np.argpartition(-scores[r], k)[:k]})
        got = synthetic._top_pairs(scores, k)
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert got.tolist() == [list(pair) for pair in want]


def test_manifest_round_trip(tmp_path):
    g = _chain_graph(num_users=10, num_items=150, per_user=4)
    split = hg.split_leave_one_out(g, seed=17)
    path = tmp_path / "split.txt"
    hg.save_split_manifest(split, path)
    hg.check_split_manifest(hg.split_leave_one_out(g, seed=17), path)
    with pytest.raises(hg.SplitError, match=r"split\.txt: line 2: holds 'seed\\t17\\n', but "
                                            r"the split of seed 18 has 'seed\\t18\\n' there; "
                                            r"rebuild it or use --seed 17$"):
        hg.check_split_manifest(hg.split_leave_one_out(g, seed=18), path)


def _saved_split(path, seed=17):
    """The split of the 10-user chain graph under ``seed``, its manifest saved at ``path``."""
    split = hg.split_leave_one_out(_chain_graph(num_users=10, num_items=150, per_user=4), seed)
    hg.save_split_manifest(split, path)
    return split


def _rewrite_first_test_row(path, edit):
    lines = path.read_text().splitlines()
    row = 3  # after the header, seed and skipped lines
    u, item, negs = lines[row].split("\t")
    lines[row] = "\t".join(edit(int(u), int(item), negs.split(",")))
    path.write_text("\n".join(lines) + "\n")


def test_manifest_ids_that_only_int_reads_are_refused(tmp_path):
    # int() reads these ids as the split's own, but they are not its bytes.
    path = tmp_path / "split.txt"
    split = _saved_split(path)
    _rewrite_first_test_row(path, lambda u, item, negs: (
        f"+{u}", f" {item}", ",".join([f"{n[0]}_{n[1:]}" if len(n) > 1 else n for n in negs])))
    with pytest.raises(hg.SplitError, match=r"split\.txt: line 4: holds '\+"):
        hg.check_split_manifest(split, path)


def test_manifest_rejects_held_pair_not_in_graph(tmp_path):
    path = tmp_path / "split.txt"
    split = _saved_split(path)

    def hold_a_negative(u, item, negs):
        # a negative is by construction not an interaction of u
        return str(u), negs[0], ",".join(negs[1:] + [str(item)])

    _rewrite_first_test_row(path, hold_a_negative)
    with pytest.raises(hg.SplitError, match=r"split\.txt: line 4: "):
        hg.check_split_manifest(split, path)


def test_manifest_rejects_negative_the_user_interacted_with(tmp_path):
    path = tmp_path / "split.txt"
    split = _saved_split(path)

    def swap_in_train_item(u, item, negs):
        other = int(neighbors(split.train_graph.ui, u)[0])
        return str(u), str(item), ",".join([str(other)] + negs[1:])

    _rewrite_first_test_row(path, swap_in_train_item)
    with pytest.raises(hg.SplitError, match=r"split\.txt: line 4: "):
        hg.check_split_manifest(split, path)


def test_manifest_rejects_out_of_range_ids(tmp_path):
    path = tmp_path / "split.txt"
    split = _saved_split(path)
    _rewrite_first_test_row(path, lambda u, item, negs: (
        str(u), str(item), ",".join(negs[:-1] + ["150"])))
    with pytest.raises(hg.SplitError, match=r"split\.txt: line 4: "):
        hg.check_split_manifest(split, path)


def test_manifest_with_a_consistent_edit_is_refused(tmp_path):
    # User 0's held-out 228 swapped for 3, another of its interactions: the
    # old loader took this file, and the run trained on 228 and tested on 3.
    g = make_planted_dataset(num_users=40, num_items=300).build()
    split = hg.split_leave_one_out(g, seed=7)
    path = tmp_path / "split.txt"
    hg.save_split_manifest(split, path)
    assert 3 in neighbors(g.ui, 0).tolist()
    text = path.read_text()
    assert "\n0\t228\t" in text
    path.write_text(text.replace("\n0\t228\t", "\n0\t3\t", 1))
    with pytest.raises(hg.SplitError, match=r"split\.txt: line 4: holds '0\\t3\\t.*', "
                                            r"but the split of seed 7 has '0\\t228\\t"):
        hg.check_split_manifest(split, path)


def _duplicate_first_user(path, graph, another_item):
    """Append a second row for the manifest's first test user; returns that user."""
    lines = path.read_text().splitlines()
    u, item, negs = lines[3].split("\t")
    if another_item:
        item = str(next(j for j in neighbors(graph.ui, int(u)).tolist() if j != int(item)))
    path.write_text("\n".join(lines + [f"{u}\t{item}\t{negs}"]) + "\n")
    return int(u), len(lines) + 1


@pytest.mark.parametrize("another_item", [False, True], ids=["copied_row", "another_item"])
def test_manifest_rejects_a_user_listed_twice(tmp_path, another_item):
    # Loaded, the copy counted the user twice in the metrics, and a second
    # held-out item took one more interaction out of the train graph.
    g = make_planted_dataset(num_users=40, num_items=300).build()
    split = hg.split_leave_one_out(g, seed=7)
    path = tmp_path / "split.txt"
    hg.save_split_manifest(split, path)
    user, last_line = _duplicate_first_user(path, g, another_item)
    with pytest.raises(hg.SplitError, match=rf"split\.txt: line {last_line}: holds '{user}\\t"
                                            rf".*', but the split of seed 7 has nothing there$"):
        hg.check_split_manifest(split, path)


def test_manifest_cut_short_names_the_first_missing_user(tmp_path):
    # Cut after its 150th row, the planted manifest (200 test users) loaded 50 users short.
    g = make_planted_dataset(seed=0).build()
    split = hg.split_leave_one_out(g, seed=0)
    path = tmp_path / "split.txt"
    hg.save_split_manifest(split, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3 + 200
    path.write_text("\n".join(lines[:3 + 150]) + "\n")
    missing = split.test_users[150]
    with pytest.raises(hg.SplitError, match=rf"split\.txt: line 154: holds nothing, but the "
                                            rf"split of seed 0 has '{missing}\\t"):
        hg.check_split_manifest(split, path)


def test_manifest_rejects_a_skipped_count_the_graph_does_not_give(tmp_path):
    path = tmp_path / "split.txt"
    split = _saved_split(path)
    text = path.read_text()
    line = f"skipped\t{split.num_skipped}\n"
    path.write_text(text.replace(line, f"skipped\t{split.num_skipped + 1}\n", 1))
    with pytest.raises(hg.SplitError, match=rf"split\.txt: line 3: holds 'skipped\\t"
                                            rf"{split.num_skipped + 1}\\n', but the split of "
                                            rf"seed 17 has 'skipped\\t{split.num_skipped}\\n'"):
        hg.check_split_manifest(split, path)


@pytest.mark.parametrize("row", ["0\t1", "0\tx\t" + ",".join(["2"] * 100),
                                 "0,1\t2\t" + ",".join(["3"] * 99)],
                         ids=["no_negatives", "non_integer_item", "comma_before_a_tab"])
def test_manifest_malformed_row_names_file_and_line(tmp_path, row):
    path = tmp_path / "split.txt"
    split = _saved_split(path)
    lines = path.read_text().splitlines()
    lines[4] = row  # the second test user's row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(hg.SplitError, match=r"split\.txt: line 5: "):
        hg.check_split_manifest(split, path)


def test_manifest_negative_moved_to_another_row_names_the_row(tmp_path):
    # The body still holds rows x 102 ids, but the second row has 101 negatives.
    path = tmp_path / "split.txt"
    split = _saved_split(path)
    lines = path.read_text().splitlines()
    last = lines[5].rsplit(",", 1)
    lines[4], lines[5] = lines[4] + "," + last[1], last[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(hg.SplitError, match=r"split\.txt: line 5: "):
        hg.check_split_manifest(split, path)


def _manifest_bytes(split) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        hg.save_split_manifest(split, Path(tmp) / "split.txt")
        return (Path(tmp) / "split.txt").read_bytes()


# A small split for the property tests: 4 test users, a 1.6 KB manifest.
_SMALL_SPLIT = hg.split_leave_one_out(_chain_graph(num_users=4, num_items=110, per_user=3), 5)
_SMALL_MANIFEST = _manifest_bytes(_SMALL_SPLIT)


def _refused_line(data: bytes) -> str:
    """The line number in the SplitError ``check_split_manifest`` raises for ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.txt"
        path.write_bytes(data)
        with pytest.raises(hg.SplitError) as exc:
            hg.check_split_manifest(_SMALL_SPLIT, path)
    return re.match(r".*split\.txt: line (\d+): ", str(exc.value)).group(1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(2, 6), st.integers(2, 5))
def test_saved_manifest_passes_its_check(seed, num_users, per_user):
    split = hg.split_leave_one_out(_chain_graph(num_users, 110, per_user, seed), seed)
    with tempfile.TemporaryDirectory() as tmp:
        hg.save_split_manifest(split, Path(tmp) / "split.txt")
        hg.check_split_manifest(split, Path(tmp) / "split.txt")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(_SMALL_MANIFEST) - 1), st.integers(1, 255))
def test_manifest_byte_substitution_names_its_line(offset, flip):
    data = bytearray(_SMALL_MANIFEST)
    data[offset] ^= flip
    assert _refused_line(bytes(data)) == str(_SMALL_MANIFEST.count(b"\n", 0, offset) + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(_SMALL_MANIFEST) - 1))
def test_manifest_truncation_names_the_line_cut_or_first_missing(size):
    assert _refused_line(_SMALL_MANIFEST[:size]) == str(
        _SMALL_MANIFEST.count(b"\n", 0, size) + 1)


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=1, max_size=64))
def test_manifest_appended_bytes_name_the_first_extra_line(extra):
    assert _refused_line(_SMALL_MANIFEST + extra) == str(_SMALL_MANIFEST.count(b"\n") + 1)


def test_manifest_same_seed_identical_bytes(tmp_path):
    g = _chain_graph(num_users=10, num_items=150, per_user=4)
    for name in ("a", "b"):
        hg.save_split_manifest(hg.split_leave_one_out(g, seed=21), tmp_path / name)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


# ---------------------------------------------------------------------------
# triplet sampling


def test_sample_triplet_single_edge():
    g = hg.build_graph([(0, 5)], [], [], 1, 10, 0)
    users, pos, neg = hg.sample_bpr_batch(g, np.random.default_rng(0), 20)
    assert np.all(users == 0) and np.all(pos == 5)
    assert np.all((neg != 5) & (neg >= 0) & (neg < 10))


def test_sample_triplet_positive_frequencies_uniform():
    # chi-square-style check against the uniform-edge oracle on a 2-edge graph
    g = hg.build_graph([(0, 0), (1, 1)], [], [], 2, 10, 0)
    n = 10_000
    users, pos, _ = hg.sample_bpr_batch(g, np.random.default_rng(42), n)
    assert np.array_equal(users, pos)  # each user's only edge
    assert abs(np.count_nonzero(users == 0) / n - 0.5) < 0.05


def test_sample_triplet_saturated_user_errors():
    g = hg.build_graph([(0, 0)], [], [], 1, 1, 0)
    with pytest.raises(hg.SamplingError):
        hg.sample_bpr_batch(g, np.random.default_rng(0), 4)


def test_sample_batch_matches_contract():
    g = _chain_graph(num_users=5, num_items=20, per_user=3)
    rng = np.random.default_rng(11)
    users, pos, neg = hg.sample_bpr_batch(g, rng, 256)
    assert users.shape == pos.shape == neg.shape == (256,)
    keys = g.interaction_keys
    assert hg._in_sorted(keys, users * g.num_items + pos).all()
    assert not hg._in_sorted(keys, users * g.num_items + neg).any()


def test_adjacency_is_frozen(tiny_graph):
    with pytest.raises(ValueError):
        tiny_graph.ui.indices[0] = 99


def test_closed_degrees_are_degrees_plus_one_built_once(tiny_graph):
    uu = tiny_graph.uu
    col = uu._closed_degrees
    assert col.dtype == np.float64 and col.shape == (uu.num_rows, 1)
    assert col.tobytes() == (uu.degrees() + 1.0)[:, None].tobytes()
    assert col.ravel().tolist() == [2.0, 3.0, 2.0]
    assert uu._closed_degrees is col
    with pytest.raises(ValueError):
        col[0, 0] = 5.0


def test_interaction_keys_are_built_once_per_graph_and_read_only():
    from dataclasses import replace
    g = _chain_graph(num_users=5, num_items=20, per_user=3)
    keys = g.interaction_keys
    pairs = g.interaction_pairs()
    assert keys.tobytes() == (pairs[:, 0] * g.num_items + pairs[:, 1]).tobytes()
    assert np.all(keys[1:] > keys[:-1])
    assert g.interaction_keys is keys
    with pytest.raises(ValueError):
        keys[0] = -1
    fewer = replace(g, ui=hg.Adjacency.from_pairs(pairs[1:], g.num_users))
    assert fewer.interaction_keys.tobytes() == keys[1:].tobytes()
    assert g.interaction_keys is keys


def test_closed_degrees_are_ones_without_social_ties(tiny_graph):
    from dgnnrec.evaluation import strip_graph
    uu = strip_graph(tiny_graph, True, False).uu
    assert uu.num_edges == 0
    assert np.array_equal(uu._closed_degrees, np.ones((tiny_graph.num_users, 1)))


@pytest.mark.parametrize("case", ["random_with_duplicates", "empty", "rows_without_pairs",
                                  "every_pair_repeated"])
def test_from_pairs_matches_unique_rows(case):
    rng = np.random.default_rng(3)
    num_rows = 9
    if case == "empty":
        pairs = np.empty((0, 2), dtype=np.int64)
    elif case == "random_with_duplicates":
        pairs = rng.integers(0, [num_rows, 12], size=(300, 2))
    elif case == "every_pair_repeated":
        once = np.unique(rng.integers(0, [num_rows, 12], size=(40, 2)), axis=0)
        pairs = rng.permutation(np.concatenate([once, once[::-1], once]))
    else:
        pairs = np.column_stack([rng.choice([1, 4, 8], 60), rng.integers(0, 40, 60)])
    adj = hg.Adjacency.from_pairs(pairs, num_rows)
    expected = np.unique(pairs, axis=0) if pairs.size else pairs
    indptr = np.concatenate([[0], np.cumsum(np.bincount(expected[:, 0], minlength=num_rows))])
    assert adj.indices.dtype == adj.indptr.dtype == np.int64
    assert np.array_equal(adj.indices, expected[:, 1])
    assert np.array_equal(adj.indptr, indptr)
    if case == "rows_without_pairs":
        assert set(np.flatnonzero(adj.degrees()).tolist()) == {1, 4, 8}


def test_from_pairs_rejects_negative_ids():
    with pytest.raises(hg.GraphBuildError, match="non-negative"):
        hg.Adjacency.from_pairs([[0, 1], [1, -2]], 2)
