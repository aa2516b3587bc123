"""Self-test of the seeded input generator.

Run with ``python3 -m pytest bench``.  Two seeds must present the same
inputs differently (different table bytes) while every expected output
stays the same.  Checked on small catalogue entries so the test is quick.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import quandles  # noqa: E402
from quandles import grid, homology, quandle_h2  # noqa: E402

from inputs import conjugate, relabel, rng_for, table_text  # noqa: E402

SEEDS = (1, 2)
SMALL_TABLES = ["dihedral:8", "symplectic:g1:q3", "spherical:n2:q3", "alexander:9:t2"]
SMALL_SPECS = ["2,2,2:frob", "3,3:rot"]


def _relabeled(key, seed):
    table = relabel(grid.grid_by_key()[key].build().table, rng_for("test", seed))
    return table_text(table, key), quandles.validate(table)


def test_relabeling_changes_bytes_not_outputs():
    for key in SMALL_TABLES:
        (text_a, qa), (text_b, qb) = (_relabeled(key, s) for s in SEEDS)
        assert text_a != text_b, key
        assert quandles.load_table(text_a).table == qa.table
        assert quandle_h2(qa) == quandle_h2(qb), key
        assert qa.profile().inn_order == qb.profile().inn_order, key
        assert qa.type == qb.type
    h3 = [homology(_relabeled("dihedral:8", s)[1], 3) for s in SEEDS]
    assert h3[0] == h3[1]


def test_conjugated_t_changes_matrix_not_outputs():
    for key in SMALL_SPECS:
        spec = grid.grid_by_key()[f"alexander:{key}"].alexander_spec
        p = spec.torsion_orders[0]
        conj = [
            quandles.AlexanderModuleSpec(
                spec.torsion_orders, conjugate(spec.t_matrix, p, rng_for("test", s))
            )
            for s in SEEDS
        ]
        assert conj[0].t_matrix != conj[1].t_matrix, key
        outputs = [
            (
                s.t_order(),
                str(quandles.eisermann_h2(s)),
                quandles.verify_homotopy_2(s).tuples_checked,
                quandles.universal_covering_alexander(s, base_point=1).total.order,
            )
            for s in [spec, *conj]
        ]
        assert outputs[0] == outputs[1] == outputs[2], key


def test_same_seed_same_presentation():
    assert _relabeled("dihedral:8", 7)[0] == _relabeled("dihedral:8", 7)[0]
