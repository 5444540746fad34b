"""Spatial boxes: point-membership shapes."""

import numpy as np
import pytest

from levyfield.boxes import Box

UNIT = Box.interval(0.0, 1.0)
SQUARE = Box((0.0, 0.0), (1.0, 2.0))


class TestContains:
    def test_points_by_rows(self):
        pts = np.array([[0.5, 1.5], [0.5, 2.0], [1.0, 0.0], [0.0, 0.0]])
        assert SQUARE.contains(pts).tolist() == [True, False, False, True]

    def test_one_point(self):
        assert SQUARE.contains([0.5, 1.5]).tolist() == [True]
        assert SQUARE.contains((0.5, 2.5)).tolist() == [False]

    def test_flat_points_in_one_dimension(self):
        assert UNIT.contains([0.2, 1.2, 0.0, 1.0]).tolist() == [True, False, True, False]

    def test_column_points_in_one_dimension(self):
        assert UNIT.contains(np.array([[0.2], [-0.1]])).tolist() == [True, False]

    def test_scalar_in_one_dimension(self):
        assert UNIT.contains(0.5).tolist() == [True]

    def test_empty_rows(self):
        assert SQUARE.contains(np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize(
        "box, points",
        [
            (SQUARE, np.array([0.1, 0.2, 0.3, 0.4])),  # flat array, not one point
            (SQUARE, np.zeros((3, 3))),
            (SQUARE, np.zeros((2, 1))),
            (SQUARE, 0.5),
            (SQUARE, np.zeros((2, 2, 2))),
            (UNIT, np.zeros((3, 2))),
        ],
    )
    def test_other_shapes_rejected(self, box, points):
        with pytest.raises(ValueError, match="shape"):
            box.contains(points)
