import json
from fractions import Fraction as F

import pytest

from redstab.errors import AmbientMismatch, DependentCharacters
from redstab.interlace import Polynomial
from redstab.plots import emit_csv, emit_plot, emit_svg, figure_hilb, figure_surface
from redstab.walls import (
    hilb_boundary,
    hilb_bounds,
    hilb_locus,
    hilb_wall_line,
    numerical_wall,
    sb_v_surface,
)
from redstab.walls import _roots_from_elementary


class TestSurfaceLocus:
    def test_horizontal_wall(self):
        loc = sb_v_surface((1, 0, -1))
        assert all(abs(q - 2.0) < 1e-12 for _, q in loc.points)
        assert all(r < 1e-10 for r in loc.residuals)
        assert loc.clip.startswith("q < p^2/4")

    def test_sloped_wall(self):
        loc = sb_v_surface((1, -1, F(1, 2)))
        assert all(abs(q - (-1.0 - p)) < 1e-12 for p, q in loc.points)
        assert all(r < 1e-10 for r in loc.residuals)

    def test_tangent_line_of_parabola_point(self):
        # kernel of the twisted vector at t0: the tangent line, sans tangency
        t0 = 1.0
        loc = sb_v_surface((1, t0, t0 * t0 / 2))
        assert loc.points
        for p, q in loc.points:
            assert q < p * p / 4
            assert abs(q - (t0 * p - t0 * t0)) < 1e-9
        assert all(r < 1e-10 for r in loc.residuals)

    def test_ambient_check(self):
        with pytest.raises(AmbientMismatch):
            sb_v_surface((1, 0, 0, 0))


class TestHilbBounds:
    def test_m_one(self):
        assert hilb_bounds(1) == (1, 3)

    def test_m_four(self):
        assert hilb_bounds(4) == (2, 4)

    def test_exhaustive_small(self):
        for m in [*range(1, 1001), 12_345, 54_321, 99_999, 100_000]:
            n_val = next(k for k in range(1, 100)
                         if (k + 1) * (k + 2) * (k + 3) > 6 * m)
            m_val = max(k for k in range(1, m + 3)
                        if k * k * (k - 4) < 6 * m and k <= m + 2)
            assert hilb_bounds(m) == (n_val, m_val)

    def test_huge_m_by_the_definitions(self):
        m = 10 ** 30
        n_val, m_val = hilb_bounds(m)
        assert (n_val + 1) * (n_val + 2) * (n_val + 3) > 6 * m
        assert not n_val * (n_val + 1) * (n_val + 2) > 6 * m
        assert m_val * m_val * (m_val - 4) < 6 * m and m_val <= m + 2
        assert not (m_val + 1) ** 2 * (m_val - 3) < 6 * m


class TestHilbLoci:
    def test_boundary_point(self):
        loc = hilb_boundary(1, t_range=(1.0, 1.0), samples=1)
        assert loc.points[0] == (8.0, 13.0)
        assert loc.residuals[0] == 0.0

    def test_locus_kernel_residuals(self):
        loc = hilb_locus(3, samples=15)
        assert loc.points
        assert max(loc.residuals) < 1e-10

    def test_boundary_double_root(self):
        for m in (1, 2, 5):
            loc = hilb_boundary(m, samples=40)
            for p, q in loc.points:
                a_, b_, c_, d_ = 1.0, p, q, 6.0 * m
                disc = (18 * a_ * b_ * c_ * d_ - 4 * b_ ** 3 * d_
                        + b_ ** 2 * c_ ** 2 - 4 * a_ * c_ ** 3
                        - 27 * a_ ** 2 * d_ ** 2)
                scale = max(abs(b_ ** 2 * c_ ** 2), abs(27 * d_ ** 2), 1.0)
                assert abs(disc) < 1e-9 * scale

    def test_wall_line_on_locus(self):
        loc = hilb_wall_line(2, 4.0, samples=30)
        finite = [r for r in loc.residuals if r == r]
        assert finite and max(finite) < 1e-9


class TestNumericalWall:
    def test_dependent_characters(self):
        with pytest.raises(DependentCharacters):
            numerical_wall((1, 0, -1), (2, 0, -2), None)

    def test_dependent_characters_sign_flip_and_zero_pivot(self):
        for v, w in (((1, 0, -1), (-3, 0, 3)),
                     ((0, 2, -1), (0, -4, 2)),
                     ((0, 0, 0, 1), (0, 0, 0, F(-1, 3)))):
            with pytest.raises(DependentCharacters):
                numerical_wall(v, w, None)

    def test_independent_characters_zero_pivot(self):
        # a shared zero first entry does not make these two dependent
        loc = numerical_wall((0, 1, 0), (0, 1, 2), region=((-5, 5), (-5, 5)))
        assert loc.character == (0, 1, 0)

    def test_surface_point_clipped_away(self):
        # intersection (p, q) = (0, 2) lies above the parabola: empty
        loc = numerical_wall((1, 0, -1), (0, 1, 0), region=((-5, 5), (-5, 5)))
        assert loc.empty

    def test_surface_point_inside(self):
        loc = numerical_wall((1, 0, 2), (0, 1, 0), region=((-5, 5), (-5, 5)))
        assert loc.points == ((0.0, -4.0),)
        assert max(loc.residuals) < 1e-10

    def test_threefold_wall_curve(self):
        loc = numerical_wall((1, 0, 0, -2), (0, 0, 1, -3),
                             region=((-20, 0), (-20, 0), (-20, 0)), grid=200)
        assert loc.points
        assert max(loc.residuals) < 1e-10
        assert loc.dimension == 1 and loc.codimension == 2
        # B(w) = 0 forces e1 = 3k, so the first coordinate -e1 = 9
        assert all(abs(p - 9.0) < 1e-9 for p, _ in loc.points)


def test_roots_from_elementary_lets_unrelated_errors_through(monkeypatch):
    assert _roots_from_elementary([0.0, 1.0], 2) is None  # x^2 + 1: complex roots

    def broken(self):
        raise TypeError("not a root-extraction failure")

    monkeypatch.setattr(Polynomial, "roots", broken)
    with pytest.raises(TypeError):
        _roots_from_elementary([3.0, 2.0], 2)


class TestPlots:
    def test_csv_header_and_rows(self):
        loc = sb_v_surface((1, 0, -1), samples=10)
        doc = emit_csv([loc], {"test": True})
        lines = doc.splitlines()
        assert lines[1] == "coord1,coord2,residual"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert data and all(len(row.split(",")) == 3 for row in data)

    def test_empty_locus_warning(self):
        loc = numerical_wall((1, 0, -1), (0, 1, 0), region=((-5, 5), (-5, 5)))
        doc = emit_svg([loc], (-5, 5, -5, 5))
        meta = json.loads(doc.splitlines()[2].replace("<desc>", "").replace("</desc>", ""))
        assert any("empty locus" in w for w in meta["warnings"])

    def test_figure_surface_elements(self):
        svg = figure_surface(1)
        assert svg.startswith('<?xml version="1.0"')
        assert "parabola t1=t2" in svg
        assert svg.count("<polyline") >= 3
        assert figure_surface(1) == svg  # byte-stable

    def test_figure_hilb_elements(self):
        svg = figure_hilb(2)
        assert "boundary wall t1=-4" in svg
        assert "boundary wall t3=-1" in svg
        assert "#d62728" in svg and "#2ca02c" in svg
        assert figure_hilb(2) == svg

    def test_figure_hilb_draws_every_locus(self):
        # the curves sit near (3c, 3c^2), c = (6m)^(1/3): the viewport must
        # follow q like c^2, not c, or the loci leave it from m = 46 on
        for m in [*range(1, 80), 99, 500, 4321, 10 ** 4, 77777, 10 ** 5, 654321, 10 ** 6]:
            groups = figure_hilb(m).split("<g><title>")[1:]
            assert len(groups) == 3
            assert all("<polyline" in g for g in groups), m

    def test_emit_plot_formats(self):
        loc = sb_v_surface((1, 0, -1), samples=10)
        assert emit_plot([loc], fmt="csv").startswith("#")
        assert "<svg" in emit_plot([loc], fmt="svg")
        with pytest.raises(ValueError):
            emit_plot([loc], fmt="png")
