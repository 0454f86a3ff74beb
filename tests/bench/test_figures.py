"""Unit tests for the figure-table module behind ``python -m repro figure``."""

from __future__ import annotations

import pytest

from repro.bench.figures import FIGURE_BUILDERS, FIGURE_IDS, figure_table
from repro.bench.runners import build_trace
from repro.core.errors import ParameterError


@pytest.fixture(scope="module")
def tiny_trace():
    return build_trace(duration_sec=1.0, rate_per_sec=1_000)


def test_figure_ids_cover_the_paper():
    expected = {
        "fig1", "fig2a", "fig2b", "fig2c", "fig2d",
        "fig3a", "fig3b", "fig4a", "fig4b", "fig4c", "fig4d", "fig5",
    }
    assert set(FIGURE_IDS) == expected


def test_fig1_table_is_exact():
    table = figure_table("fig1")
    assert "Figure 1" in table
    assert "0.25" in table  # gamma = 0.5 row


def test_builder_returns_data_and_the_cli_table():
    data, table = FIGURE_BUILDERS["fig1"](())
    assert table == figure_table("fig1")
    assert data["series"][60.0][5] == pytest.approx(0.25)  # gamma = 0.5


@pytest.mark.parametrize("figure_id", ["fig2a", "fig3a", "fig5"])
def test_rate_figures_render(figure_id, tiny_trace):
    table = figure_table(figure_id, trace=tiny_trace)
    assert "ns/tuple" in table
    assert "pkt/s" in table


def test_fig3b_renders(tiny_trace):
    table = figure_table("fig3b", trace=tiny_trace)
    assert "k=1000" in table


def test_fig4_space_panel_renders(tiny_trace):
    table = figure_table("fig4c", trace=tiny_trace)
    assert "eps=0.01" in table
    assert "bwd sliding-window HH" in table


def test_unknown_figure_rejected():
    with pytest.raises(ParameterError):
        figure_table("fig99")
