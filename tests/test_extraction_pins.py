"""Guard pins: whole extraction results on three inputs.

Each pin holds the chosen trial, the certificate, the crossing and mean kept
edge counts and a SHA-256 of the sorted kept edges, so any change to the
trial loop that moves a draw, a certificate decision or a tie shows here.
Only public names are used.
"""

import hashlib

import pytest

from pathfree import PipelineParams, extract_from_densest_band, pipeline, uniform_edges


def pinned(band) -> tuple:
    """What a banded extraction decided, with a digest of its kept edges."""
    ex = band.extraction
    rows = "".join(f"{u} {v}\n" for u, v in sorted(ex.subgraph.edges))
    return (
        ex.chosen_trial,
        ex.certificate,
        ex.certified,
        ex.crossing_edges,
        ex.mean_edges,
        hashlib.sha256(rows.encode()).hexdigest(),
    )


def test_banded_extraction_on_a_dense_band_is_pinned():
    g = uniform_edges(400, 8000, 3)
    band = extract_from_densest_band(g, beta=0.5, r=36, k=10, trials=200, seed=3)
    assert pinned(band) == (
        98,
        "block-path",
        True,
        4017,
        373.04,
        "a40a28b959a177f4a2149aeeb17b0478ef18eb695c9bd3aac8dfcfad83ee51da",
    )


def test_round_zero_extraction_on_2000_vertices_is_pinned(monkeypatch):
    # the first extraction that colour_graph runs; it is uncertified, so
    # round 0 aborts, and the run is stopped right after it
    class Seen(Exception):
        pass

    real = pipeline.extract_from_densest_band

    def first_only(*args, **kwargs):
        raise Seen(real(*args, **kwargs))

    monkeypatch.setattr(pipeline, "extract_from_densest_band", first_only)
    params = PipelineParams(r=60, k=12, seed=1, beta0=0.5)
    with pytest.raises(Seen) as seen:
        pipeline.colour_graph(uniform_edges(2000, 40000, 1), params)
    assert pinned(seen.value.args[0]) == (
        31,
        None,
        False,
        20066,
        1331.135,
        "14c6d7a4fffc85d6fc3d1589cf07be0b1b163cc5734513f8c20c538ef453d479",
    )


def test_component_order_extraction_is_pinned():
    # a sparse band where most trials break the block-path limit: about a
    # tenth of them certify by component order, and one of those wins
    g = uniform_edges(1000, 3000, 3)
    band = extract_from_densest_band(g, beta=0.5, r=6, k=8, trials=200, seed=3)
    assert pinned(band) == (
        74,
        "component-order",
        True,
        1545,
        504.97,
        "6139d5894bf2ae7742c547efc0b88f7e50d5f8e3a0615c157e2005760334eb0f",
    )
