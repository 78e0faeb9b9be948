"""Shared fixtures."""

from unittest import mock

import pytest

from csfkit.compositions import _pack, _width, weight_positive_compositions


def _closed_form_terms(build, n):
    # The closed forms keep only partition sums, so the term of each
    # composition I is read from a run of build() on I alone, with the window
    # DP swapped for its enumerated reference: its grouped vector is
    # coeff_I * w_I at rho(I), or zero.
    from test_fast_routes import enumerated_window_sums

    current = []

    def stream(degree):
        assert degree == n, (degree, n)
        return iter(current)

    terms = {}
    with mock.patch("test_fast_routes._weight_positive_terms", stream), \
            mock.patch("csfkit.graphs._window_sums", enumerated_window_sums):
        for I in weight_positive_compositions(n):
            current[:] = [(I.parts, I.prefix_moduli, _pack(I.parts, _width(n)), I.weight)]
            grouped = build().grouped_by_rho()
            assert set(grouped.terms) <= {I.rho()}, (I, grouped.terms)
            coeff, rest = divmod(grouped.coefficient(I.rho()), I.weight)
            assert rest == 0, I
            terms[I] = coeff
    return terms


@pytest.fixture(scope="session")
def closed_form_terms():
    """closed_form_terms(build, n): {I: coeff_I} over the positive-weight
    compositions of n, for the closed form that ``build()`` returns."""
    return _closed_form_terms
