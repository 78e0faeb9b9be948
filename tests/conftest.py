"""Shared fixtures."""

import pytest

from csfkit.compositions import weight_positive_compositions


def _closed_form_terms(build, n):
    # The closed forms keep only partition sums, so each term is read from
    # the window that build() hands to the DP, evaluated on I by the kernel.
    from test_fast_routes import closed_form_window, window_body

    window = closed_form_window(build)
    assert window[0] == n, (window, n)
    body = window_body(*window)
    return {I: body(I.parts, I.prefix_moduli) for I in weight_positive_compositions(n)}


@pytest.fixture(scope="session")
def closed_form_terms():
    """closed_form_terms(build, n): {I: coeff_I} over the positive-weight
    compositions of n, for the closed form that ``build()`` returns."""
    return _closed_form_terms
