import itertools
import math

import pytest

from levypide.errors import ParameterDomainError
from levypide.grids import Grid, make_grid
from levypide.pricing import MarketSpec, price_european


def _five_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_make_grid_keeps_an_fft_friendly_length_and_covers_the_reach():
    # both need an odd number of extra cells to reach a 5-smooth length;
    # the raw lengths 1818 = 2 * 9 * 101 and 404 = 4 * 101 are slow to FFT
    assert make_grid(3.0, 1024, reach=2.3).n_total == 1920
    assert make_grid(3.0, 256, reach=1.6).n_total == 432
    for half_width, n_core, reach in itertools.product(
            (2.0, 3.0, 4.0, 6.0), (128, 256, 512, 1024, 2048),
            (0.7, 1.6, 2.3, 3.2, 4.1, 5.5)):
        g = make_grid(half_width, n_core, reach=reach)
        assert _five_smooth(g.n_total), (half_width, n_core, reach, g.n_total)
        assert g.pad * g.dx >= reach
        assert g.n_total == n_core + 2 * g.pad


@pytest.mark.parametrize("build", [
    lambda: Grid(dim=1, half_width=math.nan, n_core=64),
    lambda: Grid(dim=1, half_width=math.inf, n_core=64),
    lambda: make_grid(math.nan, 64),
    lambda: make_grid(6.0, 64, reach=math.nan),
    lambda: make_grid(6.0, 64, reach=math.inf),
    lambda: make_grid(6.0, 64, reach=-1.0),
    lambda: price_european(MarketSpec(100.0, 100.0, 1.0, 0.05, 0.2, "call"),
                           half_width=math.nan, n_core=64),
], ids=["grid_nan_half_width", "grid_inf_half_width", "make_grid_nan_half_width",
        "make_grid_nan_reach", "make_grid_inf_reach", "make_grid_negative_reach",
        "price_european_nan_half_width"])
def test_nan_infinite_or_negative_sizes_are_domain_errors(build):
    # int(ceil(nan)) would end in a bare ValueError instead
    with pytest.raises(ParameterDomainError):
        build()
