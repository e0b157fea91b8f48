import itertools

from levypide.grids import make_grid


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
