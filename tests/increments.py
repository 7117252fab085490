"""The Wiener increment of a step, drawn as ``run_trajectory`` draws it."""

from nsch.noise import sample_increment


def draw(params, gen):
    """The next increment over ``params.dt`` of the path whose stream-0 generator is ``gen``."""
    return sample_increment(params.dt, gen, params.noise)
